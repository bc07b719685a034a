"""Independent references and the checks the workloads apply.

References come from numpy and scipy.special and from theorems, never from
lapspec. Each check raises `CheckFailed` with the quantity and the bound.
"""
import math

import numpy as np
from scipy.special import jn_zeros


class CheckFailed(AssertionError):
    pass


def _fail(msg):
    raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

J01 = float(jn_zeros(0, 1)[0])


def polygon_area(v):
    v = np.asarray(v, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def polygon_perimeter(v):
    v = np.asarray(v, dtype=float)
    return float(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1).sum())


def concentric_annulus_steklov(a, count):
    """Steklov spectrum of a < |x| < 1, with multiplicity, ascending.

    Separation of variables: u = A + B log r gives 0 and (1 + 1/a)/log(1/a);
    u = (A r^n + C a^n r^-n) trig(n theta) gives the roots of
    a (1 - q^2) s^2 - n (1 + a)(1 + q^2) s + n^2 (1 - q^2) = 0, q = a^n,
    each twice (cos and sin).
    """
    vals = [0.0, (1.0 + 1.0 / a) / math.log(1.0 / a)]
    for n in range(1, count):
        q2 = a ** (2 * n)
        qa, qb, qc = a * (1 - q2), -n * (1 + a) * (1 + q2), n * n * (1 - q2)
        root = math.sqrt(qb * qb - 4 * qa * qc)
        big = (-qb + root) / (2 * qa)
        vals += [qc / (qa * big)] * 2 + [big] * 2   # product of roots = qc/qa
    return np.sort(vals)[:count]


def merged_circle_steklov(radii, count):
    """Union of the disk Steklov spectra n/r (0 once, n >= 1 twice)."""
    vals = []
    for r in radii:
        vals.append(0.0)
        for n in range(1, count):
            vals += [n / r] * 2
    return np.sort(vals)[:count]


def square_dirichlet_distinct(count):
    """The lowest distinct Dirichlet eigenvalues pi^2 (m^2 + n^2) of the unit square."""
    sums = sorted({m * m + n * n for m in range(1, 10) for n in range(1, 10)})
    return [math.pi ** 2 * s for s in sums[:count]]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def equal_spectra(va, vb, rtol):
    """Gordon-Webb-Wolpert: the pair is isospectral, index by index."""
    va, vb = np.asarray(va, dtype=float), np.asarray(vb, dtype=float)
    if va.shape != vb.shape or va.size == 0:
        _fail(f"spectra of unequal length {va.shape} vs {vb.shape}")
    rel = np.abs(va - vb) / np.abs(vb)
    k = int(np.argmax(rel))
    if not rel[k] <= rtol:
        _fail(f"index {k + 1}: {float(va[k])!r} vs {float(vb[k])!r}, relative gap "
              f"{rel[k]:.2e} > {rtol:g}")


def verdict(got, want):
    if got != want:
        _fail(f"verdict {got!r}, expected {want!r}")


def faber_krahn(lam1, area):
    """lambda_1 |Omega| > pi j_{0,1}^2, the disk of equal area."""
    if not lam1 * area > math.pi * J01 ** 2:
        _fail(f"lambda_1 |Omega| = {lam1 * area!r} <= pi j01^2 = "
              f"{math.pi * J01 ** 2!r}")


def is_zero(value, atol):
    if not abs(value) <= atol:
        _fail(f"{value!r} is not 0 within {atol:g}")


def weinstock(sigma1, perimeter):
    """sigma_1 |boundary| <= 2 pi on simply connected domains."""
    if not sigma1 * perimeter <= 2 * math.pi:
        _fail(f"sigma_1 |boundary| = {sigma1 * perimeter!r} > 2 pi")


def close(got, want, atol, what):
    if not abs(got - want) <= atol:
        _fail(f"{what}: {got!r} vs {want!r}, error {abs(got - want):.2e} > {atol:g}")


def strictly_decreasing(values, what):
    for i, (a, b) in enumerate(zip(values, values[1:])):
        if not b < a:
            _fail(f"{what} rises from {a!r} to {b!r} at grid point {i + 1}")


def relative_agreement(got, want, rtol, first_index):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        _fail(f"{got.size} values, expected {want.size}")
    rel = np.abs(got / want - 1)
    k = int(np.argmax(rel))
    if not rel[k] <= rtol:
        _fail(f"index {first_index + k}: {float(got[k])!r} vs {float(want[k])!r}, relative "
              f"error {rel[k]:.2e} > {rtol:g}")


def within(value, lower, upper, what):
    if not lower <= value <= upper:
        _fail(f"{what}: {value!r} not in [{lower!r}, {upper!r}]")


def dilation_invariant(rel_1, rel_s, rtol):
    """FHM: the relative radius does not change when the domain is dilated."""
    if not abs(rel_s - rel_1) <= rtol * abs(rel_1):
        _fail(f"relative radius {rel_s:.6e} after dilation vs {rel_1:.6e}: "
              f"ratio {rel_s / rel_1:.4f}, allowed 1 +- {rtol:g}")
