"""Closed-form eigenvalue lists used as oracles for the discrete solvers.

Disk Dirichlet/Neumann/Steklov, rectangle Dirichlet/Neumann/mixed, and
the concentric-annulus Steklov spectrum.
Everything here comes from separation of variables; the only numerics are
scipy's integer-order Bessel zero tables (`jn_zeros`, `jnp_zeros`) and
stable quadratic roots.
"""
import numpy as np
from scipy.special import jn_zeros, jnp_zeros


class AnalyticSpectrum:
    """Ascending eigenvalue list with exact multiplicities.

    `values` is the expanded list (each eigenvalue repeated per its
    multiplicity), trimmed to the requested count.
    """

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        if np.any(np.diff(values) < 0):
            raise ValueError("analytic spectrum must be ascending")
        self.values = values

    def pairs(self):
        """(value, multiplicity) list, grouped on exact float ties."""
        out = []
        for v in self.values:
            if out and out[-1][0] == v:
                out[-1][1] += 1
            else:
                out.append([v, 1])
        return [(v, m) for v, m in out]

    def __len__(self):
        return len(self.values)

    def __getitem__(self, k):
        return self.values[k]


def _trim(vals_mults, count):
    expanded = []
    for v, m in sorted(vals_mults):
        expanded.extend([v] * m)
        if len(expanded) >= count:
            break
    if len(expanded) < count:
        return None
    return expanded[:count]


def disk_spectra(kind, radius=1.0, count=20):
    """Analytic disk spectrum for dirichlet, neumann, or steklov."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    if kind == "steklov":
        vals = [(0.0, 1)] + [(n / radius, 2) for n in range(1, count)]
        return AnalyticSpectrum(_trim(vals, count))
    if kind not in ("dirichlet", "neumann"):
        raise ValueError(f"unknown disk problem {kind!r}")

    # jnp_zeros(0, k) counts j'_{0,1} = j_{1,1} first, as the Neumann disk needs
    table = jn_zeros if kind == "dirichlet" else jnp_zeros
    # Weyl: about (R^2/4)*Lambda eigenvalues below Lambda on the disk
    j_cut = np.sqrt(4.5 * (count + 5)) + 4.0
    for _ in range(12):
        # zero k of J_n or J'_n exceeds j_{0,k-1} > (k - 5/4) pi: zero per_order > j_cut
        per_order = int(j_cut / np.pi) + 3
        vals = [(0.0, 1)] if kind == "neumann" else []
        for n in range(int(j_cut) + 1):
            mult = 1 if n == 0 else 2
            zeros = table(n, per_order)
            vals.extend(((z / radius) ** 2, mult) for z in zeros[zeros <= j_cut])
        expanded = _trim(vals, count)
        if expanded is not None:
            return AnalyticSpectrum(expanded)
        j_cut *= 1.3
    raise ValueError("could not collect enough disk eigenvalues")


_SIDES = ("bottom", "right", "top", "left")


def _axis_factors(pair, length, count):
    """Wavenumbers for one axis given its (low, high) side conditions."""
    lo, hi = pair
    if lo == "dirichlet" and hi == "dirichlet":
        return [(m * np.pi / length) for m in range(1, count + 1)]
    if lo == "neumann" and hi == "neumann":
        return [(m * np.pi / length) for m in range(0, count + 1)]
    # one Dirichlet end, one Neumann end: quarter-wave shift
    return [((m - 0.5) * np.pi / length) for m in range(1, count + 1)]


def rectangle_spectra(kind, a=1.0, b=1.0, neumann_sides=(), count=20):
    """Rectangle [0,a]x[0,b] spectrum; mixed masks must stay separable.

    `neumann_sides` lists side names from (bottom, right, top, left) that
    carry the Neumann condition; the rest are Dirichlet. Supported masks:
    empty, all four, a single side, or one pair of opposite sides.
    """
    if a <= 0 or b <= 0:
        raise ValueError("side lengths must be positive")
    if kind == "dirichlet":
        neumann = frozenset()
    elif kind == "neumann":
        neumann = frozenset(_SIDES)
    elif kind == "mixed":
        neumann = frozenset(neumann_sides)
        bad = neumann - set(_SIDES)
        if bad:
            raise ValueError(f"unknown side names {sorted(bad)}")
        if neumann not in ({"top"}, {"bottom"}, {"left"}, {"right"},
                           {"top", "bottom"}, {"left", "right"},
                           frozenset(), frozenset(_SIDES)):
            raise ValueError("unsupported mixed mask: use one side or one "
                             "pair of opposite sides")
    else:
        raise ValueError(f"unknown rectangle problem {kind!r}")

    def cond(side):
        return "neumann" if side in neumann else "dirichlet"

    kx = _axis_factors((cond("left"), cond("right")), a, count)
    ky = _axis_factors((cond("bottom"), cond("top")), b, count)
    vals = sorted(x * x + y * y for x in kx for y in ky)[:count]
    if len(vals) < count:
        raise ValueError("requested more eigenvalues than the index window")
    return AnalyticSpectrum(vals)


def annulus_mode_pair(rho, n):
    """The two Steklov eigenvalues of angular order n on the annulus
    rho < |x| < 1, from u = (a s^n + b s^-n) trig(n theta).

    The determinant condition reduces (after multiplying by rho^n) to
    (1-t) sigma^2 - n (1+t)(1+1/rho) sigma + n^2 (1-t)/rho = 0, t = rho^2n,
    whose roots tend to n and n/rho as n grows.
    """
    t = rho ** (2 * n)
    one_m = 1.0 - t
    bcoef = n * (1.0 + t) * (1.0 + 1.0 / rho)
    disc = bcoef * bcoef - 4.0 * one_m * one_m * n * n / rho
    hi = (bcoef + np.sqrt(disc)) / (2.0 * one_m)
    lo = n * n / (rho * hi)
    return lo, hi


def concentric_annulus_steklov(r_inner, r_outer=1.0, count=20):
    """Steklov spectrum of the concentric annulus r_inner < |x| < r_outer."""
    if not 0 < r_inner < r_outer:
        raise ValueError("need 0 < r_inner < r_outer")
    rho = r_inner / r_outer
    radial = -(1.0 + 1.0 / rho) / np.log(rho)
    vals = [(0.0, 1), (radial / r_outer, 1)]
    for n in range(1, count):
        lo, hi = annulus_mode_pair(rho, n)
        vals.append((lo / r_outer, 2))
        vals.append((hi / r_outer, 2))
    expanded = _trim(vals, count)
    return AnalyticSpectrum(expanded)

