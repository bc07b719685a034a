"""Nystrom collocation for Steklov spectra on collections of circles.

Single-layer and adjoint-double-layer matrices: the trapezoid rule across
curves, and each circle's own block in closed form. With radius R, orientation
o, m nodes and h = 2 pi / m, ln|x - y| = ln R + 1/2 ln(4 sin^2((t - s)/2))
gives the single-layer block -(R / 2 pi)(1/2 R_{|i-j|} + h ln R) with the
periodic log weights R_k, and (x - y).n(x) / |x - y|^2 = o / (2R) gives the
constant adjoint-double-layer block -o h / (4 pi). The eigenvalue pencil acts
on mean-free densities; the shared one-dimensional kernel of both sides is
deflated by an orthogonal reflection before the eigensolve, so no spurious
eigenvalues appear even though the outer circle has unit radius (its
equilibrium density makes the raw single-layer matrix singular).
`pencil.solve_general` solves it and returns its real values.
"""
import numpy as np
from scipy.linalg.blas import dgemv

from . import pencil as pen
from .geometry import BoundaryQuadrature, annulus_domain, boundary_quadrature


def kress_log_weights(m):
    """Row weights R_{|i-j|} for the periodic kernel ln(4 sin^2((t-s)/2)).

    Exact for trigonometric polynomials of degree < m/2 against the kernel;
    m must be even and at least 4.
    """
    if m % 2 or m < 4:
        raise ValueError("log-weight rule needs an even node count of at least 4")
    n = m // 2
    k = np.arange(m)
    j = np.arange(1, n)
    table = np.cos(np.pi / n * np.outer(k, j))
    out = -(2 * np.pi / n) * dgemv(1.0, table.T, 1.0 / j, trans=1)
    out -= (np.pi / n**2) * np.cos(np.pi * k)
    return out


def _raw_kernels(quad):
    """Single-layer S0 and adjoint double-layer K' on the nodes of `quad`."""
    total = quad.total
    S0 = np.empty((total, total))
    Kp = np.empty((total, total))
    offs = quad.offsets
    for a, ca in enumerate(quad.curves):
        ia = slice(offs[a], offs[a + 1])
        for b, cb in enumerate(quad.curves):
            ib = slice(offs[b], offs[b + 1])
            if a == b:
                m, R = cb.n, cb.radius
                lag = np.abs(np.arange(m)[:, None] - np.arange(m)[None, :])
                S0[ia, ib] = -(R / (2 * np.pi)) * (
                    0.5 * kress_log_weights(m)[lag] + cb.h * np.log(R))
                Kp[ia, ib] = -cb.orientation * cb.h / (4 * np.pi)
                continue
            d = ca.points[:, None, :] - cb.points[None, :, :]
            r2 = np.einsum("ijk,ijk->ij", d, d)
            if r2.min() <= 0.0:
                raise ValueError("coincident quadrature nodes across curves")
            S0[ia, ib] = -(1 / (4 * np.pi)) * np.log(r2) * cb.weights
            Kp[ia, ib] = (-(1 / (2 * np.pi))
                          * np.einsum("ijk,ik->ij", d, ca.normals) / r2 * cb.weights)
    return S0, Kp


def assemble_kernels(quad):
    """S0 and (1/2 I + K'), each acting on mean-free densities: (S0, Khalf)."""
    if not isinstance(quad, BoundaryQuadrature):
        raise TypeError("assemble_kernels expects a BoundaryQuadrature")
    S0, Kp = _raw_kernels(quad)
    w = quad.weights
    p = w / w.sum()
    Kp[np.diag_indices_from(Kp)] += 0.5
    # M (I - 1 p^T) = M - (M 1) p^T, in place
    for M in (S0, Kp):
        M -= np.outer(M.sum(axis=1), p)
    return S0, Kp


def _deflated_pencil(S0, Khalf):
    """Project the pencil onto the complement of the constant density.

    Both matrices annihilate constants by construction (mean subtraction on
    the right; on the left the jump identity for the constant density on the
    outer curve combines with the unit-capacity kernel of S0), so the
    one-dimensional common null space is removed exactly.

    H = I - tau v v^T with v = 1 + sqrt(n) e_1 is the reflector that maps the
    constant density onto a multiple of e_1, so (H M H)[1:, 1:] is M on the
    complement of the constants. Since v[1:] = 1, that block is
    M[1:, 1:] minus a row vector minus a column vector.
    """
    n = S0.shape[0]
    root = np.sqrt(n)
    tau = 1.0 / (n + root)        # 2 / (v^T v)

    def reflect(M):
        r = tau * (M.sum(axis=0) + root * M[0])           # tau v^T M
        c = tau * (M.sum(axis=1) + root * M[:, 0]
                   - (r.sum() + root * r[0]))             # tau (M - v r^T) v, rows 1:
        out = M[1:, 1:] - c[1:, None]
        out -= r[1:]
        return out

    return reflect(Khalf), reflect(S0)


def solve_steklov_bie(domain, n_per_curve, count):
    """The lowest `count` Steklov eigenvalues of a smooth-curves domain by
    collocation, ascending, with the zero mode prepended and flagged.

    `pencil.solve_general` returns the real pencil values and rejects a
    complex one among the count - 1 it is asked for (at least one), a sign
    of under-resolution, and an ill-conditioned projected single-layer
    matrix. A negative value raises ValueError, and so do fewer than
    `count` values, naming the node counts. The domain must have the unit
    weight. The flags copy the pencil solve's `solver` route and, when it
    was gated, its largest relative `residual`.
    """
    if domain.weight != "unit":
        raise ValueError(f"BIE Steklov solves need the unit weight, not {domain.weight}")
    if count < 1:
        raise ValueError("the Steklov count includes the zero mode: at least 1")
    quad = boundary_quadrature(domain, n_per_curve)
    n_per_curve = [c.n for c in quad.curves]
    A, B = _deflated_pencil(*assemble_kernels(quad))
    spec = pen.solve_general(pen.Pencil(A, B), count=max(count - 1, 1))

    vals = spec.eigenvalues
    if np.any(vals < -1e-8):
        raise ValueError(f"negative Steklov value {vals.min():.3e}: "
                         "discretization inconsistency")
    vals = np.concatenate([[0.0], np.clip(vals, 0.0, None)])
    if len(vals) < count:
        raise ValueError(f"only {len(vals)} Steklov values at nodes {n_per_curve}: "
                         f"cannot return {count} (increase the node counts)")
    return pen.Spectrum(vals[:count], "bie", sum(n_per_curve), domain.name,
                        flags={"zero_mode": True,
                               "n_per_curve": list(n_per_curve), **spec.flags})


def sweep_annulus(eps_grid, n_per_curve, k_list):
    """sigma_k across a family of hole offsets, normalized by the centered case.

    Returns rows (eps, k, sigma, ratio_to_concentric, N_total), ordered by
    eps then k; N_total is the node total of the solve at eps. The centered
    spectrum is computed at the same node counts.
    """
    eps_grid = [float(e) for e in eps_grid]
    if any(e < 0.0 for e in eps_grid):
        raise ValueError("offsets must be nonnegative")
    k_list = [int(k) for k in k_list]
    if any(k < 1 for k in k_list):
        raise ValueError("mode indices start at 1 (index 0 is the zero mode)")
    kmax = max(k_list)

    # every annulus is built before any solve: Domain rejects an offset that
    # puts the hole against the outer circle
    domains = {eps: annulus_domain(eps) for eps in sorted(set(eps_grid) | {0.0})}
    results = {eps: solve_steklov_bie(dom, n_per_curve, count=kmax + 1)
               for eps, dom in domains.items()}
    base = results[0.0].eigenvalues

    rows = []
    for eps in eps_grid:
        spec = results[eps]
        vals = spec.eigenvalues
        for k in k_list:
            rows.append((eps, k, float(vals[k]), float(vals[k] / base[k]),
                         spec.param))
    return rows
