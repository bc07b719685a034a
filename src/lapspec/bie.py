"""Nystrom collocation for Steklov spectra on collections of circles.

Single-layer and adjoint-double-layer matrices with the periodic log-weight
splitting on each curve (spectrally accurate for analytic boundaries) and
plain trapezoid across curves. The eigenvalue pencil acts on mean-free
densities; the shared one-dimensional kernel of both sides is deflated by an
orthogonal reflection before the eigensolve, so no spurious eigenvalues appear
even though the outer circle has unit radius (its equilibrium density makes
the raw single-layer matrix singular). `pencil.solve_general` solves it, and
`pencil.REAL_RTOL` decides which values are real.
"""
import warnings

import numpy as np

from . import pencil as pen
from .geometry import BoundaryQuadrature, boundary_quadrature

MAX_HALVINGS = 3   # node-count halvings tried on an ill-conditioned pencil


def kress_log_weights(m):
    """Row weights R_{|i-j|} for the periodic kernel ln(4 sin^2((t-s)/2)).

    Exact for trigonometric polynomials of degree < m/2 against the kernel;
    m must be even.
    """
    if m % 2:
        raise ValueError("log-weight rule needs an even node count")
    n = m // 2
    k = np.arange(m)
    j = np.arange(1, n)
    if len(j):
        out = -(2 * np.pi / n) * (np.cos(np.pi / n * np.outer(k, j)) @ (1.0 / j))
    else:
        out = np.zeros(m)
    out -= (np.pi / n**2) * np.cos(np.pi * k)
    return out


def _raw_kernels(quad):
    total = quad.total
    S0 = np.zeros((total, total))
    Kp = np.zeros((total, total))
    offs = quad.offsets
    for a, ca in enumerate(quad.curves):
        ia = slice(offs[a], offs[a + 1])
        xa, na = ca.points, ca.normals
        for b, cb in enumerate(quad.curves):
            ib = slice(offs[b], offs[b + 1])
            d = xa[:, None, :] - cb.points[None, :, :]
            r2 = np.einsum("ijk,ijk->ij", d, d)
            sb, hb = cb.speed, cb.h
            if a != b:
                if r2.min() <= 0.0:
                    raise ValueError("coincident quadrature nodes across curves")
                S0[ia, ib] = -(1 / (4 * np.pi)) * np.log(r2) * (sb * hb)
                Kp[ia, ib] = (-(1 / (2 * np.pi))
                              * np.einsum("ijk,ik->ij", d, na) / r2 * (sb * hb))
            else:
                m = cb.n
                lag = np.abs(np.arange(m)[:, None] - np.arange(m)[None, :])
                Rm = kress_log_weights(m)[lag]
                dt = cb.t[:, None] - cb.t[None, :]
                s2 = 4.0 * np.sin(dt / 2.0) ** 2
                np.fill_diagonal(s2, 1.0)
                np.fill_diagonal(r2, 1.0)
                # ln|x-y| = 1/2 ln(4 sin^2((t-s)/2)) + analytic remainder
                wsm = 0.5 * np.log(r2 / s2)
                np.fill_diagonal(wsm, np.log(cb.speed))
                S0[ia, ib] = -(1 / (2 * np.pi)) * (0.5 * Rm + hb * wsm) * sb
                kd = (-(1 / (2 * np.pi))
                      * np.einsum("ijk,ik->ij", d, na) / r2 * (sb * hb))
                signed_curv = cb.orientation * cb.curvature
                np.fill_diagonal(kd, -signed_curv / (4 * np.pi) * sb * hb)
                Kp[ia, ib] = kd
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


def solve_steklov_bie(domain, n_per_curve, count=None):
    """Steklov spectrum of a smooth-curves domain by collocation.

    Returns ascending real eigenvalues with the zero mode prepended and
    flagged. Complex pencil eigenvalues among the requested leading block
    signal under-resolution and are rejected; an ill-conditioned projected
    single-layer matrix triggers a halving of the node counts with a warning.
    """
    if domain.kind != "smooth-curves":
        raise ValueError("the collocation solver needs a smooth-curves domain")
    if np.isscalar(n_per_curve):
        n_per_curve = [int(n_per_curve)] * len(domain.circles)
    n_per_curve = [int(n) for n in n_per_curve]

    for attempt in range(MAX_HALVINGS + 1):
        quad = boundary_quadrature(domain, n_per_curve)
        A, B = _deflated_pencil(*assemble_kernels(quad))
        try:
            spec = pen.solve_general(pen.Pencil(A, B), method="bie",
                                     param=sum(n_per_curve), domain=domain.name)
            break
        except pen.IllConditionedError as exc:
            halved = [max(8, n // 2 - (n // 2) % 2) for n in n_per_curve]
            warnings.warn(f"projected single-layer condition {exc.cond:.2e} "
                          f"exceeds {pen.COND_GATE:.2g}; retrying with nodes "
                          f"{halved}")
            n_per_curve = halved
    else:
        raise ValueError("single-layer matrix stayed ill-conditioned after halvings")

    vals = spec.eigenvalues
    if np.iscomplexobj(vals):
        realish = pen.is_real(vals)
        m_req = count if count is not None else len(vals)
        kept = np.sort(vals[realish].real)
        bad = vals[~realish]
        cutoff = kept[min(m_req, len(kept)) - 1] if len(kept) else 0.0
        offending = bad[np.abs(bad) <= abs(cutoff)]
        if len(offending):
            raise ValueError(
                "complex pencil eigenvalues inside the requested range "
                f"(worst {offending[0]:.6g}); increase the node counts")
        vals = kept
    if np.any(vals < -1e-8):
        raise ValueError(f"negative Steklov value {vals.min():.3e}: "
                         "discretization inconsistency")
    vals = np.concatenate([[0.0], np.clip(vals, 0.0, None)])
    if count is not None:
        vals = vals[:count]
    return pen.Spectrum(vals, "bie", sum(n_per_curve), domain.name,
                        flags={"zero_mode": True,
                               "n_per_curve": list(n_per_curve)})


def annulus_domain(eps, inner_radius=0.1):
    """The unit disk with an off-center hole of radius `inner_radius`."""
    from .geometry import Domain
    return Domain("smooth-curves",
                  circles=[((0.0, 0.0), 1.0, +1), ((0.0, float(eps)), inner_radius, -1)],
                  name=f"annulus:eps={eps:g}")


def sweep_annulus(eps_grid, n_per_curve, k_list):
    """sigma_k across a family of hole offsets, normalized by the centered case.

    Returns rows (eps, k, sigma, ratio_to_concentric, N_total), ordered by
    eps then k; N_total is what the solve at eps used, which a halving
    lowers. The centered spectrum is computed at the same node counts.
    """
    eps_grid = [float(e) for e in eps_grid]
    for e in eps_grid:
        if e < 0.0:
            raise ValueError("offsets must be nonnegative")
        if e >= 0.9:
            raise ValueError(f"offset {e} puts the hole against the outer boundary")
    k_list = [int(k) for k in k_list]
    if any(k < 1 for k in k_list):
        raise ValueError("mode indices start at 1 (index 0 is the zero mode)")
    kmax = max(k_list)

    def one(eps):
        return solve_steklov_bie(annulus_domain(eps), n_per_curve, count=kmax + 1)

    results = {eps: one(eps) for eps in sorted(set(eps_grid))}
    base = (results[0.0] if 0.0 in results else one(0.0)).eigenvalues

    rows = []
    for eps in eps_grid:
        spec = results[eps]
        vals = spec.eigenvalues
        for k in k_list:
            rows.append((eps, k, float(vals[k]), float(vals[k] / base[k]),
                         spec.param))
    return rows
