"""Nystrom collocation for Steklov spectra on collections of circles.

Single-layer and adjoint-double-layer matrices: the trapezoid rule across
curves, and each circle's own block in closed form. With radius R, orientation
o, m nodes and h = 2 pi / m, ln|x - y| = ln R + 1/2 ln(4 sin^2((t - s)/2))
gives the single-layer block -(R / 2 pi)(1/2 R_{|i-j|} + h ln R) with the
periodic log weights R_k, and (x - y).n(x) / |x - y|^2 = o / (2R) gives the
constant adjoint-double-layer block -o h / (4 pi). The constant density is
deflated although the outer circle has unit radius, where its equilibrium
density makes the raw single-layer matrix singular, so no spurious
eigenvalues appear. Both kernels commute with the reflection in a line
x = c or y = c through every circle centre: they depend only on node
distances, per-curve constant weights, circulant self-blocks and a
mirror-invariant mean.
"""
import functools

import numpy as np
import scipy.linalg as la
from scipy.linalg.blas import dgemv

from . import pencil as pen
from .geometry import BoundaryQuadrature, annulus_domain, boundary_quadrature


@functools.lru_cache(maxsize=None)
def kress_log_weights(m):
    """Row weights R_{|i-j|} for the periodic kernel ln(4 sin^2((t-s)/2)).

    Exact for trigonometric polynomials of degree < m/2 against the kernel;
    m must be even and at least 4. Computed once per m (a sweep asks for the
    same m on every curve of every offset) and returned read-only.
    """
    if m % 2 or m < 4:
        raise ValueError("log-weight rule needs an even node count of at least 4")
    n = m // 2
    k = np.arange(m)
    j = np.arange(1, n)
    table = np.cos(np.pi / n * np.outer(k, j))
    out = -(2 * np.pi / n) * dgemv(1.0, table.T, 1.0 / j, trans=1)
    out -= (np.pi / n**2) * np.cos(np.pi * k)
    out.flags.writeable = False
    return out


def _raw_kernels(quad, rows):
    """Single-layer S0 and adjoint double-layer K' on the nodes of `quad`,
    restricted to the rows `rows` (indices into the concatenated nodes, in
    the order given); every entry is computed as in the whole matrix."""
    total = quad.total
    S0 = np.empty((len(rows), total))
    Kp = np.empty((len(rows), total))
    offs = quad.offsets
    for a, ca in enumerate(quad.curves):
        out = np.flatnonzero((rows >= offs[a]) & (rows < offs[a + 1]))
        ia = rows[out] - offs[a]
        for b, cb in enumerate(quad.curves):
            ib = slice(offs[b], offs[b + 1])
            if a == b:
                m, R = cb.n, cb.radius
                lag = np.abs(ia[:, None] - np.arange(m)[None, :])
                S0[out, ib] = -(R / (2 * np.pi)) * (
                    0.5 * kress_log_weights(m)[lag] + cb.h * np.log(R))
                Kp[out, ib] = -cb.orientation * cb.h / (4 * np.pi)
                continue
            d = ca.points[ia, None, :] - cb.points[None, :, :]
            r2 = np.einsum("ijk,ijk->ij", d, d)
            if r2.min() <= 0.0:
                raise ValueError("coincident quadrature nodes across curves")
            S0[out, ib] = -(1 / (4 * np.pi)) * np.log(r2) * cb.weights
            Kp[out, ib] = (-(1 / (2 * np.pi))
                           * np.einsum("ijk,ik->ij", d, ca.normals[ia]) / r2 * cb.weights)
    return S0, Kp


def assemble_kernels(quad, rows):
    """S0 and (1/2 I + K'), each acting on mean-free densities: (S0, Khalf),
    on the rows `rows` (an index array) of the whole matrices."""
    if not isinstance(quad, BoundaryQuadrature):
        raise TypeError("assemble_kernels expects a BoundaryQuadrature")
    S0, Kp = _raw_kernels(quad, rows)
    w = quad.weights
    p = w / w.sum()
    Kp[np.arange(len(rows)), rows] += 0.5
    # M (I - 1 p^T) = M - (M 1) p^T, in place
    for M in (S0, Kp):
        M -= np.outer(M.sum(axis=1), p)
    return S0, Kp


def _mirror_classes(quad):
    """Even and odd classes of the reflection in a line x = c or y = c through
    every circle centre, or of the identity when the centres share neither
    coordinate (no pairs, every node fixed).

    Node j of an m-node curve sits at angle o h j, so the line x = c maps it
    to node (m/2 - j) mod m (nodes m/4 and 3m/4 are fixed when 4 divides m)
    and y = c to node (m - j) mod m (nodes 0 and m/2 fixed). Returns index
    arrays (J, P, F) into the concatenated nodes: each pair once as j < pi j
    in J with its image in P, and the fixed nodes in F.
    """
    centres = np.array([c.center for c in quad.curves])
    pi = np.arange(quad.total)
    for axis in (0, 1):
        if np.all(centres[:, axis] == centres[0, axis]):
            pi = np.concatenate([off + ((1 - axis) * (c.n // 2) - np.arange(c.n)) % c.n
                                 for off, c in zip(quad.offsets, quad.curves)])
            break
    i = np.arange(len(pi))
    return i[i < pi], pi[i < pi], i[i == pi]


def _mirror_rows(classes):
    """The kernel rows that the mirror blocks read: the pairs J, then the
    fixed nodes F."""
    J, _, F = classes
    return np.r_[J, F]


def _mirror_blocks(M, classes):
    """Diagonal blocks in the even basis e_j + e_pij (j in J) and e_f
    (f in F) and the odd basis e_j - e_pij of a kernel M, given as its rows
    `_mirror_rows(classes)`.

    M commutes with the reflection, so it maps each class into itself and
    the blocks off the diagonal vanish. The constant density has
    coordinates all ones in the even basis.
    """
    J, P, F = classes
    rows, images = _mirror_rows(classes), np.r_[P, F]
    even = M.take(rows, axis=1)
    even += M.take(images, axis=1)
    even[:, len(J):] *= 0.5           # e_f enters both terms
    odd = M[:len(J)].take(J, axis=1)
    odd -= M[:len(J)].take(P, axis=1)
    return even, odd


def _deflated_pencil(S0, Khalf, mirror):
    """The pencil (Khalf, S0) on the complement of the constant density, as
    the tuple of its nonempty mirror blocks (each a `pencil.Pencil`).

    S0 and Khalf hold the rows `_mirror_rows(mirror)` of the kernels, and
    `_mirror_blocks` splits them into the even and the odd block. Both
    kernels annihilate constants by construction (mean subtraction on the
    right; on the left the jump identity for the constant density on the
    outer curve combines with the unit-capacity kernel of S0), and the
    constant is even, so the one-dimensional common null space is removed
    exactly from the even block.

    H = I - tau v v^T with v = 1 + sqrt(n) e_1 is the reflector that maps the
    constant density onto a multiple of e_1, so (H M H)[1:, 1:] is M on the
    complement of the constants. Since v[1:] = 1, that block is
    M[1:, 1:] minus a row vector minus a column vector.
    """
    def reflect(M):
        n = M.shape[0]
        root = np.sqrt(n)
        tau = 1.0 / (n + root)        # 2 / (v^T v)
        r = tau * (M.sum(axis=0) + root * M[0])           # tau v^T M
        c = tau * (M.sum(axis=1) + root * M[:, 0]
                   - (r.sum() + root * r[0]))             # tau (M - v r^T) v, rows 1:
        out = M[1:, 1:] - c[1:, None]
        out -= r[1:]
        return out

    (Ke, Ko), (Se, So) = (_mirror_blocks(M, mirror) for M in (Khalf, S0))
    blocks = [pen.Pencil(reflect(Ke), reflect(Se)), pen.Pencil(Ko, So)]
    return tuple(b for b in blocks if b.n)


def _ntd_blocks(quad, mirror):
    """The Neumann-to-Dirichlet map of `quad`'s domain on the complement of
    the constants, as the tuple of its nonempty mirror blocks (each a
    `pencil.SelfAdjoint`), built from the raw kernels' rows
    `_mirror_rows(mirror)`.

    With p = w / sum(w), A~ = 1/2 I + K' + 1 p^T and P = I - 1 p^T, the
    Nystrom map g -> u is N = P S0 A~^-1: the rank-one term makes A~
    invertible, S0 maps its null density to a constant, and P removes it.
    T = W^1/2 N W^-1/2 is symmetric up to discretization error. Per block,
    T = D P S0 A~^-1 D^-1 in the orthonormal mirror basis, where
    D = diag(sqrt w) is multiplied by sqrt 2 on the pairs of the even
    block. P and the rank-one term act in the even block only, with
    p_e = [2 p_J, p_F], the mass of each even basis vector. (D 1)^T T = 0
    by construction, so one Householder reflector deflates the even
    block's D 1.
    """
    pairs = len(mirror[0])
    rows = _mirror_rows(mirror)
    w = quad.weights[rows]
    p = w / quad.weights.sum()
    p[:pairs] *= 2.0
    d = np.sqrt(w)
    d[:pairs] *= np.sqrt(2.0)
    # the kernel rows are freed once split, before any block is factored
    even, odd = zip(*(_mirror_blocks(M, mirror) for M in _raw_kernels(quad, rows)))
    blocks = [_reflect(_ntd_block(*even, d, p), d)]
    del even
    if pairs:
        # the odd block's D may take the same sqrt 2: a uniform factor cancels
        blocks.append(_ntd_block(*odd, d[:pairs], None))
    return tuple(pen.SelfAdjoint(T) for T in blocks)


def _ntd_block(S, K, d, p):
    """D P S A~^-1 D^-1 for one mirror block of the raw S0 and K' (`S`, `K`,
    both overwritten; the result takes S's memory), with D = diag(d) and
    the block's p (None: P = I and no rank-one term). Only A~, a
    second-kind matrix, is factored; an exactly zero pivot raises
    ValueError."""
    K.flat[::len(d) + 1] += 0.5
    if p is not None:
        K += p
        S -= dgemv(1.0, S.T, p)
    # K.T and S.T are F-ordered views: A~^T is factored in place, and
    # A~^T X^T = (P S)^T is solved in place, so f2py copies nothing
    lu, piv, info = la.lapack.dgetrf(K.T, overwrite_a=True)
    if info > 0:
        raise ValueError(f"1/2 I + K' + 1 p^T is singular: LU pivot {info} is exactly zero")
    X = pen._getrs((lu, piv), S.T, overwrite_b=True).T
    X *= d[:, None]
    X /= d
    return X


def _reflect(T, d):
    """T on the complement of the direction d: (H T H)[1:, 1:] for the
    reflector H = I - tau v v^T, v = d + |d| e_1, that maps d onto -|d| e_1
    (d[0] > 0)."""
    norm = np.sqrt(d @ d)
    tau = 1.0 / (norm * (norm + d[0]))
    v = d.copy()
    v[0] += norm
    # T.T is F-ordered: dgemv reads it without a copy
    r = tau * dgemv(1.0, T.T, v)                             # tau T^T v
    c = tau * (dgemv(1.0, T.T, v, trans=1) - (r @ v) * v)    # tau (T - v r^T) v
    out = T[1:, 1:] - c[1:, None] * d[1:]
    out -= d[1:, None] * r[1:]
    return out


def solve_steklov_bie(domain, n_per_curve, count):
    """The lowest `count` Steklov eigenvalues of a smooth-curves domain by
    collocation, ascending, with the zero mode prepended and flagged.

    The kernels are computed on the rows `_mirror_rows` of the domain's
    `_mirror_classes` only (bit for bit those rows of the whole kernels;
    about half of them on a domain with a mirror line, all of them
    otherwise) and split into the even and odd mirror blocks. Either route
    factors only a second-kind matrix, which stays well-conditioned however
    small a hole is, and never inverts the first-kind single layer.
    When Arnoldi pays for the count - 1 values (at least one) asked of
    `pencil.solve_general` (`pencil.arnoldi_pays`), `_deflated_pencil`
    builds the blocks of the pencil (1/2 I + K', S0); the solve rejects a
    complex value among them, a sign of under-resolution, and a negative
    value raises ValueError. Otherwise `_ntd_blocks` builds the symmetric
    Neumann-to-Dirichlet blocks, which eigh solves, gated, into positive
    values. Fewer than `count` values raise ValueError, naming the node
    counts. The domain must have the unit weight. The flags record the
    block orders (`blocks`) and copy the pencil solve's `solver` route
    ("arnoldi" or "eigh"), the largest relative `residual` over the blocks,
    and Arnoldi's summed `matvecs` or the symmetric route's `asymmetry`.
    """
    if domain.weight != "unit":
        raise ValueError(f"BIE Steklov solves need the unit weight, not {domain.weight}")
    if count < 1:
        raise ValueError("the Steklov count includes the zero mode: at least 1")
    quad = boundary_quadrature(domain, n_per_curve)
    n_per_curve = [c.n for c in quad.curves]
    mirror = _mirror_classes(quad)
    wanted = max(count - 1, 1)
    if pen.arnoldi_pays(quad.total - 1, wanted):
        blocks = _deflated_pencil(*assemble_kernels(quad, _mirror_rows(mirror)), mirror)
    else:
        blocks = _ntd_blocks(quad, mirror)
    spec = pen.solve_general(*blocks, count=wanted)

    vals = spec.eigenvalues
    if np.any(vals < -1e-8):
        raise ValueError(f"negative Steklov value {vals.min():.3e}: "
                         "discretization inconsistency")
    vals = np.concatenate([[0.0], np.clip(vals, 0.0, None)])
    if len(vals) < count:
        raise ValueError(f"only {len(vals)} Steklov values at nodes {n_per_curve}: "
                         f"cannot return {count} (increase the node counts)")
    return pen.Spectrum(vals[:count], "bie", sum(n_per_curve), domain.name,
                        flags={"zero_mode": True, "n_per_curve": list(n_per_curve),
                               "blocks": [b.n for b in blocks], **spec.flags})


def sweep_annulus(eps_grid, n_per_curve, k_list):
    """sigma_k across a family of hole offsets, normalized by the centered case.

    Returns rows (eps, k, sigma, ratio_to_concentric, N_total), ordered by
    eps then k; N_total is the node total of the solve at eps. The centered
    spectrum is computed at the same node counts.
    """
    eps_grid = [float(e) for e in eps_grid]
    if not eps_grid:
        raise ValueError("eps_grid is empty: give at least one offset")
    if any(e < 0.0 for e in eps_grid):
        raise ValueError("offsets must be nonnegative")
    k_list = [int(k) for k in k_list]
    if not k_list:
        raise ValueError("k_list is empty: give at least one mode index")
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
