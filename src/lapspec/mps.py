"""Method of particular solutions with corner-adapted Fourier-Bessel bases.

Dirichlet eigenvalues on polygons are located where the subspace angle
between the trial space and the space of functions vanishing on the boundary
is smallest: the basis is evaluated at boundary collocation points and at
interior regularization points, the stacked block is orthonormalized, and
the smallest singular value of the boundary sub-block serves as the
indicator s(lambda). A-posteriori intervals around located minima follow
the classical residual bound driven by the boundary sup norm.
"""
import numpy as np
import scipy.linalg as la

from . import specfun
from .fem import _Q5_BARY, _Q5_W, build_mesh
from .pencil import _one_blas_thread

REFINE_RTOL = 1e-9    # relative bracket width at which the lambda search stops
REFINE_SRATIO = 1e-2  # ... or, if wider, this times the least s seen so far
SUP_SAMPLES = 1200    # boundary sup samples per polygon edge or circle
SUP_TOL = 1e-9        # width in the edge parameter at which sup refinement stops
OVERSAMPLE = 2        # boundary collocation points per basis function
HALTON_OFFSET = 17    # first Halton index of the interior points (CLI --seed)
L2_LEVEL = 3          # refinement level of the L2-normalization quadrature mesh


class CornerBasis:
    """Fourier-Bessel fan at one polygon corner.

    Functions J_{alpha k}(sqrt(lambda) r) sin(alpha k theta), k = 1..size,
    in the local frame whose theta = 0 ray is the forward incident edge;
    every function vanishes identically on both edges meeting at the corner.
    """

    def __init__(self, domain, corner, size):
        if domain.kind != "polygon":
            raise ValueError("corner bases are defined on polygons")
        if domain.weight != "unit":
            raise ValueError(f"corner bases solve the unit weight, not {domain.weight}")
        verts = domain.vertices
        n = len(verts)
        corner = int(corner)
        if not 0 <= corner < n:
            raise ValueError(f"corner index {corner} outside 0..{n - 1}")
        fwd = verts[(corner + 1) % n] - verts[corner]
        phi_f = np.arctan2(fwd[1], fwd[0])
        angle = corner_angles(domain)[corner]
        self.vertex = verts[corner]
        self.corner = corner
        self.alpha = np.pi / angle
        self.size = int(size)
        if self.size < 1:
            raise ValueError("basis size must be at least 1")
        if self.alpha * self.size > specfun.NU_MAX:
            raise ValueError(f"top order {self.alpha * self.size:.1f} exceeds "
                             f"the Bessel accuracy domain {specfun.NU_MAX:g}")
        self._phi0 = phi_f
        # branch cut of the local angle along the exterior bisector, so the
        # fan is smooth across the forward-edge ray wherever that ray
        # re-enters the domain (it does on nonconvex polygons)
        self._cut = angle / 2 - np.pi
        self.edges = {(corner, (corner + 1) % n), ((corner - 1) % n, corner)}

    def orders(self):
        return self.alpha * np.arange(1, self.size + 1)

    def evaluate(self, lam, points):
        """Matrix of basis values, one row per point.

        The Bessel factors come from one `specfun.bessel_j_orders` table:
        orders alpha*k that differ by integers share a downward recurrence,
        so a rational alpha = p/q needs at most 2q seed values per point (one
        class per residue of k mod q); an irrational alpha needs all of them.
        """
        d = np.atleast_2d(points) - self.vertex
        r = np.hypot(d[:, 0], d[:, 1])
        theta = self._cut + (np.arctan2(d[:, 1], d[:, 0])
                             - self._phi0 - self._cut) % (2 * np.pi)
        nus = self.orders()
        vals = specfun.bessel_j_orders(nus, np.sqrt(lam) * r)
        return vals * np.sin(theta[:, None] * nus[None, :])


def corner_angles(domain):
    """Interior angle at every polygon corner."""
    verts = domain.vertices
    n = len(verts)
    out = np.empty(n)
    for j in range(n):
        fwd = verts[(j + 1) % n] - verts[j]
        bwd = verts[(j - 1) % n] - verts[j]
        out[j] = (np.arctan2(bwd[1], bwd[0])
                  - np.arctan2(fwd[1], fwd[0])) % (2 * np.pi)
    return out


def reentrant_corners(domain):
    """Indices of corners with interior angle above pi."""
    return [j for j, a in enumerate(corner_angles(domain)) if a > np.pi + 1e-12]


def singular_corners(domain):
    """Corners where eigenfunctions are genuinely non-smooth.

    When the interior angle is pi/m for an integer m, repeated odd
    reflection continues eigenfunctions analytically across the corner and
    no fan is needed there; every other corner contributes fractional-power
    terms and gets one.
    """
    out = []
    for j, a in enumerate(corner_angles(domain)):
        m = np.pi / a
        if abs(m - round(m)) > 1e-9:
            out.append(j)
    return out


def corner_basis(domain, size, corners="singular"):
    """The list of fans, one per chosen corner, that every MPS function takes.

    corners="singular" (the default) places a fan at every corner that is
    not an exact pi-over-integer, or at the corner with the largest interior
    angle when every corner is one; corners="reentrant" takes the reflex
    corners only; otherwise pass explicit corner indices, each at most once.
    """
    if corners == "reentrant":
        corners = reentrant_corners(domain)
        if not corners:
            raise ValueError("polygon has no reflex corners")
    elif corners == "singular":
        corners = singular_corners(domain) or [int(np.argmax(corner_angles(domain)))]
    elif len(set(corners)) < len(corners):
        raise ValueError(f"corner indices {list(corners)} repeat a corner")
    return [CornerBasis(domain, c, size) for c in corners]


def _point_in_polygon(p, verts):
    inside = False
    n = len(verts)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        if (a[1] > p[1]) != (b[1] > p[1]):
            x_cross = a[0] + (p[1] - a[1]) * (b[0] - a[0]) / (b[1] - a[1])
            if x_cross > p[0]:
                inside = not inside
    return inside


def _halton(index, base):
    f, r = 1.0, 0.0
    while index > 0:
        f /= base
        r += f * (index % base)
        index //= base
    return r


def interior_points(domain, count, offset=HALTON_OFFSET):
    """Deterministic low-discrepancy points strictly inside the polygon,
    from the Halton sequence starting at index `offset` (at least 0)."""
    if offset < 0:
        raise ValueError(f"interior point offset must be nonnegative, got {offset}")
    verts = domain.vertices
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    pts = []
    idx = offset
    while len(pts) < count:
        p = np.array([lo[0] + (hi[0] - lo[0]) * _halton(idx, 2),
                      lo[1] + (hi[1] - lo[1]) * _halton(idx, 3)])
        idx += 1
        if _point_in_polygon(p, verts):
            pts.append(p)
        if idx - offset > 1000 * count:
            raise ValueError("interior sampling failed; degenerate polygon?")
    return np.array(pts)


def boundary_collocation(domain, basis, total):
    """`total` points spread over the edges where some basis function lives.

    Edges on which every basis fan vanishes identically (all fans share the
    corner the edge touches) carry no information and are skipped.
    """
    if not basis:
        raise ValueError("empty basis")
    verts = domain.vertices
    n = len(verts)
    edges = [(j, (j + 1) % n) for j in range(n)]
    active = [e for e in edges if any(e not in fan.edges for fan in basis)]
    if not active:
        raise ValueError("no boundary edges left to collocate")
    lengths = np.array([np.hypot(*(verts[b] - verts[a])) for a, b in active])
    counts = np.maximum(2, np.round(total * lengths / lengths.sum()).astype(int))
    pts = []
    for (a, b), m in zip(active, counts):
        s = (np.arange(m) + 0.5) / m
        pts.append(verts[a] + s[:, None] * (verts[b] - verts[a]))
    return np.vstack(pts)


def _basis_matrix(basis, lam, points):
    """Every fan's values at `points` side by side, one row per point."""
    return np.hstack([fan.evaluate(lam, points) for fan in basis])


def _subspace_smin(M, nb, want_vector=False):
    # high orders decay like J_nu, so equilibrate columns before QR;
    # the span is unchanged and the orthonormalization stays meaningful
    scale = np.linalg.norm(M, axis=0)
    if np.any(scale == 0.0):
        raise ValueError("basis column vanished at every sample point; "
                         "the trial space is ill posed here")
    q, r = la.qr(M / scale, mode="economic")
    d = np.abs(np.diag(r))
    if d.min() <= 1e-13 * d.max():
        raise ValueError("basis block lost rank at the sample points; "
                         "the trial space is ill posed here")
    qb = q[:nb]
    if not want_vector:
        s = la.svd(qb, compute_uv=False)
        return float(s[-1]), None
    u, s, vt = la.svd(qb)
    coeff = la.solve_triangular(r, vt[-1], lower=False) / scale
    return float(s[-1]), coeff


def _indicator(domain, basis, offset):
    """s(lam, want_vector=False) -> (s, coeff) at fixed sample points.

    s.best holds the lambda with the least s so far, that s and its stacked
    matrix, so the coefficient vector at the located minimum reuses it. s
    reads that list through its closure: reading it as s.best would be a
    reference cycle, which keeps the matrix until the cycle collector runs."""
    total = OVERSAMPLE * sum(fan.size for fan in basis)
    bpts = boundary_collocation(domain, basis, total)
    points = np.vstack([bpts, interior_points(domain, len(bpts), offset=offset)])
    best = [None, np.inf, None]

    def s(lam, want_vector=False):
        M = best[2] if lam == best[0] else _basis_matrix(basis, lam, points)
        smin, coeff = _subspace_smin(M, len(bpts), want_vector=want_vector)
        if smin <= best[1]:
            best[:] = lam, smin, M
        return smin, coeff
    s.best = best
    return s


@_one_blas_thread()
def sigma_min_sweep(domain, basis, lambda_grid, offset=HALTON_OFFSET):
    """Subspace-angle indicator s(lambda) over a grid; minima mark eigenvalues.

    `basis` is a list of fans (`corner_basis`). The indicator collocates
    OVERSAMPLE points per basis function on the boundary and as many
    interior points, from the Halton sequence starting at index `offset`.
    Runs on one BLAS thread (`pencil._one_blas_thread`).
    """
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    if np.any(lambda_grid <= 0) or np.any(np.diff(lambda_grid) <= 0):
        raise ValueError("lambda grid must be positive and ascending")
    s = _indicator(domain, basis, offset)
    return [(float(lam), s(lam)[0]) for lam in lambda_grid]


_GOLD = (3.0 - np.sqrt(5.0)) / 2.0


def _minimize(f, lo, hi, width):
    """Brent's safeguarded parabolic descent of f on every bracket
    [lo[i], hi[i]] at once; f maps one abscissa per bracket to values.

    Parabolas are fitted to the sign-preserving square g = f|f|, smooth
    where s(lambda) has a V and where -|u| peaks. A golden step replaces a
    parabolic one that leaves the bracket or is not under half the step
    before last, and no step is shorter than width(lo, hi) / 3. Once every
    bracket has hi - lo <= width, one last unfloored step goes to the bottom
    of the parabola through the three best points, which the square
    resolves far below the width. Returns (x, f(x)), the best point of each
    bracket; a value that does not compare (nan) counts as worse.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    x = w = v = a + _GOLD * (b - a)
    fx = f(x)
    gx = gw = gv = fx * np.abs(fx)
    d = e = np.zeros_like(x)
    closed = False
    while True:
        tol = width(a, b) / 3.0
        live = b - a > 3.0 * tol
        r, q = (x - w) * (gx - gv), (x - v) * (gx - gw)
        p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
        p, q = np.where(q > 0, -p, p), np.abs(q)
        if not live.any() and not closed:
            closed = True
            u = x + p / np.where(q > 0, q, np.inf)
            live = (u > a) & (u < b) & (u != x)
        elif not closed:
            m = 0.5 * (a + b)
            para = ((np.abs(e) > tol) & (np.abs(p) < np.abs(0.5 * q * e))
                    & (p > q * (a - x)) & (p < q * (b - x)))
            e = np.where(para, d, np.where(x >= m, a - x, b - x))
            d = np.where(para, p / np.where(para, q, 1.0), _GOLD * e)
            # a parabolic point within two least steps of an end moves one
            # least step from x toward the middle instead
            d = np.where(para & ((x + d - a < 2 * tol) | (b - x - d < 2 * tol)),
                         np.copysign(tol, m - x), d)
            u = x + np.where(np.abs(d) >= tol, d, np.copysign(tol, d))
        if not live.any():
            return x, fx
        u = np.where(live, u, x)
        fu = f(u)
        gu = fu * np.abs(fu)
        best = live & (gu <= gx)
        worse, right = live & ~best, u >= x
        a = np.where(best & right, x, np.where(worse & ~right, u, a))
        b = np.where(best & ~right, x, np.where(worse & right, u, b))
        to_w = best | worse & ((gu <= gw) | (w == x))
        to_v = worse & ~to_w & ((gu <= gv) | (v == x) | (v == w))
        v = np.where(to_w, w, np.where(to_v, u, v))
        gv = np.where(to_w, gw, np.where(to_v, gu, gv))
        w = np.where(best, x, np.where(to_w, u, w))
        gw = np.where(best, gx, np.where(to_w, gu, gw))
        x, gx, fx = np.where(best, u, x), np.where(best, gu, gx), np.where(best, fu, fx)


@_one_blas_thread()
def refine_minimum(domain, basis, bracket, offset=HALTON_OFFSET):
    """Minimum of s(lambda) in a bracket, by `_minimize` to a width of
    max(REFINE_RTOL, REFINE_SRATIO * s_best) relative, s_best the
    indicator's least s so far: 12-13 indicator calls on the square, where
    s reaches rounding level and the width stays REFINE_RTOL, and 13 and 10
    on gww-a's first and tenth.

    Where s_best is above rounding level it sets how well lambda_h is
    known: the FHM radius is about sqrt(2) lambda epsilon, and epsilon is
    6-13 times s_best on gww-a, so a bracket under 1e-2 s_best lambda sits
    far inside the interval, and narrowing it further only resolves the
    rounding noise in s.

    `basis` and `offset` fix the indicator as in `sigma_min_sweep`. Returns
    (lambda_h, coefficients): lambda_h is the best point evaluated, and the
    coefficient vector is normalized to unit L2 norm over the polygon
    (degree-5 quadrature on a level-L2_LEVEL triangulation). A bracket
    without an interior minimum of s is rejected. Runs on one BLAS thread
    (`pencil._one_blas_thread`).
    """
    a, b = float(bracket[0]), float(bracket[1])
    if not 0 < a < b:
        raise ValueError("bracket must be positive and increasing")
    s = _indicator(domain, basis, offset)

    def s_of(lams):
        return np.array([s(lam)[0] for lam in lams])

    def width(lo, hi):
        return max(REFINE_RTOL, REFINE_SRATIO * s.best[1]) * hi

    sa, sb = s_of([a, b])
    x, _ = _minimize(s_of, [a], [b], width)
    lam_h = float(x[0])
    s_min, coeff = s(lam_h, want_vector=True)
    if s_min >= min(sa, sb) - 1e-12:
        raise ValueError(f"no interior minimum of s in [{a:g}, {b:g}] "
                         f"(s = {s_min:.3e} vs endpoints {sa:.3e}, {sb:.3e})")
    coeff = coeff / _l2_norm(domain, basis, lam_h, coeff)
    return lam_h, coeff


def evaluate_solution(basis, lam, coeff, points):
    """Trial function value at arbitrary points."""
    if not basis:
        raise ValueError("empty basis")
    return _basis_matrix(basis, lam, points) @ coeff


def _l2_norm(domain, basis, lam, coeff):
    mesh = build_mesh(domain, L2_LEVEL)
    p = mesh.vertices[mesh.triangles]
    areas = mesh.areas()
    total = 0.0
    for lamq, w in zip(_Q5_BARY, _Q5_W):
        x = np.einsum("q,tqd->td", lamq, p)
        u = evaluate_solution(basis, lam, coeff, x)
        total += np.sum(w * areas * u**2)
    return float(np.sqrt(total))


class Enclosure:
    """Interval around a located eigenvalue from the boundary residual."""

    def __init__(self, lambda_h, epsilon):
        if not 0 <= epsilon < 1:
            raise ValueError("boundary sup estimate must lie in [0, 1)")
        self.lambda_h = float(lambda_h)
        self.epsilon = float(epsilon)
        self.radius = float(lambda_h * (np.sqrt(2.0) * epsilon + epsilon**2)
                            / (1.0 - epsilon**2))
        self.lower = self.lambda_h - self.radius
        self.upper = self.lambda_h + self.radius
        self.method = "fhm"
        # sup norm is sampled and the L2 norm is quadrature-based, so the
        # interval is a floating-point evaluation, not a certified bound
        self.caveat = True

    def __contains__(self, value):
        return self.lower <= value <= self.upper

    def __repr__(self):
        return (f"Enclosure[{self.method}]({self.lower:.9g}, {self.upper:.9g}; "
                f"eps={self.epsilon:.3g}, caveat={self.caveat})")


def _boundary_pieces(domain):
    """(count, at): at(piece, t) maps piece indices and parameters t in
    [0, 1] to boundary points; a piece is a polygon edge or a whole circle."""
    if domain.kind == "polygon":
        a = domain.vertices
        step = np.roll(a, -1, axis=0) - a
        return len(a), lambda k, t: a[k] + t[:, None] * step[k]
    c = np.array([c for c, _, _ in domain.circles])
    r = np.array([r for _, r, _ in domain.circles])
    return len(c), lambda k, t: c[k] + r[k, None] * np.column_stack(
        [np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)])


def _boundary_sup(domain, basis, lam, coeff):
    """Largest |u| over SUP_SAMPLES samples per piece, both ends included,
    with every sampled local maximum of at least half the sampled sup
    refined by `_minimize` on -|u| to a width of SUP_TOL in the piece
    parameter.

    A lower local maximum is left alone: |u| cannot double between two
    neighbouring samples where the samples resolve it at all.
    """
    count, at = _boundary_pieces(domain)
    t = np.linspace(0.0, 1.0, SUP_SAMPLES)
    u = np.abs([evaluate_solution(basis, lam, coeff, at(np.full(t.size, k), t))
                for k in range(count)])
    sup = float(u.max())
    pad = np.pad(u, ((0, 0), (1, 1)), constant_values=-1.0)
    peak = (pad[:, 1:-1] > pad[:, :-2]) & (pad[:, 1:-1] >= pad[:, 2:])
    pieces, peaks = np.nonzero(peak & (u >= 0.5 * sup))

    def minus_u(ts):
        return -np.abs(evaluate_solution(basis, lam, coeff, at(pieces, ts)))

    _, least = _minimize(minus_u, t[np.maximum(peaks - 1, 0)],
                         t[np.minimum(peaks + 1, t.size - 1)],
                         lambda a, b: SUP_TOL)
    return max(sup, float(-least.min()))


@_one_blas_thread()
def fhm_enclosure(domain, lambda_h, coeff, basis):
    """A-posteriori interval for an L2-normalized candidate eigenfunction.

    The FHM theorem takes epsilon = sqrt|Omega| * sup over the boundary of
    |u|, which does not change when the domain is dilated. Runs on one BLAS
    thread (`pencil._one_blas_thread`).
    """
    eps = np.sqrt(domain.area()) * _boundary_sup(domain, basis, lambda_h, coeff)
    if eps >= 1.0:
        raise ValueError(f"sqrt|Omega| * boundary sup = {eps:.3g} is not below 1; "
                         "candidate is not eigenfunction-like")
    return Enclosure(lambda_h, eps)
