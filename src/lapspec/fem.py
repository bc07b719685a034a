"""P1, P2, and Crouzeix-Raviart assembly plus the eigenvalue drives.

Stiffness takes the 3-midpoint rule (exact: gradients are at most linear),
mass a 7-point degree-5 rule (exact for the unit weight, fifth-order for the
radial one). Each form is one np.einsum (no BLAS call) of per-triangle
factors, (area g_a.g_b)[t, 9] or (area w_q weight(x_q))[t, Q], with a
constant reference table, sum_q w_q c_q (x) c_q or v_q (x) v_q, for P1, P2
and CR alike. Boundary mass is exact edgewise. Dirichlet constraints are
imposed by dof elimination so every pencil stays symmetric definite.
"""
import numpy as np
import scipy.sparse as sp

from . import pencil as pen
from .geometry import triangulate, refine

KINDS = ("P1", "P2", "CR")

# degree-5 rule on the reference triangle: centroid + two symmetric orbits
_Q5_A = (6.0 - np.sqrt(15.0)) / 21.0
_Q5_B = (6.0 + np.sqrt(15.0)) / 21.0
_Q5_BARY = np.array(
    [[1 / 3, 1 / 3, 1 / 3]]
    + [[_Q5_A, _Q5_A, 1 - 2 * _Q5_A], [_Q5_A, 1 - 2 * _Q5_A, _Q5_A],
       [1 - 2 * _Q5_A, _Q5_A, _Q5_A]]
    + [[_Q5_B, _Q5_B, 1 - 2 * _Q5_B], [_Q5_B, 1 - 2 * _Q5_B, _Q5_B],
       [1 - 2 * _Q5_B, _Q5_B, _Q5_B]])
_Q5_W = np.array([9 / 40]
                 + [(155.0 - np.sqrt(15.0)) / 1200.0] * 3
                 + [(155.0 + np.sqrt(15.0)) / 1200.0] * 3)

# midpoint rule, exact on quadratics
_QMID_BARY = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
_QMID_W = np.array([1 / 3, 1 / 3, 1 / 3])


def genus2_weight(points):
    """Smooth radial mass coefficient w(r) = 4 / (1 + r^2)^2."""
    r2 = (np.asarray(points) ** 2).sum(axis=-1)
    return 4.0 / (1.0 + r2) ** 2


class FemSpace:
    """Finite element space on a mesh with Dirichlet dofs eliminated later.

    Dof numbering: P1 uses vertex indices; P2 appends edge midpoints after
    the vertices; CR uses edge indices alone, in the mesh's edge numbering.
    `constrained_markers` names the boundary markers whose edges carry the
    essential condition.
    """

    def __init__(self, kind, mesh, constrained_markers=()):
        if kind not in KINDS:
            raise ValueError(f"unknown element kind {kind!r}")
        self.kind = kind
        self.mesh = mesh
        nv, ne = mesh.n_vertices, len(mesh.edges)
        # boundary_dofs: the trace dofs of each boundary edge, P1 [a, b],
        # P2 [a, b, nv + e], CR [e]
        if kind == "P1":
            self.n_dofs = nv
            self.cell_dofs = mesh.triangles
            self.boundary_dofs = mesh.boundary_edges
        elif kind == "P2":
            self.n_dofs = nv + ne
            self.cell_dofs = np.hstack([mesh.triangles, nv + mesh.tri_edges])
            self.boundary_dofs = np.column_stack([mesh.boundary_edges,
                                                  nv + mesh.boundary_edge_index])
        else:
            self.n_dofs = ne
            self.cell_dofs = mesh.tri_edges
            self.boundary_dofs = mesh.boundary_edge_index[:, None]
        self.on_boundary = np.zeros(self.n_dofs, dtype=bool)
        self.on_boundary[self.boundary_dofs] = True
        self.constrained = np.zeros(self.n_dofs, dtype=bool)
        essential = np.isin(mesh.markers, constrained_markers)
        self.constrained[self.boundary_dofs[essential]] = True
        self.free = np.flatnonzero(~self.constrained)

    def _geometry(self):
        area = self.mesh.areas()
        det = 2.0 * area
        p = self.mesh.vertices[self.mesh.triangles]
        j11 = p[:, 1, 0] - p[:, 0, 0]
        j12 = p[:, 2, 0] - p[:, 0, 0]
        j21 = p[:, 1, 1] - p[:, 0, 1]
        j22 = p[:, 2, 1] - p[:, 0, 1]
        # gradients of the barycentric coordinates, shape (t, 3, 2)
        g = np.empty((len(det), 3, 2))
        g[:, 1, 0] = j22 / det
        g[:, 1, 1] = -j12 / det
        g[:, 2, 0] = -j21 / det
        g[:, 2, 1] = j11 / det
        g[:, 0] = -g[:, 1] - g[:, 2]
        return p, area, g


def _shape(kind, lam):
    """Basis values (nd,) at barycentric point `lam`, and basis gradients
    (nd, 3) as coefficients of the three barycentric gradients."""
    eye = np.eye(3)
    if kind == "P1":
        return lam, eye
    if kind == "CR":
        return 1.0 - 2.0 * lam, -2.0 * eye
    j, k = [1, 2, 0], [2, 0, 1]   # P2 local edge i joins vertices j[i], k[i]
    values = np.concatenate([lam * (2 * lam - 1), 4 * lam[j] * lam[k]])
    grad = np.concatenate([(4 * lam - 1)[:, None] * eye,
                           4 * (lam[k][:, None] * eye[j] + lam[j][:, None] * eye[k])])
    return values, grad


def _scatter(cell_dofs, element, n):
    nd = cell_dofs.shape[1]
    rows = np.repeat(cell_dofs, nd, axis=1).ravel()
    cols = np.tile(cell_dofs, (1, nd)).ravel()
    mat = sp.coo_matrix((element.ravel(), (rows, cols)), shape=(n, n))
    return mat.tocsr()


def assemble_stiffness(space):
    """Stiffness matrix; symmetric, kernel = constants when unconstrained."""
    _, area, g = space._geometry()
    c = np.array([_shape(space.kind, lam)[1] for lam in _QMID_BARY])
    R = np.einsum("q,qia,qjb->abij", _QMID_W, c, c).reshape(9, -1)
    G = np.einsum("tad,tbd,t->tab", g, g, area).reshape(len(area), 9)
    return _scatter(space.cell_dofs, np.einsum("tk,kl->tl", G, R), space.n_dofs)


def assemble_mass(space, weight="unit"):
    """Mass matrix for the weight 1 or `genus2_weight`; exact for 1."""
    if weight not in ("unit", "genus2"):
        raise ValueError(f"unknown weight {weight!r}")
    p, area, _ = space._geometry()
    v = np.array([_shape(space.kind, lam)[0] for lam in _Q5_BARY])
    coef = area[:, None] * _Q5_W
    if weight == "genus2":
        coef *= genus2_weight(np.einsum("qk,tkd->tqd", _Q5_BARY, p))
    vv = np.einsum("qi,qj->qij", v, v).reshape(len(_Q5_W), -1)
    return _scatter(space.cell_dofs, np.einsum("tq,ql->tl", coef, vv), space.n_dofs)


def assemble_boundary_mass(space):
    """Boundary mass on every boundary edge, lifted to the volume dof numbering.

    CR traces jump at boundary vertices, so the CR form is the
    midpoint-lumped one: each edge's length on its edge dof.
    """
    L = space.mesh.edge_lengths()[:, None, None]
    if space.kind == "P1":
        blocks = (L / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
    elif space.kind == "P2":
        blocks = (L / 30.0) * np.array([[4.0, -1.0, 2.0],
                                        [-1.0, 4.0, 2.0],
                                        [2.0, 2.0, 16.0]])
    else:
        blocks = L
    return _scatter(space.boundary_dofs, blocks, space.n_dofs)


class EigenProblemSpec:
    """What to solve: bc, eigenvalue count, element kind, level. The mass
    weight is the domain's (`Domain.weight`)."""

    BCS = ("dirichlet", "neumann", "mixed", "steklov")

    def __init__(self, bc, count, kind="P1", level=0):
        if bc not in self.BCS:
            raise ValueError(f"unknown boundary condition {bc!r}")
        if kind not in KINDS:
            raise ValueError(f"unknown element kind {kind!r}")
        if count < 1:
            raise ValueError("eigenvalue count must be at least 1")
        if level < 0:
            raise ValueError("refinement level must be nonnegative")
        self.bc = bc
        self.count = count
        self.kind = kind
        self.level = level


def build_mesh(domain, level):
    """The domain's triangulation refined `level` times (level >= 0)."""
    if level < 0:
        raise ValueError(f"refinement level must be nonnegative, got {level}")
    mesh = triangulate(domain)
    for _ in range(level):
        mesh = refine(mesh)
    return mesh


def _constrained_markers(bc):
    if bc == "dirichlet":
        return ("dirichlet", "neumann")
    if bc == "mixed":
        return ("dirichlet",)
    return ()


def solve_fem(domain, spec, mesh=None):
    """Eigenvalues of the requested problem on a refined triangulation.

    The boundary condition picks the pencil: (K, M) on the free dofs for
    Dirichlet/mixed, on all dofs for Neumann, and (K, B) with the boundary
    mass B for Steklov, whose infinite interior modes drop out. Every pencil
    goes through one Lanczos solve, shifted by -1/|Omega_h| (-1/|dOmega_h|
    for Steklov) so that the shift scales with the spectrum. Neumann and
    Steklov values within 1e-9 of that shift's size are the zero mode.
    The mass weight is `domain.weight`. flags["pair_residuals"] holds each
    pair's own-term residual from the gate, nan for the zero mode, where
    that ratio divides two rounding-level norms. flags["matvecs"] counts
    the Lanczos operator applications, 0 when the pencil is solved dense.
    """
    if domain.weight == "genus2" and spec.bc == "steklov":
        raise ValueError("the radial weight applies to volume mass terms only")
    if mesh is None:
        mesh = build_mesh(domain, spec.level)
    space = FemSpace(spec.kind, mesh, _constrained_markers(spec.bc))
    K = assemble_stiffness(space)
    flags = {"bc": spec.bc, "level": mesh.level, "weight": domain.weight}
    method = f"fem-{spec.kind.lower()}"
    free = space.free

    if spec.bc == "steklov":
        B = assemble_boundary_mass(space)
        if spec.kind == "CR":
            method = "fem-cr-midpoint"
        n_boundary = int(space.on_boundary.sum())
        if spec.count > n_boundary:
            raise ValueError(f"only {n_boundary} boundary dofs at level {mesh.level}: "
                             f"cannot return {spec.count} finite Steklov eigenvalues")
        shift = -1.0 / mesh.edge_lengths().sum()
    else:
        B = assemble_mass(space, domain.weight)
        shift = -1.0 / mesh.areas().sum()
        if spec.count > len(free):
            raise ValueError(f"only {len(free)} free dofs at level {mesh.level}: "
                             f"cannot return {spec.count} eigenvalues")

    def sub(A):  # Neumann and Steklov constrain nothing: pass A unsliced
        return A[free][:, free] if len(free) < space.n_dofs else A

    (vals, vfree, flags["residual"], flags["pair_residuals"],
     flags["matvecs"]) = pen.solve_lowest(sub(K), sub(B), spec.count, shift)
    if spec.bc in ("neumann", "steklov"):
        zero = np.abs(vals) <= 1e-9 * abs(shift)
        vals[zero] = 0.0
        flags["pair_residuals"][zero] = np.nan
        flags["zero_mode"] = bool(vals[0] == 0.0)
    vecs = np.zeros((space.n_dofs, spec.count))
    vecs[free] = vfree
    spectrum = pen.Spectrum(vals, method, mesh.h, getattr(domain, "name", None),
                            vectors=vecs, flags=flags)
    spectrum.space = space
    return spectrum
