import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import dblquad

from lapspec import fem, geometry, reference
from lapspec.fem import (EigenProblemSpec, FemSpace, assemble_boundary_mass,
                         assemble_mass, assemble_stiffness, build_mesh,
                         genus2_weight, solve_fem)
from lapspec.geometry import Domain, Mesh

from conftest import shared_mesh, shared_solve


def _reference_triangle():
    return Mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)],
                [(0, 1), (1, 2), (2, 0)], ["dirichlet"] * 3)


def test_p1_element_stiffness_by_hand():
    space = FemSpace("P1", _reference_triangle())
    K = assemble_stiffness(space).toarray()
    expected = 0.5 * np.array([[2.0, -1.0, -1.0],
                               [-1.0, 1.0, 0.0],
                               [-1.0, 0.0, 1.0]])
    assert np.allclose(K, expected, atol=1e-14)


def test_p1_element_mass_by_hand():
    space = FemSpace("P1", _reference_triangle())
    M = assemble_mass(space).toarray()
    expected = (np.ones((3, 3)) + np.eye(3)) / 24.0
    assert np.allclose(M, expected, atol=1e-15)


def test_cr_element_stiffness_and_mass_by_hand():
    # the CR basis function of local edge i is 1 - 2 lambda_i: its gradients
    # are -2 times the P1 ones, and it is orthogonal to the other two
    mesh = _reference_triangle()
    space = FemSpace("CR", mesh)
    K = assemble_stiffness(space).toarray()
    M = assemble_mass(space).toarray()
    p1 = 0.5 * np.array([[2.0, -1.0, -1.0],
                         [-1.0, 1.0, 0.0],
                         [-1.0, 0.0, 1.0]])
    expected = np.zeros((3, 3))
    dofs = mesh.tri_edges[0]
    expected[np.ix_(dofs, dofs)] = 4.0 * p1
    assert np.allclose(K, expected, atol=1e-14)
    assert np.allclose(M, np.eye(3) / 6.0, atol=1e-15)


def test_boundary_mass_edge_block_by_hand():
    space = FemSpace("P1", _reference_triangle())
    B = assemble_boundary_mass(space).toarray()
    # unit edge (0,1) contributes (1/6)[[2,1],[1,2]] to those two dofs
    assert B[0, 1] == pytest.approx(1.0 / 6.0)
    assert B[1, 2] == pytest.approx(np.sqrt(2) / 6.0)
    # row mass adds up to the trace integral of 1 on each edge
    perim = 2.0 + np.sqrt(2.0)
    assert np.sum(B) == pytest.approx(perim, rel=1e-14)


@pytest.mark.parametrize("kind", ["P1", "P2", "CR"])
def test_stiffness_annihilates_constants(kind, gww_a):
    space = FemSpace(kind, build_mesh(gww_a, 1))
    K = assemble_stiffness(space)
    ones = np.ones(space.n_dofs)
    assert np.max(np.abs(K @ ones)) < 1e-12 * np.abs(K.data).max()
    skew = K - K.T
    assert skew.nnz == 0 or np.max(np.abs(skew.data)) < 1e-12


@pytest.mark.parametrize("kind", ["P1", "P2", "CR"])
def test_unit_mass_total_equals_area(kind, gww_a):
    space = FemSpace(kind, build_mesh(gww_a, 1))
    M = assemble_mass(space)
    ones = np.ones(space.n_dofs)
    # partition of unity: each element's basis functions add up to 1
    assert ones @ (M @ ones) == pytest.approx(gww_a.area(), rel=1e-13)


def _shape_on_triangles(kind, lam, g):
    """Oracle basis: values (nd,) and gradients (t, nd, 2) at barycentric
    point `lam`, from the barycentric gradients `g` (t, 3, 2)."""
    if kind == "P1":
        return lam, g
    if kind == "CR":
        return 1.0 - 2.0 * lam, -2.0 * g
    j, k = [1, 2, 0], [2, 0, 1]   # P2 local edge i joins vertices j[i], k[i]
    values = np.concatenate([lam * (2 * lam - 1), 4 * lam[j] * lam[k]])
    grad = np.concatenate([(4 * lam - 1)[:, None] * g,
                           4 * (lam[k][:, None] * g[:, j]
                                + lam[j][:, None] * g[:, k])], axis=1)
    return values, grad


def _stiffness_by_quadrature(space):
    """Oracle: the element stiffness summed point by point over the midpoint
    rule, each point's basis gradients formed on every triangle."""
    p, area, g = space._geometry()
    nd = space.cell_dofs.shape[1]
    ke = np.zeros((len(area), nd, nd))
    for lam, w in zip(fem._QMID_BARY, fem._QMID_W):
        _, grad = _shape_on_triangles(space.kind, lam, g)
        ke += w * np.einsum("tid,tjd,t->tij", grad, grad, area)
    return fem._scatter(space.cell_dofs, ke, space.n_dofs)


def _mass_by_quadrature(space, weight):
    """Oracle: the element mass summed point by point over the degree-5 rule."""
    p, area, g = space._geometry()
    nd = space.cell_dofs.shape[1]
    ke = np.zeros((len(area), nd, nd))
    for lam, w in zip(fem._Q5_BARY, fem._Q5_W):
        v, _ = _shape_on_triangles(space.kind, lam, g)
        coef = w * area
        if weight == "genus2":
            coef *= genus2_weight(np.einsum("q,tqd->td", lam, p))
        ke += coef[:, None, None] * np.outer(v, v)
    return fem._scatter(space.cell_dofs, ke, space.n_dofs)


def _max_rel_diff(X, Y):
    return abs(X - Y).max() / abs(Y).max()


@pytest.mark.parametrize("weight", ["unit", "genus2"])
@pytest.mark.parametrize("kind", ["P1", "P2", "CR"])
def test_reference_contraction_matches_the_quadrature_loops(kind, weight, gww_a):
    space = FemSpace(kind, build_mesh(gww_a, 3))
    assert _max_rel_diff(assemble_stiffness(space),
                         _stiffness_by_quadrature(space)) <= 1e-14
    assert _max_rel_diff(assemble_mass(space, weight),
                         _mass_by_quadrature(space, weight)) <= 1e-14


def test_genus2_mass_total_on_square(square):
    # reference value from adaptive quadrature of 4/(1+x^2+y^2)^2
    ref, err = dblquad(lambda y, x: genus2_weight(np.array([[x, y]]))[0],
                       0.0, 1.0, 0.0, 1.0, epsabs=1e-13)
    space = FemSpace("P2", build_mesh(square, 3))
    M = assemble_mass(space, weight="genus2")
    ones = np.ones(space.n_dofs)
    assert ones @ (M @ ones) == pytest.approx(ref, rel=1e-8)


def test_genus2_mass_total_on_inscribed_disk_polygon():
    # exact disk integral of the radial weight over |x| < 1 is 2*pi;
    # a fine inscribed polygon reproduces it up to the boundary sliver
    t = 2 * np.pi * np.arange(512) / 512
    dom = Domain("polygon", np.column_stack([np.cos(t), np.sin(t)]),
                 weight="genus2")
    space = FemSpace("P1", build_mesh(dom, 3))
    M = assemble_mass(space, weight="genus2")
    ones = np.ones(space.n_dofs)
    total = ones @ (M @ ones)
    assert total < 2 * np.pi
    assert total == pytest.approx(2 * np.pi, abs=1e-3)


@pytest.mark.parametrize("kind", ["P1", "P2"])
def test_boundary_mass_integrates_x_squared(kind, gww_a):
    # u = x lies in both spaces and the boundary mass is exact edgewise, so
    # u^T B u is the exact boundary integral of x^2
    mesh = build_mesh(gww_a, 1)
    space = FemSpace(kind, mesh)
    x = mesh.vertices[:, 0]
    if kind == "P2":
        x = np.concatenate([x, x[mesh.edges].mean(axis=1)])
    B = assemble_boundary_mass(space)
    xa, xb = mesh.vertices[mesh.boundary_edges, 0].T
    exact = np.sum(mesh.edge_lengths() * (xa * xa + xa * xb + xb * xb) / 3.0)
    assert x @ (B @ x) == pytest.approx(exact, rel=1e-13)


def test_cr_boundary_mass_needs_midpoint_variant(square):
    # the CR boundary mass is the midpoint-lumped one: each boundary edge's
    # length on its edge dof
    space = FemSpace("CR", build_mesh(square, 1))
    B = assemble_boundary_mass(space)
    assert B.sum() == pytest.approx(4.0, rel=1e-14)
    assert (B - B.T).nnz == 0


def test_problem_spec_validation(square):
    with pytest.raises(ValueError):
        EigenProblemSpec("robin", 4)
    with pytest.raises(ValueError):
        EigenProblemSpec("dirichlet", 0)
    with pytest.raises(ValueError):
        EigenProblemSpec("dirichlet", 4, kind="P3")
    with pytest.raises(ValueError):
        EigenProblemSpec("dirichlet", 4, level=-1)
    # the weight belongs to the domain, so its Steklov rejection is the solve's
    weighted = Domain("polygon", square.vertices, weight="genus2")
    with pytest.raises(ValueError, match="volume mass terms only"):
        solve_fem(weighted, EigenProblemSpec("steklov", 4, level=1))


@pytest.mark.parametrize("level", [-1, -2])
def test_build_mesh_rejects_a_negative_level(square, level):
    # range(level) is empty for a negative level, which used to return the
    # level-0 mesh
    with pytest.raises(ValueError, match="nonnegative"):
        build_mesh(square, level)


def test_solve_reads_the_weight_from_the_domain(tmp_path):
    f = tmp_path / "square.dom"
    f.write_text("v 0 0\nv 1 0\nv 1 1\nv 0 1\nweight genus2\n")
    dom = geometry.load_domain(str(f))
    got = solve_fem(dom, EigenProblemSpec("dirichlet", 3, kind="P2", level=3))
    assert got.flags["weight"] == "genus2"
    # dense reference on the same space with the weighted mass
    space = got.space
    free = space.free
    K = assemble_stiffness(space)[free][:, free].toarray()
    M = assemble_mass(space, "genus2")[free][:, free].toarray()
    want = scipy.linalg.eigh(K, M, eigvals_only=True)[:3]
    assert np.max(np.abs(got.eigenvalues - want) / want) < 1e-9
    # well away from the unit-weight values 2 pi^2, 5 pi^2, 5 pi^2
    assert got.eigenvalues == pytest.approx([10.43, 25.40, 28.26], abs=0.01)


# ---------------------------------------------------------------------------
# solves against separated-variable references
# ---------------------------------------------------------------------------

def test_square_dirichlet_p2_converges(square):
    exact = reference.rectangle_spectra("dirichlet", count=5).values
    spec = shared_solve("unit-square", "dirichlet", "P2", 4, 5)
    assert np.max(np.abs(spec.eigenvalues - exact) / exact) < 5e-4


def test_square_neumann_zero_mode(square):
    spec = shared_solve("unit-square", "neumann", "P1", 4, 5)
    exact = reference.rectangle_spectra("neumann", count=5).values
    assert spec[0] == 0.0
    assert spec.flags["zero_mode"] is True
    assert np.max(np.abs(spec.eigenvalues[1:] - exact[1:]) / exact[1:]) < 2e-2


def test_mixed_square_first_eigenvalue():
    spec = shared_solve("dn-square", "mixed", "P2", 3, 3)
    exact = reference.rectangle_spectra("mixed", neumann_sides=("top",), count=3).values
    assert spec[0] == pytest.approx(1.25 * np.pi**2, rel=1e-4)
    assert np.max(np.abs(spec.eigenvalues - exact) / exact) < 1e-3


def test_steklov_square_zero_mode_constant_vector(square):
    spec = shared_solve("unit-square", "steklov", "P1", 2, 4)
    assert spec[0] == 0.0
    assert spec.flags["zero_mode"] is True
    v = spec.vectors[:, 0]
    assert np.max(np.abs(v - v.mean())) <= 1e-8 * np.linalg.norm(v)


def test_steklov_count_capped_by_boundary_dofs(square):
    with pytest.raises(ValueError):
        solve_fem(square, EigenProblemSpec("steklov", 500, level=1))


def test_dirichlet_count_capped_by_free_dofs(square):
    # level-1 square has a single interior vertex
    with pytest.raises(ValueError):
        solve_fem(square, EigenProblemSpec("dirichlet", 4, level=1))


def test_conforming_dirichlet_monotone_under_refinement():
    # nested conforming spaces: every eigenvalue can only fall when refining
    for kind in ("P1", "P2"):
        prev = None
        for level in (2, 3, 4):
            vals = shared_solve("unit-square", "dirichlet", kind, level, 4).eigenvalues
            if prev is not None:
                assert np.all(vals <= prev + 1e-10)
            prev = vals


def test_cr_below_p2_below_p1_on_square_dirichlet():
    cr = shared_solve("unit-square", "dirichlet", "CR", 3, 4).eigenvalues
    p2 = shared_solve("unit-square", "dirichlet", "P2", 3, 4).eigenvalues
    p1 = shared_solve("unit-square", "dirichlet", "P1", 3, 4).eigenvalues
    assert np.all(cr <= p2 + 1e-10)
    assert np.all(p2 <= p1 + 1e-10)


def test_cr_below_p2_below_p1_on_gww_steklov(gww_steklov):
    for level in (3, 4):
        cr = gww_steklov("gww-a", "CR", level).eigenvalues[1:5]
        p2 = gww_steklov("gww-a", "P2", level).eigenvalues[1:5]
        p1 = gww_steklov("gww-a", "P1", level).eigenvalues[1:5]
        assert np.all(cr <= p2 + 1e-10)
        assert np.all(p2 <= p1 + 1e-10)


def test_gww_steklov_p1_levels_bracket_published_values(gww_steklov):
    # P1 Steklov values decrease with refinement toward the limit, so the
    # published four-digit values must sit between consecutive levels
    published = np.array([0.2845, 0.8014, 1.0980, 1.7331])
    hi = gww_steklov("gww-a", "P1", 4).eigenvalues[1:5]
    lo = gww_steklov("gww-a", "P1", 5).eigenvalues[1:5]
    assert np.all(lo <= published + 5e-5)
    assert np.all(published <= hi + 5e-5)


def test_dirichlet_scaling_covariance():
    base = shared_solve("unit-square", "dirichlet", "P1", 2, 4).eigenvalues
    big = shared_solve("unit-square", "dirichlet", "P1", 2, 4, scale=2.0).eigenvalues
    assert np.max(np.abs(big - base / 4.0) / base) < 1e-9


def test_steklov_scaling_covariance():
    base = shared_solve("unit-square", "steklov", "P1", 2, 4).eigenvalues[1:]
    big = shared_solve("unit-square", "steklov", "P1", 2, 4, scale=2.0).eigenvalues[1:]
    assert np.max(np.abs(big - base / 2.0) / base) < 1e-9


def test_weighted_bracketing_trend_on_square():
    # with the radial weight the conforming values still fall with refinement
    # while the nonconforming ones climb from below
    weighted = Domain("polygon", geometry.load_domain("unit-square").vertices,
                      weight="genus2")
    p1, cr = [], []
    for level in (2, 3, 4):
        sp_p1 = fem.solve_fem(weighted, EigenProblemSpec("dirichlet", 3, kind="P1",
                                                         level=level))
        sp_cr = fem.solve_fem(weighted, EigenProblemSpec("dirichlet", 3, kind="CR",
                                                         level=level))
        p1.append(sp_p1.eigenvalues)
        cr.append(sp_cr.eigenvalues)
    for a, b in zip(p1[:-1], p1[1:]):
        assert np.all(b <= a + 1e-10)
    for a, b in zip(cr[:-1], cr[1:]):
        assert np.all(b >= a - 1e-10)
    for a, b in zip(cr, p1):
        assert np.all(a <= b + 1e-10)


def test_spectrum_provenance_fields():
    spec = shared_solve("unit-square", "dirichlet", "P1", 2, 3)
    assert spec.method == "fem-p1"
    assert spec.domain == "unit-square"
    assert spec.param == pytest.approx(np.sqrt(2) / 4)
    assert spec.flags["level"] == 2
    cr = shared_solve("unit-square", "steklov", "CR", 2, 3)
    assert cr.method == "fem-cr-midpoint"


# ---------------------------------------------------------------------------
# one eigensolver path: scale invariance, zero modes, residual gate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bc", ["dirichlet", "neumann", "steklov"])
@pytest.mark.parametrize("kind,level", [("P1", 6), ("P2", 3)])
def test_spectrum_is_scale_invariant(square, bc, kind, level):
    # lambda(s Omega) = lambda(Omega) / s^2 and sigma(s Omega) = sigma(Omega) / s;
    # P1 at level 6 has 4225 dofs and P2 at level 3 has 289
    power = 1 if bc == "steklov" else 2
    spec = EigenProblemSpec(bc, 6, kind=kind, level=level)
    base = solve_fem(square, spec).eigenvalues
    for s in (1e-3, 1e3):
        vals = solve_fem(square.scaled(s), spec).eigenvalues * s**power
        assert np.max(np.abs(vals - base) / np.maximum(np.abs(base), 1.0)) < 1e-9
        assert np.all((vals == 0.0) == (base == 0.0))


@pytest.mark.parametrize("bc,scales", [("neumann", (1e-5, 1e5)),
                                       ("steklov", (1e-10, 1e10))])
def test_zero_mode_threshold_is_scale_relative(square, bc, scales):
    # only the constant mode is zero at any scale; the first nonzero values
    # (pi^2 and about 1.3765 on the unit square) keep their scaled size
    power = 1 if bc == "steklov" else 2
    spec = EigenProblemSpec(bc, 4, kind="P2", level=3)
    base = solve_fem(square, spec)
    assert base[0] == 0.0 and np.all(base.eigenvalues[1:] > 1.0)
    for s in scales:
        got = solve_fem(square.scaled(s), spec)
        assert got[0] == 0.0
        assert got.flags["zero_mode"] is True
        scaled = got.eigenvalues[1:] * s**power
        assert np.max(np.abs(scaled - base.eigenvalues[1:])
                      / base.eigenvalues[1:]) < 1e-9


@pytest.mark.parametrize("bc", ["dirichlet", "neumann", "mixed", "steklov"])
@pytest.mark.parametrize("kind", ["P1", "P2", "CR"])
def test_every_fem_spectrum_passes_the_residual_gate(bc, kind):
    name = "dn-square" if bc == "mixed" else "gww-a"
    spec = shared_solve(name, bc, kind, 2, 4)
    assert 0.0 <= spec.flags["residual"] <= 1e-9
    # B-normalized vectors
    space = spec.space
    B = assemble_boundary_mass(space) if bc == "steklov" else assemble_mass(space)
    gram = spec.vectors.T @ (B @ spec.vectors)
    assert np.max(np.abs(np.diag(gram) - 1.0)) < 1e-10


def test_lanczos_stops_at_the_residual_gate_on_the_drum():
    # gww-a, P2 Dirichlet at level 5: ARPACK run to machine precision takes
    # 67 operator applications, stopped at the gate 55
    spec = shared_solve("gww-a", "dirichlet", "P2", 5, 10)
    assert 0 < spec.flags["matvecs"] <= 60
    assert spec.flags["residual"] <= 1e-9


def test_matvecs_counts_the_solves_with_the_symmetric_factor(gww_a, monkeypatch):
    # ARPACK's mode 2 applies B once per solve with C = A - shift B, so the
    # operator applications that Lanczos counts are the solves with the one
    # symmetric-mode factor of C
    factor = fem.pen.spla.splu
    factors, solves = [], []

    class Counted:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, x):
            solves.append(x.shape)
            return self.lu.solve(x)

    def spy(C, *args, **kwargs):
        factors.append(kwargs["options"])
        return Counted(factor(C, *args, **kwargs))

    monkeypatch.setattr(fem.pen.spla, "splu", spy)
    spec = solve_fem(gww_a, EigenProblemSpec("dirichlet", 10, kind="P2", level=4),
                     mesh=shared_mesh("gww-a", 4))
    assert factors == [{"SymmetricMode": True}]
    assert spec.flags["matvecs"] == len(solves) > 0
    assert set(solves) == {(len(spec.space.free),)}


@pytest.mark.parametrize("bc", ["neumann", "steklov"])
def test_unconstrained_pencil_is_solved_unsliced(bc, gww_a, monkeypatch):
    # every dof is free, so the assembled matrices themselves go to the
    # eigensolver, and the values are bitwise those of the pencil
    # restricted to `free`
    built, seen = [], []
    solve_lowest = fem.pen.solve_lowest

    def keeping(assemble):
        def run(*args):
            built.append(assemble(*args))
            return built[-1]
        return run

    def recording(A, B, k, shift):
        seen.append((A, B, k, shift))
        return solve_lowest(A, B, k, shift)

    for name in ("assemble_stiffness", "assemble_mass", "assemble_boundary_mass"):
        monkeypatch.setattr(fem, name, keeping(getattr(fem, name)))
    monkeypatch.setattr(fem.pen, "solve_lowest", recording)
    spec = fem.solve_fem(gww_a, EigenProblemSpec(bc, 6, kind="P2", level=3))
    (A, B, k, shift), = seen
    assert len(spec.space.free) == spec.space.n_dofs
    assert A is built[0] and B is built[1]
    free = spec.space.free
    vals = solve_lowest(A[free][:, free], B[free][:, free], k, shift)[0]
    vals[np.abs(vals) <= 1e-9 * abs(shift)] = 0.0
    assert np.array_equal(spec.eigenvalues, vals)
