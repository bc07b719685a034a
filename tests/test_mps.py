import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jn_zeros

from lapspec import cli, mps, specfun
from lapspec.geometry import Domain, load_domain
from lapspec.mps import (CornerBasis, Enclosure, boundary_collocation,
                         corner_angles, corner_basis, fhm_enclosure,
                         interior_points, refine_minimum, reentrant_corners,
                         sigma_min_sweep, singular_corners)

from conftest import blas_threads, set_blas_threads, shared_gww_mps, shared_square_mps


# ---------------------------------------------------------------------------
# corner geometry and fans
# ---------------------------------------------------------------------------

def test_square_corner_angles(square):
    assert np.allclose(corner_angles(square), np.pi / 2, atol=1e-14)


def test_gww_corner_classification(gww_a):
    angles = corner_angles(gww_a) / np.pi
    assert np.allclose(angles, [0.5, 0.75, 1.5, 0.25, 0.75, 0.5, 1.5, 0.25],
                       atol=1e-12)
    assert reentrant_corners(gww_a) == [2, 6]
    # pi/angle is an integer at the pi/2 and pi/4 corners, where odd
    # reflection continues eigenfunctions smoothly; everywhere else a fan
    # is required
    assert singular_corners(gww_a) == [1, 2, 4, 6]


def test_fan_orders_and_alpha(square):
    fan = CornerBasis(square, 0, 6)
    assert fan.alpha == pytest.approx(2.0, abs=1e-14)
    assert np.allclose(fan.orders(), [2, 4, 6, 8, 10, 12])


def test_fans_take_two_jv_seeds_per_class_of_orders(square, gww_a, jv_orders):
    # alpha = 4/3 or 2/3 at gww-a's singular corners: three classes of
    # orders, two seeds each; alpha = 2 on the square: one class; an
    # irrational alpha: one seed per order
    pts = interior_points(gww_a, 30)
    for fan in corner_basis(gww_a, 14, corners="singular"):
        jv_orders.clear()
        fan.evaluate(50.0, pts)
        assert sum(jv_orders) == 6
    jv_orders.clear()
    CornerBasis(square, 0, 14).evaluate(50.0, interior_points(square, 30))
    assert sum(jv_orders) == 2
    triangle = Domain("polygon", [(0, 0), (1, 0), (0.3, 0.7)])
    jv_orders.clear()
    CornerBasis(triangle, 0, 14).evaluate(50.0, interior_points(triangle, 30))
    assert sum(jv_orders) == 14


def test_fan_vanishes_on_incident_edges(gww_a):
    fan = CornerBasis(gww_a, 2, 8)  # a reflex corner
    v = gww_a.vertices
    s = np.linspace(0.05, 0.95, 9)[:, None]
    fwd = v[2] + s * (v[3] - v[2])
    bwd = v[1] + s * (v[2] - v[1])
    vals = fan.evaluate(50.0, np.vstack([fwd, bwd]))
    assert np.max(np.abs(vals)) < 1e-12


def test_fan_smooth_across_forward_ray_inside(gww_a):
    # the forward edge ray from the corner re-enters this nonconvex drum;
    # the local angle's branch cut must not fall there
    fan = CornerBasis(gww_a, 1, 5)
    p = np.array([1.75, 0.75])  # interior, on the forward-edge ray of corner 1
    eps = 1e-7
    up = fan.evaluate(30.0, [p + [0, eps]])
    dn = fan.evaluate(30.0, [p - [0, eps]])
    assert np.max(np.abs(up - dn)) < 1e-5


def test_fan_size_and_order_guards(square):
    with pytest.raises(ValueError):
        CornerBasis(square, 0, 0)
    with pytest.raises(ValueError):
        CornerBasis(square, 0, 101)  # top order 202 exceeds the Bessel domain
    with pytest.raises(ValueError):
        CornerBasis(load_domain("unit-disk"), 0, 4)


def test_corner_basis_selection(square, gww_a):
    default = corner_basis(gww_a, 5)
    assert [f.corner for f in default] == [1, 2, 4, 6]
    sing = corner_basis(gww_a, 5, corners="singular")
    assert [f.corner for f in sing] == [1, 2, 4, 6]
    reen = corner_basis(gww_a, 5, corners="reentrant")
    assert [f.corner for f in reen] == [2, 6]
    explicit = corner_basis(gww_a, 5, corners=[4, 6])
    assert [f.corner for f in explicit] == [4, 6]
    with pytest.raises(ValueError):
        corner_basis(square, 5, corners="reentrant")
    # a polygon whose corners are all pi/integer falls back to the widest one
    fallback = corner_basis(square, 5)
    assert len(fallback) == 1 and fallback[0].corner == 0
    assert [f.corner for f in corner_basis(square, 5, corners="singular")] == [0]


@pytest.mark.parametrize("corner", [4, 9, -1])
def test_corner_index_outside_the_polygon_is_rejected(square, corner):
    # an index is not taken modulo the vertex count
    with pytest.raises(ValueError, match="outside 0..3"):
        CornerBasis(square, corner, 6)
    with pytest.raises(ValueError, match="outside 0..3"):
        corner_basis(square, 6, corners=[0, corner])


def test_weighted_polygon_is_rejected(square):
    # the fans solve Delta u + lambda u = 0, the unit weight's equation
    weighted = Domain("polygon", square.vertices, weight="genus2")
    with pytest.raises(ValueError, match="unit weight, not genus2"):
        CornerBasis(weighted, 0, 6)
    with pytest.raises(ValueError, match="unit weight, not genus2"):
        corner_basis(weighted, 6)


def test_repeated_corner_index_is_rejected(gww_a):
    # two fans at one corner would span the same functions twice
    with pytest.raises(ValueError, match="repeat a corner"):
        corner_basis(gww_a, 5, corners=[1, 1])
    with pytest.raises(ValueError, match="repeat a corner"):
        corner_basis(gww_a, 5, corners=[2, 6, 2])


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_point_in_polygon_hand_cases(gww_a):
    v = gww_a.vertices
    assert mps._point_in_polygon(np.array([1.0, 0.25]), v)
    assert mps._point_in_polygon(np.array([1.75, 0.75]), v)
    assert not mps._point_in_polygon(np.array([0.25, 0.9]), v)
    assert not mps._point_in_polygon(np.array([-0.1, 0.5]), v)


def test_interior_points_deterministic_and_inside(gww_a):
    a = interior_points(gww_a, 40)
    b = interior_points(gww_a, 40)
    assert np.array_equal(a, b)
    c = interior_points(gww_a, 40, offset=99)
    assert not np.array_equal(a, c)
    for p in np.vstack([a, c]):
        assert mps._point_in_polygon(p, gww_a.vertices)


def test_interior_points_reject_a_negative_offset(square):
    # the Halton radical inverse is 0 at every index <= 0, so a negative
    # offset would repeat one corner point
    with pytest.raises(ValueError, match="offset must be nonnegative"):
        interior_points(square, 10, offset=-1)
    assert len(interior_points(square, 10, offset=0)) == 10


def test_boundary_collocation_skips_fan_edges(square):
    fan = CornerBasis(square, 0, 6)
    pts = boundary_collocation(square, [fan], 24)
    # the two edges meeting corner 0 carry no information; nodes live on
    # x = 1 and y = 1 only
    on_far = (np.abs(pts[:, 0] - 1) < 1e-14) | (np.abs(pts[:, 1] - 1) < 1e-14)
    assert np.all(on_far)
    assert len(pts) >= 24


def test_boundary_collocation_minimum_two_per_edge(gww_a):
    basis = corner_basis(gww_a, 2, corners="singular")
    pts = boundary_collocation(gww_a, basis, 8)
    # every edge not shared by all fans keeps at least two midpoint nodes
    assert len(pts) >= 2 * 6


# ---------------------------------------------------------------------------
# the indicator and its minima
# ---------------------------------------------------------------------------

def test_sweep_validates_grid(square):
    basis = corner_basis(square, 6)
    with pytest.raises(ValueError):
        sigma_min_sweep(square, basis, [2.0, 1.0])
    with pytest.raises(ValueError):
        sigma_min_sweep(square, basis, [-1.0, 1.0])


def test_sweep_dips_at_eigenvalue(square):
    basis = corner_basis(square, 12)
    grid = np.linspace(18.0, 22.0, 21)
    rows = sigma_min_sweep(square, basis, grid)
    s = np.array([r[1] for r in rows])
    k = int(np.argmin(s))
    assert abs(grid[k] - 2 * np.pi**2) < 0.11
    assert s[k] < 0.02
    assert s[0] > 10 * s[k] and s[-1] > 10 * s[k]


class _ColumnScaledFan:
    """Duck-typed fan wrapping another with fixed positive column scalings."""

    def __init__(self, inner, factors):
        self.inner = inner
        self.factors = np.asarray(factors, dtype=float)
        self.size = inner.size
        self.edges = inner.edges

    def evaluate(self, lam, points):
        return self.inner.evaluate(lam, points) * self.factors


def test_indicator_invariant_under_column_scaling(square, rng):
    base = corner_basis(square, 10)
    scaled = [_ColumnScaledFan(base[0], rng.uniform(0.2, 5.0, 10))]
    grid = np.linspace(19.0, 20.5, 4)
    a = sigma_min_sweep(square, base, grid)
    b = sigma_min_sweep(square, scaled, grid)
    for (_, sa), (_, sb) in zip(a, b):
        assert abs(sa - sb) <= 1e-10


def test_refine_square_fundamental(square):
    basis = corner_basis(square, 12)
    lam, coeff = refine_minimum(square, basis, (19.0, 21.0))
    assert lam == pytest.approx(2 * np.pi**2, abs=1e-7)
    # coefficients are L2-normalized over the domain
    norm = mps._l2_norm(square, basis, lam, coeff)
    assert norm == pytest.approx(1.0, rel=1e-9)


def test_refine_rejects_bracket_without_minimum(square):
    basis = corner_basis(square, 12)
    with pytest.raises(ValueError, match="no interior minimum"):
        refine_minimum(square, basis, (21.0, 24.0))
    with pytest.raises(ValueError):
        refine_minimum(square, basis, (-3.0, 5.0))


def test_empty_basis_is_rejected(square):
    with pytest.raises(ValueError, match="empty basis"):
        sigma_min_sweep(square, [], [19.0, 20.0])
    with pytest.raises(ValueError, match="empty basis"):
        refine_minimum(square, [], (19.0, 21.0))
    with pytest.raises(ValueError, match="empty basis"):
        fhm_enclosure(square, 19.7, np.array([]), [])


def test_refine_takes_at_most_twenty_indicator_calls(square, gww_a, monkeypatch):
    # the count includes the two ends and the coefficient vector
    calls = []
    smin = mps._subspace_smin

    def counting(*args, **kwargs):
        calls.append(1)
        return smin(*args, **kwargs)

    monkeypatch.setattr(mps, "_subspace_smin", counting)
    cases = [(square, corner_basis(square, 14), (m2 * np.pi**2 - 1.5, m2 * np.pi**2 + 1.5))
             for m2 in (2, 5, 8, 10, 13)]
    cases.append((gww_a, corner_basis(gww_a, 14, corners="singular"), (103.5, 105.5)))
    for domain, basis, bracket in cases:
        calls.clear()
        refine_minimum(domain, basis, bracket)
        assert len(calls) <= 20, (bracket, len(calls))


def test_square_search_keeps_the_rounding_level_width(square, call_counter,
                                                     monkeypatch):
    # s reaches rounding level at 2 pi^2, so REFINE_RTOL sets the width and
    # the search is the one without the s-relative stop
    basis = corner_basis(square, 14)
    calls = call_counter(mps, "_subspace_smin")
    lam, _ = refine_minimum(square, basis, (19.0, 21.0))
    assert len(calls) == 12
    assert lam == pytest.approx(2 * np.pi**2, abs=1e-7)
    monkeypatch.setattr(mps, "REFINE_SRATIO", 0.0)
    assert refine_minimum(square, basis, (19.0, 21.0))[0] == lam


@pytest.mark.parametrize("bracket", [(19.6, 21.0), (103.5, 105.5)],
                         ids=["lambda1", "lambda10"])
def test_stopped_search_lands_well_inside_the_interval(gww_a, bracket, monkeypatch):
    # stopping at 1e-2 s_best relative moves lambda_h by far less than the
    # FHM radius from where a search to REFINE_RTOL lands
    basis = corner_basis(gww_a, 14, corners="singular")
    lam, coeff = refine_minimum(gww_a, basis, bracket)
    radius = fhm_enclosure(gww_a, lam, coeff, basis).radius
    monkeypatch.setattr(mps, "REFINE_SRATIO", 0.0)
    full, _ = refine_minimum(gww_a, basis, bracket)
    assert abs(lam - full) <= 1e-2 * radius


def test_stacked_matrix_is_built_once_per_lambda(gww_a, call_counter, monkeypatch):
    # the coefficient vector at lambda_h reuses the matrix its s was read
    # from; the indicator passes its one stacked point array on every call,
    # while the L2 norm evaluates the basis at its own quadrature points
    calls = []
    basis_matrix = mps._basis_matrix

    def recording(basis, lam, points):
        calls.append((lam, points))
        return basis_matrix(basis, lam, points)

    monkeypatch.setattr(mps, "_basis_matrix", recording)
    smin = call_counter(mps, "_subspace_smin")
    lam, _ = refine_minimum(gww_a, corner_basis(gww_a, 14, corners="singular"),
                            (19.6, 21.0))
    lams = [l for l, points in calls if points is calls[0][1]]
    assert len(lams) < len(calls)
    assert len(lams) == len(set(lams))
    assert lam in lams
    assert len(smin) == len(lams) + 1


def test_indicator_and_its_kept_matrix_are_freed_by_reference_counting(square):
    # s reads its least-s record through its closure, so no cycle keeps the
    # kept matrix alive until the cycle collector runs
    s = mps._indicator(square, corner_basis(square, 12), mps.HALTON_OFFSET)
    s(19.0)
    gone = weakref.ref(s)
    gc.disable()
    try:
        del s
        assert gone() is None
    finally:
        gc.enable()


def test_minimizer_ends_within_the_width_at_its_best_point():
    # a V with a floor (the indicator's shape at an eigenvalue), a
    # parabola, and a monotone bracket whose least value sits at its upper
    # end, all stepped at once
    c = np.array([0.3, 0.7, 1.0])
    seen = []

    def shapes(x):
        return np.array([abs(x[0] - c[0]) + 1e-16, (x[1] - c[1])**2, -(1.0 + x[2])])

    def f(x):
        seen.append(x.copy())
        return shapes(x)

    x, fx = mps._minimize(f, [0.0, 0.2, 0.0], [1.0, 0.9, 1.0], lambda lo, hi: 1e-9)
    assert np.all(np.abs(x - c) <= 1e-9)
    assert fx[2] == pytest.approx(-2.0, abs=1e-9)
    # the returned point is the best one evaluated, not a bracket midpoint
    seen = np.array(seen)
    values = np.array([shapes(row) for row in seen])
    for j in range(3):
        assert fx[j] == values[:, j].min()
        assert x[j] in seen[values[:, j] == fx[j], j]


def test_located_value_stable_under_denser_collocation(square, monkeypatch):
    basis = corner_basis(square, 12)
    assert mps.OVERSAMPLE == 2
    lam2, coeff2 = refine_minimum(square, basis, (19.0, 21.0))
    monkeypatch.setattr(mps, "OVERSAMPLE", 4)
    lam4, _ = refine_minimum(square, basis, (19.0, 21.0))
    encl = fhm_enclosure(square, lam2, coeff2, basis)
    assert abs(lam2 - lam4) < encl.radius


# ---------------------------------------------------------------------------
# enclosures
# ---------------------------------------------------------------------------

def test_enclosure_radius_formula():
    e = Enclosure(10.0, 0.1)
    want = 10.0 * (np.sqrt(2.0) * 0.1 + 0.01) / (1.0 - 0.01)
    assert e.radius == pytest.approx(want, rel=1e-15)
    assert e.radius == pytest.approx(1.5295086488617127, rel=1e-14)
    assert e.lower == e.lambda_h - e.radius
    assert e.upper == e.lambda_h + e.radius
    assert e.caveat is True
    assert e.method == "fhm"
    assert 10.0 in e and 8.0 not in e


def test_enclosure_degenerate_and_invalid():
    assert Enclosure(5.0, 0.0).radius == 0.0
    with pytest.raises(ValueError):
        Enclosure(5.0, 1.0)
    with pytest.raises(ValueError):
        Enclosure(5.0, -0.2)


def test_enclosure_report_line(tmp_path, monkeypatch):
    # enclosure.csv as `solve --method mps` writes it: the enclosure's
    # floats as their shortest round-trip repr, then the lowercase caveat
    enc = Enclosure(10.0, 0.1)
    monkeypatch.setattr(mps, "refine_minimum", lambda *args, **kwargs: (10.0, None))
    monkeypatch.setattr(mps, "fhm_enclosure", lambda *args: enc)
    assert cli.main(["solve", "--domain", "unit-square", "--method", "mps",
                     "--bc", "dirichlet", "--bracket", "9:11",
                     "--out", str(tmp_path)]) == 0
    header, row = (tmp_path / "enclosure.csv").read_text().splitlines()
    assert header == "lambda_h,lower,upper,epsilon,caveat"
    assert row == f"10.0,{enc.lower!r},{enc.upper!r},0.1,true"
    assert enc.lower < 10.0 < enc.upper


def test_square_enclosures_contain_true_eigenvalues():
    for lam, encl, exact in shared_square_mps():
        assert exact in encl
        assert abs(lam - exact) < 1e-5


def test_disk_enclosure_with_analytic_radial_mode(disk):
    j01 = jn_zeros(0, 1)[0]
    norm = np.sqrt(np.pi) * abs(specfun.bessel_j(1.0, j01))

    class RadialMode:
        size = 1

        def evaluate(self, lam, points):
            pts = np.atleast_2d(points)
            r = np.hypot(pts[:, 0], pts[:, 1])
            return (specfun.bessel_j(0.0, np.sqrt(lam) * r) / norm)[:, None]

    encl = fhm_enclosure(disk, j01**2, np.array([1.0]), [RadialMode()])
    assert encl.epsilon < 1e-10
    assert j01**2 in encl
    assert encl.radius < 1e-8


def test_boundary_sup_is_taken_at_the_vertices():
    # on drum a the boundary sup of |u| sits at vertex 3, which carries no
    # fan; every vertex is a sample, so epsilon is sqrt|Omega| times the
    # largest vertex value
    lam, enc, coeff, basis = shared_gww_mps()
    dom = load_domain("gww-a")
    at_vertices = np.abs(mps.evaluate_solution(basis, lam, coeff, dom.vertices))
    assert int(np.argmax(at_vertices)) == 3
    assert enc.epsilon == pytest.approx(np.sqrt(dom.area()) * at_vertices.max(),
                                        rel=1e-12)


def test_boundary_sup_refines_a_maximum_between_samples(square):
    # a bump on the bottom edge peaks 0.3 of a sample spacing past a
    # sample, so the samples alone miss its height by about 6e-6
    peak = (mps.SUP_SAMPLES // 2 + 0.3) / (mps.SUP_SAMPLES - 1)

    class Bump:
        size = 1

        def evaluate(self, lam, points):
            p = np.atleast_2d(points)
            return 0.5 * np.exp(-((p[:, 0] - peak)**2 + p[:, 1]**2) / 0.01)[:, None]

    enc = fhm_enclosure(square, 10.0, np.array([1.0]), [Bump()])
    assert enc.epsilon == pytest.approx(0.5 * np.sqrt(square.area()), rel=1e-12)


def _relative_radius(domain, bracket):
    basis = corner_basis(domain, 12)
    lam, coeff = refine_minimum(domain, basis, bracket)
    return fhm_enclosure(domain, lam, coeff, basis).radius / lam


@settings(max_examples=15, deadline=None)
@given(log_scale=st.floats(min_value=-3.0, max_value=3.0))
def test_enclosure_relative_radius_is_dilation_invariant(square, log_scale):
    # epsilon = sqrt|Omega| * sup|u| for L2-normalized u does not change
    # under x -> s x, so neither does radius / lambda
    s = 10.0 ** log_scale
    base = _relative_radius(square, (19.0, 21.0))
    scaled = _relative_radius(square.scaled(s), (19.0 / s**2, 21.0 / s**2))
    assert scaled == pytest.approx(base, rel=1e-3)


def test_enclosure_rejects_non_eigenfunction(square):
    basis = corner_basis(square, 8)
    # an off-eigenvalue trial function has O(1) boundary values after
    # normalization
    lam = 30.0
    coeff = np.zeros(8)
    coeff[0] = 1.0
    coeff = coeff / mps._l2_norm(square, basis, lam, coeff)
    with pytest.raises(ValueError, match="not below 1"):
        fhm_enclosure(square, lam, coeff, basis)


# ---------------------------------------------------------------------------
# BLAS threads
# ---------------------------------------------------------------------------

def test_mps_blas_runs_on_one_thread_and_restores_each_pool(square, monkeypatch,
                                                            blas_pools):
    # the indicator's QR and SVD (in sigma_min_sweep and refine_minimum) and
    # the boundary sup (in fhm_enclosure) see every pool at one thread; after
    # each return, a bracket without an interior minimum and an
    # epsilon >= 1 rejection every pool is back at its entry count, 2
    set_blas_threads(blas_pools, 2)
    entry = blas_threads(blas_pools)
    inside, marks = [], []

    def spy(name):
        original = getattr(mps, name)

        def spying(*args, **kwargs):
            inside.append(blas_threads(blas_pools))
            return original(*args, **kwargs)

        monkeypatch.setattr(mps, name, spying)

    def returned():
        marks.append(len(inside))
        return blas_threads(blas_pools)

    spy("_subspace_smin")
    spy("_boundary_sup")
    basis = corner_basis(square, 8)
    off = np.zeros(8)
    off[0] = 1.0
    off /= mps._l2_norm(square, basis, 30.0, off)
    sigma_min_sweep(square, basis, [19.0, 19.7, 20.5])
    assert returned() == entry == [2] * len(blas_pools)
    lam, coeff = refine_minimum(square, basis, (19.0, 21.0))
    assert returned() == entry
    fhm_enclosure(square, lam, coeff, basis)
    assert returned() == entry
    with pytest.raises(ValueError, match="no interior minimum"):
        refine_minimum(square, basis, (21.0, 24.0))
    assert returned() == entry
    with pytest.raises(ValueError, match="not below 1"):
        fhm_enclosure(square, 30.0, off, basis)
    assert returned() == entry
    # three indicator calls, then the search's, one sup, the rejected
    # search's, and the rejected sup
    assert marks[0] == 3 and np.all(np.diff(marks) > 0)
    assert marks[2] - marks[1] == marks[4] - marks[3] == 1
    assert inside == [[1] * len(blas_pools)] * len(inside)


@pytest.mark.parametrize("name, bracket", [("gww-a", (19.6, 21.0)),
                                           ("unit-square", (19.0, 21.0))],
                         ids=["gww-a", "unit-square"])
def test_mps_values_do_not_depend_on_the_callers_blas_threads(name, bracket,
                                                              blas_pools):
    # lambda_h, epsilon and the coefficients with the caller's pools at 2
    # threads and at 1
    domain = load_domain(name)
    basis = corner_basis(domain, 14)
    runs = []
    for threads in (2, 1):
        set_blas_threads(blas_pools, threads)
        lam, coeff = refine_minimum(domain, basis, bracket)
        runs.append((lam, fhm_enclosure(domain, lam, coeff, basis).epsilon, coeff))
    (lam2, eps2, coeff2), (lam1, eps1, coeff1) = runs
    assert lam2 == lam1 and eps2 == eps1
    assert np.array_equal(coeff2, coeff1)
