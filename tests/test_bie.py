import warnings

import numpy as np
import pytest
import scipy.linalg as la

from lapspec import bie, geometry, pencil, reference
from lapspec.bie import (annulus_domain, assemble_kernels, kress_log_weights,
                         solve_steklov_bie, sweep_annulus)
from lapspec.geometry import Domain, boundary_quadrature, load_domain

from conftest import shared_bie


# ---------------------------------------------------------------------------
# quadrature and kernel building blocks
# ---------------------------------------------------------------------------

def test_log_weights_reproduce_fourier_integrals():
    # the rule must hit integral of ln(4 sin^2((t-s)/2)) cos(ns) ds exactly:
    # 0 for n = 0 and -(2 pi / n) cos(nt) otherwise
    m = 32
    R = kress_log_weights(m)
    t = 2 * np.pi * np.arange(m) / m
    lag = np.abs(np.arange(m)[:, None] - np.arange(m)[None, :])
    Rm = R[lag]
    assert np.max(np.abs(Rm @ np.ones(m))) < 1e-12
    for n in (1, 2, 3, 5):
        got = Rm @ np.cos(n * t)
        want = -(2 * np.pi / n) * np.cos(n * t)
        assert np.max(np.abs(got - want)) < 1e-12


def test_log_weights_reject_odd_count():
    with pytest.raises(ValueError):
        kress_log_weights(33)


def test_log_weights_reject_fewer_than_four_nodes():
    with pytest.raises(ValueError, match="at least 4"):
        kress_log_weights(2)


@pytest.mark.parametrize("m", [4, 64, 660])
def test_log_weights_match_the_numpy_table_product(m):
    n = m // 2
    k, j = np.arange(m), np.arange(1, n)
    want = -(2 * np.pi / n) * (np.cos(np.pi / n * np.outer(k, j)) @ (1.0 / j))
    want -= (np.pi / n**2) * np.cos(np.pi * k)
    got = kress_log_weights(m)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


# (domain, scale, curve): the unit circle, two radii where ln R is not 0, and
# the clockwise inner curve of an annulus
CIRCLES = [pytest.param("unit-disk", 1.0, 0, id="R=1"),
           pytest.param("unit-disk", 0.1, 0, id="R=0.1"),
           pytest.param("unit-disk", 2.5, 0, id="R=2.5"),
           pytest.param("annulus:eps=0.3", 1.0, 1, id="annulus-inner")]


def _self_blocks(name, scale, curve, n):
    quad = boundary_quadrature(load_domain(name).scaled(scale), n)
    S0, Kp = bie._raw_kernels(quad)
    block = slice(quad.offsets[curve], quad.offsets[curve + 1])
    return quad.curves[curve], S0[block, block], Kp[block, block]


@pytest.mark.parametrize("name, scale, curve", CIRCLES)
def test_adjoint_double_layer_constant_on_circle(name, scale, curve):
    c, _, Kp = _self_blocks(name, scale, curve, 40)
    # on a circle the kernel (x-y).n(x) / |x-y|^2 is identically o/(2R), so
    # every entry, diagonal included, equals -o (1/4pi) (2pi/N): negative on
    # the ccw outer curve, positive on a cw inner one
    expected = -c.orientation * (1.0 / (4 * np.pi)) * (2 * np.pi / 40)
    assert np.max(np.abs(Kp - expected)) < 1e-14


def test_gauss_jump_identity_on_circle(disk):
    quad = boundary_quadrature(disk, 64)
    S0, Kp = bie._raw_kernels(quad)
    resid = (0.5 * np.eye(64) + Kp) @ np.ones(64)
    assert np.max(np.abs(resid)) < 1e-13


@pytest.mark.parametrize("name, scale, curve", CIRCLES)
def test_single_layer_fourier_symbol_on_circle(name, scale, curve):
    # on a circle of radius R, S0 acts on cos(n theta) as multiplication by
    # R/(2n), and on constants (n = 0) by -R ln R
    c, S0, _ = _self_blocks(name, scale, curve, 64)
    R = c.radius
    theta = np.arctan2(*(c.points - c.center).T[::-1])
    for n in (0, 1, 2, 3, 5, 8):
        f = np.cos(n * theta)
        symbol = -R * np.log(R) if n == 0 else R / (2 * n)
        assert np.max(np.abs(S0 @ f - symbol * f)) < 1e-12


def test_assembled_kernels_annihilate_constants():
    quad = boundary_quadrature(annulus_domain(0.3), [48, 32])
    S0, Khalf = assemble_kernels(quad)
    ones = np.ones(quad.total)
    assert np.max(np.abs(S0 @ ones)) < 1e-12
    assert np.max(np.abs(Khalf @ ones)) < 1e-12
    assert S0.shape == (80, 80)


def test_assemble_kernels_type_check():
    with pytest.raises(TypeError):
        assemble_kernels("not a quadrature")


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def test_rank_one_projections_match_explicit_construction():
    quad = boundary_quadrature(annulus_domain(0.6), [60, 40])
    n, w = quad.total, quad.weights
    S0, Kp = bie._raw_kernels(quad)
    ImW = np.eye(n) - np.outer(np.ones(n), w) / w.sum()
    S0_ref, Khalf_ref = S0 @ ImW, (0.5 * np.eye(n) + Kp) @ ImW
    S0_got, Khalf_got = assemble_kernels(quad)
    assert _rel(S0_got, S0_ref) < 1e-12
    assert _rel(Khalf_got, Khalf_ref) < 1e-12
    Qf, _ = la.qr(np.ones((n, 1)), mode="full")
    Q = Qf[:, 1:]
    A, B = bie._deflated_pencil(S0_got, Khalf_got)
    assert A.shape == B.shape == (n - 1, n - 1)
    assert _rel(A, Q.T @ Khalf_ref @ Q) < 1e-12
    assert _rel(B, Q.T @ S0_ref @ Q) < 1e-12


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def test_disk_steklov_is_integers(disk):
    spec = solve_steklov_bie(disk, 64, count=11)
    exact = reference.disk_spectra("steklov", count=11).values
    assert np.max(np.abs(spec.eigenvalues - exact)) < 1e-10
    assert list(pencil.cluster(spec.eigenvalues)[0]) == [1, 2, 2, 2, 2, 2]
    assert spec.flags["zero_mode"] is True
    assert spec.method == "bie"
    assert spec.param == 64


def test_concentric_annulus_matches_separated_variables():
    dom = load_domain("annulus:eps=0")
    spec = solve_steklov_bie(dom, 256, count=20)
    exact = reference.concentric_annulus_steklov(0.1, count=20).values
    assert np.max(np.abs(spec.eigenvalues - exact)) < 1e-10
    # the pure-radial log mode is in the window
    assert np.min(np.abs(spec.eigenvalues - 4.777239300935770)) < 1e-10


def test_off_center_spectrum_rotation_invariant():
    base = solve_steklov_bie(annulus_domain(0.4), 128, count=256).eigenvalues[:30]
    phi = np.pi / 6
    c = (0.4 * -np.sin(phi), 0.4 * np.cos(phi))
    rot = Domain("smooth-curves",
                 circles=[((0.0, 0.0), 1.0, +1), (c, 0.1, -1)],
                 name="rotated")
    vals = solve_steklov_bie(rot, 128, count=256).eigenvalues[:30]
    assert np.max(np.abs(vals - base)) < 1e-10


def test_off_center_spectrum_reflection_invariant():
    base = solve_steklov_bie(annulus_domain(0.3), 96, count=192).eigenvalues[:25]
    refl = Domain("smooth-curves",
                  circles=[((0.0, 0.0), 1.0, +1), ((0.0, -0.3), 0.1, -1)],
                  name="reflected")
    vals = solve_steklov_bie(refl, 96, count=192).eigenvalues[:25]
    assert np.max(np.abs(vals - base)) < 1e-12


def test_spectrum_real_nonnegative_ascending():
    spec = shared_bie(0.88, 260, count=520)
    v = spec.eigenvalues
    assert np.isrealobj(v)
    assert v[0] == 0.0
    assert np.all(v >= 0.0)
    assert np.all(np.diff(v) >= 0)


def test_resolution_jump_cuts_error_by_three_decades():
    # the pinned tenth eigenvalue of the hardest offset; doubling the nodes
    # must improve it by at least 10^3 (spectral convergence)
    pinned = 4.438646399422233
    err = {n: abs(shared_bie(0.88, n, count=101).eigenvalues[10] - pinned)
           for n in (260, 520)}
    assert err[260] / max(err[520], 1e-16) >= 1e3


def _annulus_pencil(eps, n_per_curve):
    quad = boundary_quadrature(annulus_domain(eps), [n_per_curve, n_per_curve])
    return pencil.Pencil(*bie._deflated_pencil(*assemble_kernels(quad)))


def test_lu_reduced_solve_matches_qz_on_the_deflated_annulus():
    pen = _annulus_pencil(0.85, 330)
    ref = np.sort(la.eig(pen.A, pen.B, right=False).real)[:201]
    got = pencil.solve_general(pen, count=pen.n).eigenvalues
    assert np.isrealobj(got)
    assert np.max(np.abs(got[:201] - ref) / np.abs(ref)) < 1e-10


@pytest.mark.parametrize("eps", [0.0, 0.5, 0.88])
def test_arnoldi_matches_the_dense_route_on_the_deflated_annulus(eps):
    pen = _annulus_pencil(eps, 330)
    dense = pencil.solve_general(pen, count=pen.n)
    got = pencil.solve_general(pen, count=20)
    assert dense.flags == {"solver": "lu-eigvals"}
    assert got.flags["solver"] == "arnoldi"
    assert got.flags["residual"] <= pencil.RESIDUAL_GATE
    assert np.isrealobj(got.eigenvalues)
    assert len(got) == 20 + pencil.PAD
    ref = dense.eigenvalues[:len(got)]
    assert np.max(np.abs(got.eigenvalues - ref) / ref) < 1e-10


def test_size_switch_routes_the_sweep_and_the_high_index_solve():
    # the sweep asks for sigma_0..sigma_1 at 330 nodes per curve; the
    # high-index solve for 201 values at 440
    sweep = solve_steklov_bie(annulus_domain(0.4), 330, count=2)
    assert sweep.flags["solver"] == "arnoldi"
    assert sweep.flags["residual"] <= pencil.RESIDUAL_GATE
    assert sweep.flags["zero_mode"] is True
    high = solve_steklov_bie(annulus_domain(0.4), 440, count=201)
    assert high.flags["solver"] == "lu-eigvals"
    assert "residual" not in high.flags
    assert len(high) == 201


def test_dense_route_returns_a_near_real_pair_as_real_values():
    # the concentric annulus at 64 nodes per curve takes the dense route
    # (n = 127); its eigvals hold one pair 10 +- 3.6e-15 i, the double
    # value sigma_20 = sigma_21 = 10, which the realness rule keeps
    pen = _annulus_pencil(0.0, 64)
    raw = la.eigvals(la.lu_solve(la.lu_factor(pen.B), pen.A))
    pair = raw[raw.imag != 0]
    assert len(pair) == 2 and np.allclose(pair, 10.0, rtol=1e-12, atol=0)
    spec = solve_steklov_bie(annulus_domain(0.0), 64, count=22)
    assert spec.flags["solver"] == "lu-eigvals"
    assert np.isrealobj(spec.eigenvalues)
    assert np.allclose(spec.eigenvalues[20:22], 10.0, rtol=1e-12, atol=0)
    exact = reference.concentric_annulus_steklov(0.1, count=22).values
    assert np.max(np.abs(spec.eigenvalues - exact)) < 1e-9


def test_arnoldi_route_rejects_a_small_complex_pair(monkeypatch, disk):
    # sigma = 1 +- 0.5i below the real values 3, 4, ..., 63, hidden by a
    # similarity so that neither matrix is structured
    n = 63
    D = np.diag(np.arange(1.0, n + 1.0))
    D[0, 1], D[1, 0], D[1, 1] = -0.5, 0.5, 1.0
    P = np.eye(n) + 0.1 * np.random.default_rng(7).standard_normal((n, n))
    A, B = P @ D @ np.linalg.inv(P), np.eye(n)
    eigs, calls = pencil.spla.eigs, []
    monkeypatch.setattr(pencil.spla, "eigs",
                        lambda *a, **kw: calls.append(1) or eigs(*a, **kw))
    with pytest.raises(ValueError, match=r"inside the requested range "
                                         r"\(worst 1[+-]0\.5j\)"):
        pencil.solve_general(pencil.Pencil(A, B), count=3)
    assert calls == [1]
    monkeypatch.setattr(bie, "_deflated_pencil", lambda S0, Khalf: (A, B))
    with pytest.raises(ValueError, match="complex pencil eigenvalues inside"):
        solve_steklov_bie(disk, 64, count=3)


def test_zero_mode_is_not_counted_among_the_pencil_values(monkeypatch, disk):
    # sigma = 2 +- 0.5i lies above sigma_1 = 1 (real values 1, 4, 5, ..., 63):
    # count=2 asks for sigma_0 = 0 and sigma_1 only, so the pair is not in
    # the requested range
    n = 63
    D = np.diag(np.r_[1.0, 2.0, 2.0, np.arange(4.0, n + 1.0)])
    D[1, 2], D[2, 1] = -0.5, 0.5
    P = np.eye(n) + 0.1 * np.random.default_rng(7).standard_normal((n, n))
    A, B = P @ D @ np.linalg.inv(P), np.eye(n)
    monkeypatch.setattr(bie, "_deflated_pencil", lambda S0, Khalf: (A, B))
    spec = solve_steklov_bie(disk, 64, count=2)
    assert spec.flags["solver"] == "arnoldi"
    assert np.allclose(spec.eigenvalues, [0.0, 1.0], rtol=0, atol=1e-10)
    assert np.array_equal(solve_steklov_bie(disk, 64, count=1).eigenvalues, [0.0])
    with pytest.raises(ValueError, match="complex pencil eigenvalues inside"):
        solve_steklov_bie(disk, 64, count=3)


def test_arnoldi_records_its_operator_applications(monkeypatch):
    # every application of A^-1 B solves once with A's LU
    pen = _annulus_pencil(0.4, 330)
    calls, lu_solve = [], la.lu_solve
    monkeypatch.setattr(pencil.la, "lu_solve",
                        lambda *a, **kw: calls.append(1) or lu_solve(*a, **kw))
    spec = pencil.solve_general(pen, count=1)
    assert pen.n == 659 and spec.flags["solver"] == "arnoldi"
    assert spec.flags["matvecs"] == len(calls)
    assert 20 <= len(calls) <= 100


def test_arnoldi_route_passes_the_residual_gate(monkeypatch):
    pen = _annulus_pencil(0.5, 64)
    monkeypatch.setattr(pencil, "RESIDUAL_GATE", 1e-20)
    with pytest.raises(ValueError, match="exceeds gate"):
        pencil.solve_general(pen, count=2)


@pytest.mark.parametrize("n_per_curve, count, route",
                         [(660, 2, "arnoldi"), (330, 660, "lu-eigvals")])
def test_default_gate_accepts_the_annulus_without_an_svd(n_per_curve, count, route,
                                                          svdvals_calls):
    spec = solve_steklov_bie(annulus_domain(0.88), n_per_curve, count=count)
    assert spec.flags["solver"] == route
    assert svdvals_calls == []


@pytest.mark.parametrize("n_per_curve", [330, 660])
def test_condition_estimate_bounds_the_exact_condition(n_per_curve):
    # solve_general accepts B without an SVD when 100 n / rcond <= COND_GATE;
    # that bound must cover the exact 2-norm condition, so the estimate
    # accepts only what the exact gate accepts
    pen = _annulus_pencil(0.88, n_per_curve)
    lu, _, info = la.lapack.dgetrf(pen.B)
    rcond, _ = la.lapack.dgecon(lu, np.abs(pen.B).sum(axis=0).max())
    sv = la.svdvals(pen.B)
    assert info == 0
    assert 100 * pen.n / rcond >= sv[0] / sv[-1]
    assert 100 * pen.n / rcond <= pencil.COND_GATE


def test_ill_conditioned_pencil_is_rejected_at_the_requested_nodes(svdvals_calls):
    # cond(B) grows as 1/r for a hole of radius r: 3.2e12 at 64 nodes per
    # curve for r = 1e-11. The solve raises at the requested nodes instead
    # of retrying at fewer, after one exact condition number and no warning
    dom = Domain("smooth-curves", circles=[((0.0, 0.0), 1.0, +1),
                                           ((0.0, 0.0), 1e-11, -1)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="condition number 3.2"):
            solve_steklov_bie(dom, 64, count=5)
    assert caught == []
    assert len(svdvals_calls) == 1


def test_count_beyond_the_real_values_is_rejected(disk):
    # 16 nodes give 15 pencil values plus the zero mode
    assert len(solve_steklov_bie(disk, 16, count=16)) == 16
    with pytest.raises(ValueError, match=r"only 16 Steklov values at nodes \[16\]"):
        solve_steklov_bie(disk, 16, count=17)


@pytest.mark.parametrize("count", [0, -3])
def test_count_below_one_is_rejected(disk, count):
    # the pencil is asked for max(count - 1, 1) values, which would hide it
    with pytest.raises(ValueError, match="at least 1"):
        solve_steklov_bie(disk, 16, count=count)


def test_weighted_domain_rejected(disk):
    weighted = Domain("smooth-curves", circles=disk.circles, weight="genus2")
    with pytest.raises(ValueError, match="need the unit weight, not genus2"):
        solve_steklov_bie(weighted, 64, count=4)


def test_polygon_domain_rejected(square):
    with pytest.raises(ValueError):
        solve_steklov_bie(square, 64, count=4)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_normalizes_by_concentric_case():
    rows = sweep_annulus([0.0, 0.3], 64, [1, 2])
    assert [(r[0], r[1]) for r in rows] == [(0.0, 1), (0.0, 2), (0.3, 1), (0.3, 2)]
    for r in rows[:2]:
        assert r[3] == 1.0  # eps = 0 is its own reference
    assert all(r[4] == 128 for r in rows)
    # moving the hole off center lowers the fundamental ratio
    assert rows[2][3] < 1.0


def test_sweep_rejects_bad_grid():
    with pytest.raises(ValueError):
        sweep_annulus([-0.1], 64, [1])
    with pytest.raises(ValueError):
        sweep_annulus([0.95], 64, [1])
    with pytest.raises(ValueError):
        sweep_annulus([0.1], 64, [0])
