import numpy as np
import pytest
import scipy.linalg as la

from lapspec import bie, cli, geometry, pencil, reference
from lapspec.bie import (annulus_domain, assemble_kernels, kress_log_weights,
                         solve_steklov_bie, sweep_annulus)
from lapspec.geometry import Domain, boundary_quadrature, load_domain

from conftest import blas_threads, set_blas_threads, shared_bie


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


def test_log_weights_are_computed_once_and_read_only():
    assert kress_log_weights(64) is kress_log_weights(64)
    with pytest.raises(ValueError, match="read-only"):
        kress_log_weights(64)[0] = 0.0


# (domain, scale, curve): the unit circle, two radii where ln R is not 0, and
# the clockwise inner curve of an annulus
CIRCLES = [pytest.param("unit-disk", 1.0, 0, id="R=1"),
           pytest.param("unit-disk", 0.1, 0, id="R=0.1"),
           pytest.param("unit-disk", 2.5, 0, id="R=2.5"),
           pytest.param("annulus:eps=0.3", 1.0, 1, id="annulus-inner")]


def _self_blocks(name, scale, curve, n):
    quad = boundary_quadrature(load_domain(name).scaled(scale), n)
    S0, Kp = assemble_kernels(quad, np.arange(quad.total))
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
    S0, Kp = assemble_kernels(quad, np.arange(quad.total))
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
    # Gauss's identity (1/2 I + K) 1 = 0 for the double layer K, whose
    # weighted adjoint K' is: the constants are the left null vector of
    # 1/2 I + K' in the quadrature weights, so A~ needs its rank-one term
    quad = boundary_quadrature(annulus_domain(0.3), [48, 32])
    S0, Kp = assemble_kernels(quad, np.arange(quad.total))
    assert S0.shape == Kp.shape == (80, 80)
    assert np.max(np.abs(quad.weights @ (0.5 * np.eye(80) + Kp))) < 1e-15


def test_assemble_kernels_type_check():
    with pytest.raises(TypeError):
        assemble_kernels("not a quadrature", np.arange(4))


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def _trivial(quad):
    """The reflection with no pairs: every node fixed, one whole block."""
    empty = np.array([], dtype=int)
    return empty, empty, np.arange(quad.total)


def _mean_free_pencil(quad):
    """The pencil (1/2 I + K', S0) on mean-free densities, deflated of the
    constants in a QR basis: the nonsymmetric form of the problem, built
    from the raw kernels as an independent reference."""
    n, w = quad.total, quad.weights
    S0, Kp = assemble_kernels(quad, np.arange(n))
    mean_free = np.eye(n) - np.outer(np.ones(n), w) / w.sum()
    Q = la.qr(np.ones((n, 1)), mode="full")[0][:, 1:]
    return (Q.T @ (0.5 * np.eye(n) + Kp) @ mean_free @ Q,
            Q.T @ S0 @ mean_free @ Q)


def test_rank_one_projections_match_explicit_construction():
    # the even block's P = I - 1 p^T and rank-one term 1 p^T, and the
    # reflector that deflates D 1, each against its explicit matrix
    quad = boundary_quadrature(annulus_domain(0.6), [60, 40])
    n, w = quad.total, quad.weights
    p, d = w / w.sum(), np.sqrt(w)
    S0, Kp = assemble_kernels(quad, np.arange(n))
    P, At = np.eye(n) - np.outer(np.ones(n), p), 0.5 * np.eye(n) + Kp + np.outer(np.ones(n), p)
    want = d[:, None] * (P @ S0 @ np.linalg.inv(At)) / d
    T = bie._ntd_block(S0.copy(), Kp.copy(), d, p)
    assert _rel(T, want) < 1e-12
    v = d.copy()
    v[0] += np.linalg.norm(d)
    H = np.eye(n) - 2 * np.outer(v, v) / (v @ v)
    assert _rel(H @ d, -np.linalg.norm(d) * np.eye(n)[0]) < 1e-15
    assert _rel(bie._reflect(T, d), (H @ T @ H)[1:, 1:]) < 1e-12


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


def _ntd_whole(quad):
    """The whole Neumann-to-Dirichlet block: the trivial classes are passed."""
    return bie._deflated_pencil(quad, _trivial(quad))


def test_lu_reduced_solve_matches_qz_on_the_deflated_annulus():
    # the solve factors only A~ = 1/2 I + K' + 1 p^T; QZ solves the
    # mean-free pencil (1/2 I + K', S0) of the same nodes
    quad = boundary_quadrature(annulus_domain(0.85), [330, 330])
    A, B = _mean_free_pencil(quad)
    ref = np.sort(la.eig(A, B, right=False).real)[:201]
    got = pencil.solve_general(*_ntd_whole(quad), count=len(A)).eigenvalues
    assert np.isrealobj(got) and len(got) == len(A)
    assert np.max(np.abs(got[:201] - ref) / np.abs(ref)) < 1e-10


@pytest.mark.parametrize("eps", [0.4, 0.88])
def test_lanczos_matches_all_values_eigh_on_the_same_blocks(eps):
    # at 330 nodes per curve offset 0.88 is not resolved (asymmetry 8.7e-4),
    # yet both routes solve the same symmetric parts
    quad = boundary_quadrature(annulus_domain(eps), 330)
    blocks = _split(quad)
    dense = pencil.solve_general(*blocks, count=sum(b.n for b in blocks))
    got = pencil.solve_general(*blocks, count=20)
    assert dense.flags["solver"] == "eigh" and got.flags["solver"] == "lanczos"
    assert max(dense.flags["residual"], got.flags["residual"]) <= pencil.RESIDUAL_GATE
    assert got.flags["asymmetry"] == dense.flags["asymmetry"]
    assert len(got) == 20 + pencil.PAD
    ref = dense.eigenvalues[:len(got)]
    assert np.max(np.abs(got.eigenvalues - ref) / ref) < 1e-12


def test_a_block_too_small_for_arpack_takes_eigh(call_counter):
    # the unit disk at 8 nodes per curve has blocks of order 4 and 3; beside
    # a block of order 89 (sigma = 10, 11, ...) the summed order 96 =
    # 12 (4 + PAD) takes Lanczos, which only the large block runs
    quad = boundary_quadrature(load_domain("unit-disk"), 8)
    disk = _split(quad)
    far = pencil.SelfAdjoint(np.diag(1.0 / np.arange(10.0, 99.0)))
    assert [b.n for b in disk] == [4, 3]
    calls = call_counter(pencil.spla, "eigsh")
    spec = pencil.solve_general(*disk, far, count=4)
    assert spec.flags["solver"] == "lanczos" and len(calls) == 1
    assert spec.flags["residual"] <= pencil.RESIDUAL_GATE
    assert np.allclose(spec.eigenvalues, [1, 1, 2, 2, 3, 3, 4, 10], rtol=1e-12, atol=0)


def test_a_zero_pivot_of_a_tilde_is_rejected():
    # K' = -1/2 I with no rank-one term leaves A~ = 0: getrf's first pivot
    with pytest.raises(ValueError, match="singular: LU pivot 1 is exactly zero"):
        bie._ntd_block(np.eye(4), -0.5 * np.eye(4), np.ones(4), None)


def test_size_switch_routes_the_sweep_and_the_high_index_solve():
    # the sweep asks for sigma_0..sigma_1 at 330 nodes per curve; the
    # high-index solve for 201 values at 440
    sweep = solve_steklov_bie(annulus_domain(0.4), 330, count=2)
    assert sweep.flags["solver"] == "lanczos"
    assert sweep.flags["residual"] <= pencil.RESIDUAL_GATE
    assert sweep.flags["zero_mode"] is True
    high = solve_steklov_bie(annulus_domain(0.4), 440, count=201)
    assert high.flags["solver"] == "eigh"
    assert high.flags["matvecs"] == 0
    assert len(high) == 201


def test_the_gate_takes_only_the_top_pairs_of_each_block(monkeypatch):
    # the 201-value solve asks eigh for 200 values after the zero mode: each
    # block gates its 200 + PAD largest mu, not all 879 pairs, and the
    # values are those of the every-value solve of the same blocks
    quad = boundary_quadrature(annulus_domain(0.4), 440)
    blocks = _split(quad)
    every = pencil.solve_general(*blocks, count=sum(b.n for b in blocks))
    columns = []
    gate = pencil._residual_gate

    def recording(A, B, vals, V):
        columns.append(V.shape[1])
        return gate(A, B, vals, V)

    monkeypatch.setattr(pencil, "_residual_gate", recording)
    spec = solve_steklov_bie(annulus_domain(0.4), 440, count=201)
    assert spec.flags["solver"] == "eigh" and spec.flags["blocks"] == [441, 438]
    assert columns == [200 + pencil.PAD] * 2
    assert np.array_equal(spec.eigenvalues[1:], every.eigenvalues[:200])


def test_symmetric_route_records_a_small_asymmetry_and_its_residual():
    # the resolved 201-value solve: T is symmetric to 7.9e-15, and every
    # pair of (T + T^T) / 2 passes the gate
    spec = solve_steklov_bie(annulus_domain(0.4), 440, count=201)
    assert spec.flags["solver"] == "eigh"
    assert spec.flags["asymmetry"] < 1e-13
    assert spec.flags["residual"] <= pencil.RESIDUAL_GATE


def test_symmetric_route_passes_the_residual_gate(monkeypatch, disk):
    # eigh's vectors, perturbed, are no eigenvectors of the matrix it solved
    eigh = pencil.la.eigh

    def perturbed(*args, **kwargs):
        mu, V = eigh(*args, **kwargs)
        return mu, V + 1e-3 * np.random.default_rng(5).standard_normal(V.shape)

    monkeypatch.setattr(pencil.la, "eigh", perturbed)
    with pytest.raises(ValueError, match=r"relative residual .* exceeds gate 1e-09"):
        solve_steklov_bie(disk, 64, count=40)


def test_dense_route_returns_a_near_real_pair_as_real_values():
    # the concentric annulus at 64 nodes per curve takes eigh (n = 127);
    # the whole mean-free pencil's eigvals hold one pair 170 +- 3.6e-14 i,
    # a double value (the hole's cos/sin pair of degree 17), which eigh
    # returns real, twice
    A, B = _mean_free_pencil(boundary_quadrature(annulus_domain(0.0), 64))
    raw = la.eigvals(la.lu_solve(la.lu_factor(B), A))
    pair = raw[raw.imag != 0]
    assert len(pair) == 2 and np.allclose(pair, 170.0, rtol=1e-12, atol=0)
    spec = solve_steklov_bie(annulus_domain(0.0), 64, count=128)
    assert spec.flags["solver"] == "eigh"
    assert np.isrealobj(spec.eigenvalues)
    near = np.abs(spec.eigenvalues - pair.real.mean()) <= 1e-12 * 170.0
    assert np.count_nonzero(near) == 2
    exact = reference.concentric_annulus_steklov(0.1, count=22).values
    assert np.max(np.abs(spec.eigenvalues[:22] - exact)) < 1e-9


def test_zero_mode_is_not_counted_among_the_pencil_values(monkeypatch, disk):
    # one block with sigma = 1, 2, ..., 63 in place of the disk's: count=2
    # asks the blocks for sigma_1 only, and the 63 block values with the
    # zero mode give 64 Steklov values, not 63
    n = 63
    Q = la.qr(np.random.default_rng(7).standard_normal((n, n)))[0]
    T = Q @ np.diag(1.0 / np.arange(1.0, n + 1.0)) @ Q.T
    monkeypatch.setattr(bie, "_deflated_pencil",
                        lambda *args: (pencil.SelfAdjoint(T),))
    spec = solve_steklov_bie(disk, 64, count=2)
    assert spec.flags["solver"] == "lanczos"
    assert np.allclose(spec.eigenvalues, [0.0, 1.0], rtol=0, atol=1e-10)
    assert np.array_equal(solve_steklov_bie(disk, 64, count=1).eigenvalues, [0.0])
    assert np.allclose(solve_steklov_bie(disk, 64, count=64).eigenvalues,
                       np.arange(64.0), rtol=1e-12, atol=0)
    with pytest.raises(ValueError, match="only 64 Steklov values"):
        solve_steklov_bie(disk, 64, count=65)


def test_lanczos_records_its_operator_applications(call_counter):
    # every application of S is one dsymv, summed over the two blocks
    blocks = _split(boundary_quadrature(annulus_domain(0.4), 330))
    calls = call_counter(pencil, "dsymv")
    spec = pencil.solve_general(*blocks, count=1)
    assert [b.n for b in blocks] == [329, 330] and spec.flags["solver"] == "lanczos"
    assert spec.flags["matvecs"] == len(calls)
    assert 20 <= len(calls) <= 100


def test_lanczos_route_passes_the_residual_gate(monkeypatch):
    # eigsh's vectors, perturbed, are no eigenvectors of the matrix it solved
    eigsh = pencil.spla.eigsh

    def perturbed(*args, **kwargs):
        mu, V = eigsh(*args, **kwargs)
        return mu, V + 1e-3 * np.random.default_rng(5).standard_normal(V.shape)

    monkeypatch.setattr(pencil.spla, "eigsh", perturbed)
    with pytest.raises(ValueError, match=r"relative residual .* exceeds gate 1e-09"):
        solve_steklov_bie(annulus_domain(0.5), 64, count=2)


def test_lanczos_turns_any_arpack_error_into_value_error(monkeypatch, disk):
    def failing(*args, **kwargs):
        raise pencil.spla.ArpackError(-9999)

    monkeypatch.setattr(pencil.spla, "eigsh", failing)
    with pytest.raises(ValueError, match="Lanczos failed: ARPACK error -9999"):
        solve_steklov_bie(disk, 64, count=2)


@pytest.mark.parametrize("n_per_curve, count, route",
                         [(660, 2, "lanczos"), (330, 660, "eigh")])
def test_default_gate_accepts_the_annulus_without_an_svd(n_per_curve, count, route,
                                                          call_counter):
    # either route factors one matrix per mirror block, the second-kind one,
    # and takes no SVD
    factored = [call_counter(la.lapack, "dgetrf"), call_counter(la, "lu_factor"),
                call_counter(la, "svdvals")]
    spec = solve_steklov_bie(annulus_domain(0.88), n_per_curve, count=count)
    assert spec.flags["solver"] == route
    assert len(spec.flags["blocks"]) == 2
    assert [len(c) for c in factored] == [2, 0, 0]


@pytest.mark.parametrize("radius, count, route", [
    (1e-11, 5, "lanczos"), (1e-11, 40, "eigh"), (1e-300, 5, "lanczos"),
    (1e-300, 40, "eigh"),
], ids=["1e-11-lanczos", "1e-11-eigh", "1e-300-lanczos", "1e-300-eigh"])
def test_tiny_hole_leaves_the_disk_spectrum(radius, count, route):
    # a hole of radius 1e-11 makes the single layer nearly singular
    # (cond 3.2e12 at 64 nodes per curve), and at 1e-300 rank-deficient,
    # but only A~ is factored, so the solve returns the disk's 0, 1, 1, 2,
    # 2; eigh drops the hole's rounding-level mu and returns the disk's
    # first 40 values
    dom = Domain("smooth-curves", circles=[((0.0, 0.0), 1.0, +1),
                                           ((0.0, 0.0), radius, -1)])
    spec = solve_steklov_bie(dom, 64, count=count)
    assert spec.flags["solver"] == route and len(spec) == count
    assert np.allclose(spec.eigenvalues[:5], [0, 1, 1, 2, 2], rtol=0, atol=1e-12)
    if route == "eigh":
        disk = reference.disk_spectra("steklov", count=count).values
        assert np.allclose(spec.eigenvalues, disk, rtol=0, atol=1e-9)


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
# mirror blocks
# ---------------------------------------------------------------------------

# centres on x = 0 (annuli), on y = 0.25 (three circles) and on neither line
Y_LINE = "c 0.1 0.25 1 ccw\nc 0.5 0.25 0.15 cw\nc -0.4 0.25 0.2 cw\n"
NO_LINE = "c 0 0 1 ccw\nc 0.3 0.2 0.1 cw\n"


def _unsplit(quad, count):
    """The whole problem's values for a Steklov `count`, as a solve takes
    them: the trivial classes are passed, so nothing splits."""
    return pencil.solve_general(*_ntd_whole(quad), count=max(count - 1, 1))


def _split(quad):
    """The mirror blocks as a solve builds them, from the kernels' mirror
    rows only."""
    return bie._deflated_pencil(quad, bie._mirror_classes(quad))


def _circle_file(tmp_path, text):
    path = tmp_path / "circles.curves"
    path.write_text(text)
    return load_domain(str(path))


@pytest.mark.parametrize("eps, n, count, route", [
    (0.4, 440, 201, "eigh"), (0.88, 330, 2, "lanczos")])
def test_mirror_blocks_match_the_unsplit_pencil(eps, n, count, route):
    dom = annulus_domain(eps)
    spec = solve_steklov_bie(dom, n, count=count)
    whole = _unsplit(boundary_quadrature(dom, n), count)
    assert spec.flags["solver"] == whole.flags["solver"] == route
    assert len(spec.flags["blocks"]) == 2 and sum(spec.flags["blocks"]) == 2 * n - 1
    want = whole.eigenvalues[:count - 1]
    assert np.max(np.abs(spec.eigenvalues[1:] - want) / want) <= 1e-12


@pytest.mark.parametrize("nodes, axis, fixed", [
    ([64, 64], 0, 4), ([66, 66], 0, 0), ([64, 30, 34], 1, 6)],
    ids=["x-line-fixed", "x-line-unfixed", "y-line"])
def test_mirror_classes_pair_the_reflected_nodes(nodes, axis, fixed, tmp_path):
    # x = 0 fixes nodes m/4 and 3m/4 only when 4 divides m; y = 0.25 fixes
    # nodes 0 and m/2 of every curve
    dom = annulus_domain(0.3) if axis == 0 else _circle_file(tmp_path, Y_LINE)
    line = dom.circles[0][0][axis]
    quad = boundary_quadrature(dom, nodes)
    J, P, F = bie._mirror_classes(quad)
    assert len(F) == fixed and 2 * len(J) + len(F) == quad.total
    mirrored = quad.points[J].copy()
    mirrored[:, axis] = 2 * line - mirrored[:, axis]
    assert np.max(np.abs(mirrored - quad.points[P])) < 1e-14
    assert np.all(np.abs(quad.points[F, axis] - line) < 1e-14)
    # both kernels commute with the node permutation
    pi = np.arange(quad.total)
    pi[J], pi[P] = P, J
    for M in assemble_kernels(quad, np.arange(quad.total)):
        assert _rel(M[np.ix_(pi, pi)], M) < 1e-13
    spec = solve_steklov_bie(dom, nodes, count=40)
    want = _unsplit(quad, 40).eigenvalues[:39]
    assert spec.flags["blocks"] == [len(J) + len(F) - 1, len(J)]
    assert np.max(np.abs(spec.eigenvalues[1:] - want) / want) <= 1e-12


@pytest.mark.parametrize("nodes, axis", [([64, 64], 0), ([66, 66], 0), ([64, 30, 34], 1)],
                         ids=["x-line-fixed", "x-line-unfixed", "y-line"])
def test_mirror_rows_are_the_rows_of_the_whole_kernels(nodes, axis, tmp_path):
    # the row-restricted assembly computes every entry and row sum as the
    # whole one does, so the solves' numbers do not move
    dom = annulus_domain(0.3) if axis == 0 else _circle_file(tmp_path, Y_LINE)
    quad = boundary_quadrature(dom, nodes)
    rows = bie._mirror_rows(bie._mirror_classes(quad))
    for whole, part in zip(assemble_kernels(quad, np.arange(quad.total)),
                           assemble_kernels(quad, rows)):
        assert part.shape == (len(rows), quad.total)
        assert np.array_equal(part, whole[rows])


def _kernels_by_difference_array(quad, rows):
    """S0 and K' in the plain form of the kernel formulas: the cross-curve
    blocks from a (rows, m, 2) difference array and two einsum calls, the
    self blocks from the log weights gathered by |i - j|."""
    S0 = np.empty((len(rows), quad.total))
    Kp = np.empty((len(rows), quad.total))
    offs = quad.offsets
    for a, ca in enumerate(quad.curves):
        out = np.flatnonzero((rows >= offs[a]) & (rows < offs[a + 1]))
        ia = rows[out] - offs[a]
        for b, cb in enumerate(quad.curves):
            ib = slice(offs[b], offs[b + 1])
            if a == b:
                R = cb.radius
                lag = np.abs(ia[:, None] - np.arange(cb.n)[None, :])
                S0[out, ib] = -(R / (2 * np.pi)) * (
                    0.5 * kress_log_weights(cb.n)[lag] + cb.h * np.log(R))
                Kp[out, ib] = -cb.orientation * cb.h / (4 * np.pi)
                continue
            d = ca.points[ia, None, :] - cb.points[None, :, :]
            r2 = np.einsum("ijk,ijk->ij", d, d)
            S0[out, ib] = -(1 / (4 * np.pi)) * np.log(r2) * cb.weights
            Kp[out, ib] = (-(1 / (2 * np.pi))
                           * np.einsum("ijk,ik->ij", d, ca.normals[ia]) / r2 * cb.weights)
    return S0, Kp


@pytest.mark.parametrize("text, n", [(None, 330), (None, 440), (NO_LINE, 330)],
                         ids=["annulus-330", "annulus-440", "no-line-330"])
def test_kernels_match_the_difference_array_formula_bit_for_bit(text, n, tmp_path):
    # the 2-D coordinate differences and the circulant window of the log
    # weights compute every entry as the plain formulas do; the no-line
    # domain's mirror rows are all of its rows
    dom = annulus_domain(0.4) if text is None else _circle_file(tmp_path, text)
    quad = boundary_quadrature(dom, n)
    for rows in (np.arange(quad.total), bie._mirror_rows(bie._mirror_classes(quad))):
        for got, want in zip(assemble_kernels(quad, rows),
                             _kernels_by_difference_array(quad, rows)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("text, rows", [(None, 66), (NO_LINE, 128)],
                         ids=["mirror", "no-line"])
def test_a_solve_assembles_only_the_rows_its_blocks_read(text, rows, tmp_path,
                                                         monkeypatch):
    # 64 nodes per curve on x = 0: 62 pairs and the 4 fixed nodes m/4, 3m/4;
    # a domain with no mirror line assembles all 128 rows
    dom = annulus_domain(0.4) if text is None else _circle_file(tmp_path, text)
    shapes, assemble = [], bie.assemble_kernels

    def recording(*args):
        kernels = assemble(*args)
        shapes.append([M.shape for M in kernels])
        return kernels

    monkeypatch.setattr(bie, "assemble_kernels", recording)
    solve_steklov_bie(dom, 64, count=5)
    assert shapes == [[(rows, 128), (rows, 128)]]


def test_domain_without_a_mirror_line_solves_the_whole_pencil(tmp_path):
    dom = _circle_file(tmp_path, NO_LINE)
    quad = boundary_quadrature(dom, 64)
    J, P, F = bie._mirror_classes(quad)
    assert len(J) == len(P) == 0 and np.array_equal(F, np.arange(quad.total))
    out = tmp_path / "out"
    assert cli.main(["solve", "--domain", dom.name, "--method", "bie", "--bc",
                     "steklov", "--n", "64", "--count", "20", "--out", str(out)]) == 0
    spec = solve_steklov_bie(dom, 64, count=20)
    assert spec.flags["blocks"] == [127]
    want = np.concatenate([[0.0], _unsplit(quad, 20).eigenvalues])
    assert np.array_equal(spec.eigenvalues, want[:20])
    # the CSV is byte for byte the one the whole-pencil values give
    cli._write_spectrum(str(tmp_path), want[:20], "bie", "n=64", dom.name)
    assert (out / "spectrum.csv").read_bytes() == (tmp_path / "spectrum.csv").read_bytes()


@pytest.mark.parametrize("text", [None, NO_LINE], ids=["annulus", "no-line"])
def test_trivial_reflection_block_is_the_whole_deflated_pencil(text, tmp_path):
    # with no pairs the even basis is the node basis, so the one block is
    # bit for bit the Neumann-to-Dirichlet map of the whole kernels, deflated
    dom = annulus_domain(0.4) if text is None else _circle_file(tmp_path, text)
    quad = boundary_quadrature(dom, 64)
    w = quad.weights
    d = np.sqrt(w)
    S0, Kp = assemble_kernels(quad, np.arange(quad.total))
    blocks = _ntd_whole(quad)
    assert len(blocks) == 1
    assert np.array_equal(blocks[0].matrix,
                          bie._reflect(bie._ntd_block(S0, Kp, d, w / w.sum()), d))


@pytest.mark.parametrize("text, orders", [(None, [65, 62]), (NO_LINE, [127])],
                         ids=["mirror", "no-line"])
def test_deflated_pencil_returns_its_nonempty_blocks(text, orders, tmp_path):
    # 64 nodes per curve on x = 0: 62 pairs and 4 fixed nodes give an even
    # block of 62 + 4 - 1 and an odd one of 62; with no mirror line the odd
    # block is empty and left out
    dom = annulus_domain(0.4) if text is None else _circle_file(tmp_path, text)
    quad = boundary_quadrature(dom, 64)
    blocks = _split(quad)
    assert isinstance(blocks, tuple)
    assert all(isinstance(b, pencil.SelfAdjoint) for b in blocks)
    assert [b.n for b in blocks] == orders
    assert sum(orders) == quad.total - 1


@pytest.mark.parametrize("text", [None, NO_LINE], ids=["annulus", "no-line"])
def test_ntd_blocks_match_explicit_construction(text, tmp_path):
    # T = W^1/2 P S0 A~^-1 W^-1/2 on the nodes, whose left null vector
    # W^1/2 1 is deflated by a QR basis of its complement: the whole block
    # is that matrix in another orthonormal basis of the same complement,
    # and the mirror blocks hold its values
    dom = annulus_domain(0.4) if text is None else _circle_file(tmp_path, text)
    quad = boundary_quadrature(dom, 48)
    n, w = quad.total, quad.weights
    p = w / w.sum()
    S0, Kp = assemble_kernels(quad, np.arange(n))
    At = 0.5 * np.eye(n) + Kp + np.outer(np.ones(n), p)
    N = (np.eye(n) - np.outer(np.ones(n), p)) @ S0 @ np.linalg.inv(At)
    root = np.sqrt(w)
    T = root[:, None] * N / root
    assert np.max(np.abs(root @ T)) < 1e-13 * np.abs(T).max()
    Q = la.qr(root[:, None], mode="full")[0][:, 1:]
    ref = Q.T @ T @ Q
    want = np.sort(np.linalg.eigvals(ref).real)
    (whole,) = _ntd_whole(quad)
    assert isinstance(whole, pencil.SelfAdjoint) and whole.n == n - 1
    assert _rel(np.linalg.norm(whole.matrix), np.linalg.norm(ref)) < 1e-12
    assert _rel(np.sort(np.linalg.eigvals(whole.matrix).real), want) < 1e-12
    blocks = _split(quad)
    got = np.sort(np.concatenate([np.linalg.eigvals(b.matrix).real for b in blocks]))
    assert [b.n for b in blocks] == ([49, 46] if text is None else [n - 1])
    assert _rel(got, want) < 1e-12


def test_flags_record_the_blocks_their_residual_and_matvecs(tmp_path):
    quad = boundary_quadrature(annulus_domain(0.4), 330)
    blocks = _split(quad)
    each = [pencil.solve_general(b, count=1) for b in blocks]
    spec = solve_steklov_bie(annulus_domain(0.4), 330, count=2)
    assert spec.flags["blocks"] == [b.n for b in blocks] == [329, 330]
    assert [s.flags["solver"] for s in each] == ["lanczos", "lanczos"]
    assert spec.flags["residual"] == max(s.flags["residual"] for s in each)
    assert spec.flags["matvecs"] == sum(s.flags["matvecs"] for s in each)
    skew = solve_steklov_bie(_circle_file(tmp_path, NO_LINE), 330, count=2)
    assert skew.flags["blocks"] == [659]
    assert skew.flags["solver"] == "lanczos" and skew.flags["matvecs"] > 0


def test_concentric_blocks_have_exactly_real_values():
    # the whole mean-free pencil returns cos/sin pairs as near-real complex
    # values; the even and odd blocks hold one of each, and even the
    # nonsymmetric T of every block has real values only
    quad = boundary_quadrature(annulus_domain(0.0), 256)
    A, B = _mean_free_pencil(quad)
    assert np.count_nonzero(la.eigvals(la.lu_solve(la.lu_factor(A), B)).imag) > 0
    for b in _split(quad):
        assert np.count_nonzero(la.eigvals(b.matrix).imag) == 0
    spec = solve_steklov_bie(annulus_domain(0.0), 256, count=20)
    ref = reference.concentric_annulus_steklov(0.1, count=20)
    assert list(pencil.cluster(spec.eigenvalues)[0]) == [m for _, m in ref.pairs()]


# ---------------------------------------------------------------------------
# BLAS threads
# ---------------------------------------------------------------------------

def test_bie_blas_runs_on_one_thread_and_restores_each_pool(monkeypatch, blas_pools):
    # the kernel build and A~'s LU (in _deflated_pencil), Lanczos and eigh
    # (in solve_general) see every pool at one thread; after each return, a
    # zero pivot of A~ and a gate rejection every pool is back at its entry
    # count, 2
    set_blas_threads(blas_pools, 2)
    entry = blas_threads(blas_pools)
    inside = []

    def spy(owner, name, body=None):
        original = getattr(owner, name)

        def spying(*args, **kwargs):
            inside.append(blas_threads(blas_pools))
            return (body or original)(*args, **kwargs)

        monkeypatch.setattr(owner, name, spying)
        return original

    quad = boundary_quadrature(annulus_domain(0.4), 64)
    mirror = bie._mirror_classes(quad)
    assemble = spy(bie, "assemble_kernels")
    eigh = spy(pencil.la, "eigh")
    spy(pencil.spla, "eigsh")
    blocks = bie._deflated_pencil(quad, mirror)
    assert blas_threads(blas_pools) == entry == [2] * len(blas_pools)
    assert pencil.solve_general(*blocks, count=1).flags["solver"] == "lanczos"
    assert blas_threads(blas_pools) == entry
    assert pencil.solve_general(*blocks, count=60).flags["solver"] == "eigh"
    assert blas_threads(blas_pools) == entry

    def singular(quad, rows):
        # K' = -1/2 I makes A~ = 1 p^T, whose second LU pivot is exactly zero
        S0, _ = assemble(quad, rows)
        return S0, -0.5 * np.eye(quad.total)[rows]

    spy(bie, "assemble_kernels", singular)
    with pytest.raises(ValueError, match="is exactly zero"):
        bie._deflated_pencil(quad, mirror)
    assert blas_threads(blas_pools) == entry

    def perturbed(*args, **kwargs):
        mu, V = eigh(*args, **kwargs)
        return mu, V + 1e-3 * np.random.default_rng(5).standard_normal(V.shape)

    spy(pencil.la, "eigh", perturbed)
    with pytest.raises(ValueError, match="exceeds gate"):
        pencil.solve_general(*blocks, count=60)
    assert blas_threads(blas_pools) == entry
    # kernels, eigsh on two blocks, eigh on two, the singular kernels, and
    # the rejected eigh
    assert inside == [[1] * len(blas_pools)] * 7


@pytest.mark.parametrize("n, count, route", [(330, 2, "lanczos"), (440, 201, "eigh")])
def test_bie_values_do_not_depend_on_the_callers_blas_threads(n, count, route, blas_pools):
    # the sweep's sigma_1 (Lanczos) and the 201-value solve (eigh) of the
    # annulus at offset 0.4, with the caller's pools at 2 threads and at 1
    spectra = []
    for threads in (2, 1):
        set_blas_threads(blas_pools, threads)
        spectra.append(solve_steklov_bie(annulus_domain(0.4), n, count=count))
    assert [s.flags["solver"] for s in spectra] == [route, route]
    assert np.array_equal(spectra[0].eigenvalues, spectra[1].eigenvalues)


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
    # a repeated k wrote its rows twice
    with pytest.raises(ValueError, match=r"repeats a mode index: \[1, 2, 1\]"):
        sweep_annulus([0.1], 64, [1, 2, 1])


@pytest.mark.parametrize("eps_grid, k_list, name", [
    ([], [1], "eps_grid"), ([0.3], [], "k_list")], ids=["eps_grid", "k_list"])
def test_sweep_rejects_an_empty_list_before_any_solve(eps_grid, k_list, name,
                                                      call_counter):
    solves = call_counter(bie, "solve_steklov_bie")
    with pytest.raises(ValueError, match=f"^{name} is empty"):
        sweep_annulus(eps_grid, 64, k_list)
    assert solves == []
