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


def test_adjoint_double_layer_constant_on_circle(disk):
    quad = boundary_quadrature(disk, 40)
    S0, Kp = bie._raw_kernels(quad)
    # on a circle the kernel (x-y).n(x) / |x-y|^2 is identically 1/2, so every
    # matrix entry, diagonal included, equals -(1/4pi) * (2pi/N)
    expected = -(1.0 / (4 * np.pi)) * (2 * np.pi / 40)
    assert np.max(np.abs(Kp - expected)) < 1e-14


def test_gauss_jump_identity_on_circle(disk):
    quad = boundary_quadrature(disk, 64)
    S0, Kp = bie._raw_kernels(quad)
    resid = (0.5 * np.eye(64) + Kp) @ np.ones(64)
    assert np.max(np.abs(resid)) < 1e-13


def test_single_layer_fourier_symbol_on_circle(disk):
    # S0 acts on cos(n theta) as multiplication by 1/(2n) on the unit circle
    quad = boundary_quadrature(disk, 64)
    S0, _ = bie._raw_kernels(quad)
    theta = np.arctan2(quad.points[:, 1], quad.points[:, 0])
    for n in (1, 2, 3, 5, 8):
        f = np.cos(n * theta)
        assert np.max(np.abs(S0 @ f - f / (2 * n))) < 1e-12


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
    assert spec.multiplicity_pattern() == [1, 2, 2, 2, 2, 2]
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
    base = solve_steklov_bie(annulus_domain(0.4), 128).eigenvalues[:30]
    phi = np.pi / 6
    c = (0.4 * -np.sin(phi), 0.4 * np.cos(phi))
    rot = Domain("smooth-curves",
                 circles=[((0.0, 0.0), 1.0, +1), (c, 0.1, -1)],
                 name="rotated")
    vals = solve_steklov_bie(rot, 128).eigenvalues[:30]
    assert np.max(np.abs(vals - base)) < 1e-10


def test_off_center_spectrum_reflection_invariant():
    base = solve_steklov_bie(annulus_domain(0.3), 96).eigenvalues[:25]
    refl = Domain("smooth-curves",
                  circles=[((0.0, 0.0), 1.0, +1), ((0.0, -0.3), 0.1, -1)],
                  name="reflected")
    vals = solve_steklov_bie(refl, 96).eigenvalues[:25]
    assert np.max(np.abs(vals - base)) < 1e-12


def test_spectrum_real_nonnegative_ascending():
    spec = shared_bie(0.88, 260)
    v = spec.eigenvalues
    assert np.isrealobj(v)
    assert v[0] == 0.0
    assert np.all(v >= 0.0)
    assert np.all(np.diff(v) >= 0)


def test_resolution_jump_cuts_error_by_three_decades():
    # the pinned tenth eigenvalue of the hardest offset; doubling the nodes
    # must improve it by at least 10^3 (spectral convergence)
    pinned = 4.438646399422233
    err = {n: abs(shared_bie(0.88, n).eigenvalues[10] - pinned)
           for n in (260, 520)}
    assert err[260] / max(err[520], 1e-16) >= 1e3


def test_lu_reduced_solve_matches_qz_on_the_deflated_annulus():
    quad = boundary_quadrature(annulus_domain(0.85), [330, 330])
    A, B = bie._deflated_pencil(*assemble_kernels(quad))
    ref = np.sort(la.eig(A, B, right=False).real)[:201]
    got = pencil.solve_general(pencil.Pencil(A, B)).eigenvalues
    assert np.isrealobj(got)
    assert np.max(np.abs(got[:201] - ref) / np.abs(ref)) < 1e-10


def test_ill_conditioned_pencil_halves_the_nodes(monkeypatch):
    # the projected single layer of the concentric annulus has condition
    # 1.66e3 at 330 nodes per curve and 8.2e2 at 164
    calls = []
    cond = np.linalg.cond

    def counting_cond(*args, **kwargs):
        calls.append(1)
        return cond(*args, **kwargs)

    monkeypatch.setattr(pencil, "COND_GATE", 1.2e3)
    monkeypatch.setattr(np.linalg, "cond", counting_cond)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = solve_steklov_bie(annulus_domain(0.0), 330, count=20)
    assert len(caught) == 1
    assert "retrying with nodes [164, 164]" in str(caught[0].message)
    assert spec.flags["n_per_curve"] == [164, 164]
    assert spec.param == 328
    assert len(calls) == 2
    exact = reference.concentric_annulus_steklov(0.1, count=20).values
    assert np.max(np.abs(spec.eigenvalues - exact)) < 1e-10


def test_polygon_domain_rejected(square):
    with pytest.raises(ValueError):
        solve_steklov_bie(square, 64)


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


def test_sweep_reports_the_node_count_after_a_halving(monkeypatch):
    # the setup of test_ill_conditioned_pencil_halves_the_nodes
    monkeypatch.setattr(pencil, "COND_GATE", 1.2e3)
    with pytest.warns(UserWarning, match="retrying with nodes \\[164, 164\\]"):
        rows = sweep_annulus([0.0], 330, [1])
    assert [r[4] for r in rows] == [328]


def test_sweep_rejects_bad_grid():
    with pytest.raises(ValueError):
        sweep_annulus([-0.1], 64, [1])
    with pytest.raises(ValueError):
        sweep_annulus([0.95], 64, [1])
    with pytest.raises(ValueError):
        sweep_annulus([0.1], 64, [0])
