import numpy as np
import pytest
import scipy.linalg as la

from lapspec import reference
from lapspec.reference import (annulus_mode_pair, concentric_annulus_steklov,
                               disk_spectra, rectangle_spectra)

from conftest import union_spectrum


def test_disk_steklov_small_radius():
    spec = disk_spectra("steklov", radius=0.1, count=5)
    assert np.allclose(spec.values, [0.0, 10.0, 10.0, 20.0, 20.0], atol=1e-14)
    assert spec.pairs() == [(0.0, 1), (10.0, 2), (20.0, 2)]


def test_disk_dirichlet_head():
    spec = disk_spectra("dirichlet", count=6)
    # first zeros of J_0, J_1, J_2 (DLMF §10.21)
    j01, j11, j21 = 2.404825557695773, 3.831705970207512, 5.135622301840683
    assert spec[0] == pytest.approx(j01**2, abs=1e-12)
    assert spec[1] == spec[2] == pytest.approx(j11**2, abs=1e-12)
    assert spec[3] == spec[4] == pytest.approx(j21**2, abs=1e-12)


def test_disk_neumann_starts_at_zero():
    spec = disk_spectra("neumann", count=4)
    assert spec[0] == 0.0
    jp11 = 1.841183781340659   # first zero of J'_1 (DLMF §10.21)
    assert spec[1] == spec[2] == pytest.approx(jp11**2, abs=1e-12)


def test_disk_radius_scaling():
    a = disk_spectra("dirichlet", radius=1.0, count=10)
    b = disk_spectra("dirichlet", radius=2.0, count=10)
    assert np.allclose(b.values, a.values / 4.0, rtol=1e-13)


def test_disk_rejects_bad_input():
    with pytest.raises(ValueError):
        disk_spectra("dirichlet", radius=-1.0)
    with pytest.raises(ValueError):
        disk_spectra("robin")


def test_rectangle_dirichlet_lattice():
    spec = rectangle_spectra("dirichlet", count=5)
    assert np.allclose(spec.values, np.pi**2 * np.array([2, 5, 5, 8, 10]), rtol=1e-14)


def test_rectangle_neumann_lattice():
    spec = rectangle_spectra("neumann", count=5)
    assert np.allclose(spec.values, np.pi**2 * np.array([0, 1, 1, 2, 4]), rtol=1e-14)


def test_rectangle_mixed_top_neumann():
    # Dirichlet sides and bottom, Neumann top: quarter-wave shift in y
    spec = rectangle_spectra("mixed", neumann_sides=("top",), count=3)
    assert spec[0] == pytest.approx(1.25 * np.pi**2, rel=1e-14)
    assert spec[1] == pytest.approx((1 + 2.25) * np.pi**2, rel=1e-14)


def test_rectangle_anisotropic():
    spec = rectangle_spectra("dirichlet", a=2.0, b=1.0, count=3)
    lam = lambda m, n: np.pi**2 * ((m / 2.0) ** 2 + n**2)
    assert np.allclose(spec.values, sorted([lam(1, 1), lam(2, 1), lam(3, 1)]), rtol=1e-14)


def test_rectangle_rejects_nonseparable_mask():
    with pytest.raises(ValueError):
        rectangle_spectra("mixed", neumann_sides=("top", "right"))
    with pytest.raises(ValueError):
        rectangle_spectra("mixed", neumann_sides=("north",))


# ---------------------------------------------------------------------------
# concentric annulus
# ---------------------------------------------------------------------------

def test_annulus_radial_mode_value():
    # the simple radial eigenfunction a + b log r contributes
    # -(1 + 1/rho)/log(rho); angular pairs sort in around it
    spec = concentric_annulus_steklov(0.1, count=20)
    assert spec[0] == 0.0
    radial = -(1 + 10.0) / np.log(0.1)
    assert radial == pytest.approx(4.777239300935770, abs=1e-13)
    assert np.min(np.abs(spec.values - radial)) < 1e-12


def _mode_pair_oracle(rho, n):
    """Direct 2x2 pencil for u = (a r^n + b r^-n) trig(n theta).

    Row 1: outer circle r=1, outward normal +r_hat.
    Row 2: inner circle r=rho, outward normal -r_hat.
    """
    A = np.array([[n, -n],
                  [-n * rho ** (n - 1), n * rho ** (-n - 1)]], dtype=float)
    B = np.array([[1.0, 1.0],
                  [rho**n, rho ** (-n)]])
    vals = la.eig(A, B, right=False)
    assert np.max(np.abs(vals.imag)) < 1e-12
    return np.sort(vals.real)


@pytest.mark.parametrize("rho,n", [(0.1, 1), (0.1, 3), (0.5, 1), (0.5, 7), (0.8, 2)])
def test_annulus_mode_pair_against_direct_pencil(rho, n):
    lo, hi = annulus_mode_pair(rho, n)
    ref = _mode_pair_oracle(rho, n)
    assert lo == pytest.approx(ref[0], rel=1e-12)
    assert hi == pytest.approx(ref[1], rel=1e-12)
    assert 0 < lo < hi


def test_annulus_mode_pair_large_n_limits():
    rho = 0.3
    lo, hi = annulus_mode_pair(rho, 40)
    assert lo == pytest.approx(40.0, rel=1e-10)
    assert hi == pytest.approx(40.0 / rho, rel=1e-10)


def test_annulus_outer_radius_scaling():
    a = concentric_annulus_steklov(0.1, 1.0, count=12)
    b = concentric_annulus_steklov(0.2, 2.0, count=12)
    assert np.allclose(b.values, a.values / 2.0, rtol=1e-12)


def test_annulus_approaches_disk_as_hole_shrinks(capsys):
    # observed, not asserted: the angular modes limit to the disk values n/R
    disk = disk_spectra("steklov", count=7)
    for r in (1e-2, 1e-4, 1e-6):
        ann = concentric_annulus_steklov(r, count=7)
        lo_modes = [annulus_mode_pair(r, n)[0] for n in (1, 2, 3)]
        dev = np.max(np.abs(np.asarray(lo_modes) - np.array([1.0, 2.0, 3.0])))
        print(f"r_inner={r:g}: max |sigma_n - n| over n<=3 is {dev:.3e}")
    del disk, ann


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda c: disk_spectra("dirichlet", count=c),
    lambda c: disk_spectra("neumann", count=c),
    lambda c: disk_spectra("steklov", count=c),
    lambda c: rectangle_spectra("dirichlet", count=c),
    lambda c: concentric_annulus_steklov(0.25, count=c),
])
def test_ascending_and_stable_under_larger_window(make):
    # regenerating with a larger window must reproduce the prefix exactly:
    # no eigenvalue near the cut may be missed or misordered
    short = make(25)
    long = make(60)
    assert np.all(np.diff(long.values) >= 0)
    assert np.array_equal(short.values, long.values[:25])


def test_union_is_sorted_merge():
    a = disk_spectra("steklov", count=5)
    b = rectangle_spectra("dirichlet", count=5)
    u = union_spectrum(a, b, 10)
    assert np.array_equal(u.values, np.sort(np.concatenate([a.values, b.values])))


def test_union_of_copies_doubles_multiplicity():
    a = disk_spectra("steklov", count=5)
    u = union_spectrum(a, a, 10)
    assert u.pairs() == [(0.0, 2), (1.0, 4), (2.0, 4)]


def test_union_rejects_short_inputs():
    a = disk_spectra("steklov", count=3)
    with pytest.raises(ValueError):
        union_spectrum(a, a, 20)


def test_analytic_spectrum_rejects_descending():
    with pytest.raises(ValueError):
        reference.AnalyticSpectrum([2.0, 1.0])
