import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jn_zeros

from lapspec import specfun


def test_first_zero_of_j0():
    assert abs(specfun.bessel_j_zero(0, 1) - 2.404825557695773) < 1e-10


def test_j0_at_origin():
    assert specfun.bessel_j(0.0, 0.0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("nu,x", [(-1.0, 1.0), (250.0, 1.0), (0.0, -2.0), (0.0, 2.0e4)])
def test_domain_violations_raise(nu, x):
    with pytest.raises(ValueError):
        specfun.bessel_j(nu, x)


def test_zero_finder_matches_scipy_tables():
    # independent check against scipy's dedicated integer-order zero tables
    for n in (0, 1, 3, 7):
        ours = [specfun.bessel_j_zero(n, k) for k in range(1, 9)]
        ref = jn_zeros(n, 8)
        assert np.max(np.abs(np.asarray(ours) - ref)) < 1e-10


def test_fractional_order_zero_is_a_zero():
    for nu in (0.5, 2.0 / 3.0, 4.0 / 3.0, 17.25):
        for k in (1, 2, 5):
            z = specfun.bessel_j_zero(nu, k)
            assert abs(specfun.bessel_j(nu, z)) <= 1e-10


def test_half_order_closed_form():
    # J_{1/2}(x) = sqrt(2/(pi x)) sin x, so its zeros are k*pi
    for k in (1, 2, 3, 4):
        assert abs(specfun.bessel_j_zero(0.5, k) - k * np.pi) < 1e-10


def test_zeros_interlace():
    z0 = [specfun.bessel_j_zero(2.3, k) for k in range(1, 7)]
    z1 = [specfun.bessel_j_zero(3.3, k) for k in range(1, 7)]
    for a, b, c in zip(z0[:-1], z1, z0[1:]):
        assert a < b < c


@settings(max_examples=60, deadline=None)
@given(
    nu=st.floats(min_value=1.0, max_value=50.0),
    x=st.floats(min_value=0.5, max_value=80.0),
)
def test_three_term_recurrence(nu, x):
    lhs = specfun.bessel_j(nu - 1, x) + specfun.bessel_j(nu + 1, x)
    rhs = 2.0 * nu / x * specfun.bessel_j(nu, x)
    scale = max(abs(lhs), abs(rhs), 1e-300)
    assert abs(lhs - rhs) <= 1e-10 * max(scale, 1.0)


def test_recurrence_on_random_grid(rng):
    nu = rng.uniform(1.0, 40.0, size=200)
    x = rng.uniform(0.5, 60.0, size=200)
    lhs = specfun.bessel_j(nu - 1, x) + specfun.bessel_j(nu + 1, x)
    rhs = 2.0 * nu / x * specfun.bessel_j(nu, x)
    denom = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
    assert np.max(np.abs(lhs - rhs) / denom) < 1e-10


def test_broadcasting_matches_scalar_loop():
    nus = np.array([0.0, 1.5, 4.0])
    xs = np.array([[1.0], [7.5]])
    grid = specfun.bessel_j(nus, xs)
    assert grid.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            assert grid[i, j] == specfun.bessel_j(nus[j], xs[i, 0])


def test_deriv_zero_finder():
    # j'_{0,1} coincides with j_{1,1}; j'_{1,1} = 1.8411837813406593
    assert abs(specfun.bessel_jp_zero(0, 1) - specfun.bessel_j_zero(1, 1)) < 1e-10
    assert abs(specfun.bessel_jp_zero(1, 1) - 1.8411837813406593) < 1e-10
