import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapspec import reference, specfun

# first zeros of J_0, J_1 and J'_1 (DLMF §10.21)
J01 = 2.404825557695773
J11 = 3.831705970207512
JP11 = 1.841183781340659


def test_first_zero_of_j0():
    # the unit-disk Dirichlet ground state is j_{0,1}^2
    lam = reference.disk_spectra("dirichlet", count=1)[0]
    assert abs(np.sqrt(lam) - J01) < 1e-10


def test_j0_at_origin():
    assert specfun.bessel_j(0.0, 0.0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("nu,x", [(-1.0, 1.0), (250.0, 1.0), (0.0, -2.0), (0.0, 2.0e4)])
def test_domain_violations_raise(nu, x):
    with pytest.raises(ValueError):
        specfun.bessel_j(nu, x)


def test_half_order_closed_form():
    # J_{1/2}(x) = sqrt(2/(pi x)) sin x
    x = np.linspace(0.5, 60.0, 200)
    closed = np.sqrt(2.0 / (np.pi * x)) * np.sin(x)
    assert np.max(np.abs(specfun.bessel_j(0.5, x) - closed)) < 1e-10


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
    # unit-disk Neumann: 0, j'_{1,1}^2 twice, j'_{2,1}^2 twice, then the n = 0
    # value j'_{0,1}^2 = j_{1,1}^2 once (x = 0 is not counted as a zero)
    pairs = reference.disk_spectra("neumann", count=7).pairs()
    assert abs(np.sqrt(pairs[1][0]) - JP11) < 1e-10
    assert pairs[1][1] == 2
    assert abs(np.sqrt(pairs[3][0]) - J11) < 1e-10
    assert pairs[3][1] == 1
