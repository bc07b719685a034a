import numpy as np
import pytest
from hypothesis import example, given, settings
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


@pytest.mark.parametrize("nu,x", [(-1.0, 1.0), (250.0, 1.0), (0.0, -2.0), (0.0, 2.0e4),
                                  (np.nan, 1.0), (1.0, np.nan)])
def test_domain_violations_raise(nu, x):
    # NaN fails every comparison, so it must fail the domain check too
    with pytest.raises(ValueError, match="outside accuracy domain"):
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


_ALPHAS = st.one_of(
    st.builds(lambda p, q: p / q, st.integers(1, 12), st.integers(1, 4)),
    st.sampled_from([np.sqrt(2.0), np.e / 2, 2.0 / 3.0 + 1e-9]))


@settings(max_examples=80, deadline=None)
@given(alpha=_ALPHAS, fill=st.floats(0.0, 1.0),
       log_xmax=st.floats(-30.0, np.log10(specfun.X_MAX)))
@example(alpha=2.0 / 3.0, fill=1.0, log_xmax=-20.0)     # top seed underflows
@example(alpha=4.0 / 3.0, fill=0.07, log_xmax=-25.0)    # 14-term fan, tiny x
@example(alpha=0.25, fill=1.0, log_xmax=4.0)             # 800 orders to x = 1e4
@example(alpha=2.0 / 3.0 + 1e-9, fill=0.05, log_xmax=2.0)
def test_order_table_matches_per_order_values(alpha, fill, log_xmax):
    # a fan alpha*k, k = 1..size, with top order up to NU_MAX, on a grid
    # from x = 0 to 10^log_xmax
    size = max(1, int(fill * (specfun.NU_MAX - 1e-6) / alpha))
    orders = alpha * np.arange(1, size + 1)
    x = np.linspace(0.0, 10.0 ** log_xmax, 40)
    per_order = specfun.bessel_j(orders[None, :], x[:, None])
    gap = np.abs(specfun.bessel_j_orders(orders, x) - per_order)
    assert np.all(gap <= 1e-12 * np.abs(per_order).max(axis=0))


def test_order_table_at_zero_argument():
    table = specfun.bessel_j_orders(np.array([0.0, 1.0, 2.0, 2.5]), np.zeros(3))
    assert np.array_equal(table, np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)))


@pytest.mark.parametrize("alpha,seeds", [(2.0 / 3.0, 6), (2.0 / 3.0 + 1e-9, 14)])
def test_near_rational_orders_do_not_share_a_recurrence(jv_orders, alpha, seeds):
    specfun.bessel_j_orders(alpha * np.arange(1, 15), np.linspace(0.0, 30.0, 7))
    assert sum(jv_orders) == seeds


def test_order_table_checks_the_domain():
    with pytest.raises(ValueError):
        specfun.bessel_j_orders(np.array([150.0, 250.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        specfun.bessel_j_orders(np.array([1.0, 2.0]), np.array([-1.0]))


# measured against 40-digit mpmath on the samples below: at most 7.3e-13 of
# max(|J|, sqrt(2/(pi x))) for x <= RECUR_X_MAX, where the order table
# recurs, and 1.01e-11 beyond it, where it takes jv's own values (1.8e-12
# at nu = 192, x = 1e4); each bound is about three times the measurement
_MPMATH_RTOL = {True: 2e-12, False: 3e-11}
_MPMATH_X = np.array([0.01, 0.5, 3.0, 30.0, 150.0, 199.0, 201.0, 999.0,
                      1001.0, 5000.0, 9999.0, 1e4])


def _mpmath_gap(values, orders, x):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        exact = np.array([[float(mpmath.besselj(mpmath.mpf(float(nu)),
                                                mpmath.mpf(float(xi))))
                           for nu in orders] for xi in x])
    scale = np.maximum(np.abs(exact), np.sqrt(2.0 / (np.pi * x))[:, None])
    gap = np.abs(values - exact) / scale
    for low in (True, False):
        rows = (x <= specfun.RECUR_X_MAX) == low
        assert gap[rows].max() <= _MPMATH_RTOL[low], (low, gap[rows].max())


def test_bessel_j_matches_mpmath_across_the_accuracy_domain():
    orders = np.array([0.0, 0.5, 1.0, 7.3, 25.0, 60.5, 100.0, 137.9, 150.0,
                       175.2, 192.0, 199.5, 200.0])
    _mpmath_gap(specfun.bessel_j(orders[None, :], _MPMATH_X[:, None]),
                orders, _MPMATH_X)


@pytest.mark.parametrize("alpha", [2.0 / 3.0, 2.0, np.pi / 2.2])
def test_order_table_matches_mpmath_across_the_accuracy_domain(alpha):
    # every sixth order of a fan that reaches NU_MAX, and its top order
    orders = alpha * np.arange(1, int(specfun.NU_MAX / alpha) + 1)
    cols = np.r_[0:orders.size:6, orders.size - 1]
    table = specfun.bessel_j_orders(orders, _MPMATH_X)
    _mpmath_gap(table[:, cols], orders[cols], _MPMATH_X)


@pytest.mark.parametrize("orders,x", [([1.0, np.nan], [1.0]), ([1.0, 2.0], [np.nan]),
                                      ([np.inf], [1.0])])
def test_order_table_rejects_non_finite_input_before_the_plan(orders, x):
    before = specfun._order_plan.cache_info().misses
    with pytest.raises(ValueError, match="outside accuracy domain"):
        specfun.bessel_j_orders(orders, x)
    assert specfun._order_plan.cache_info().misses == before


def test_order_table_rejects_an_empty_order_list():
    with pytest.raises(ValueError, match="order list is empty"):
        specfun.bessel_j_orders([], [1.0])


def _unmemoized_table(orders, x):
    """The order table as computed before the plan was memoized, kept as
    the oracle: class plan, seeds, recurrence and jv rows on every call."""
    nu = np.ravel(np.asarray(orders, dtype=float))
    x = np.ravel(np.asarray(x, dtype=float))
    desc = np.argsort(-nu, kind="stable")
    d = nu[desc][:, None] - nu[desc][None, :]
    same = np.abs(d - np.round(d)) <= specfun.CLASS_RTOL * max(1.0, nu.max())
    top = np.empty(nu.size, dtype=int)
    top[desc] = desc[np.argmax(same, axis=1)]
    tops, cls = np.unique(nu[top], return_inverse=True)
    steps = np.round(nu[top] - nu).astype(int)
    recur = np.bincount(cls, weights=steps) > 0
    seeds = specfun.bessel_j(np.concatenate([tops, tops[recur] - 1])[None, :],
                             x[:, None])
    ladder = np.zeros((steps.max() + 1, x.size, tops.size))
    ladder[0] = seeds[:, :tops.size]
    if ladder.shape[0] > 1:
        ladder[1][:, recur] = seeds[:, tops.size:]
    two_over_x = 2.0 / np.where(x > 0, x, 1.0)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(2, ladder.shape[0]):
            ladder[j] = (tops - j + 1) * two_over_x * ladder[j - 1] - ladder[j - 2]
    out = ladder[steps, :, cls].T
    direct = ((np.abs(ladder[0]) < specfun.SEED_FLOOR)
              | (x[:, None] > specfun.RECUR_X_MAX)) & recur
    direct = direct[:, cls] & (x[:, None] > 0)
    rows = direct.any(axis=1)
    if rows.any():
        exact = specfun.bessel_j(nu[None, :], x[rows][:, None])
        out[rows] = np.where(direct[rows], exact, out[rows])
    out[x == 0] = nu == 0
    return out


@settings(max_examples=40, deadline=None)
@given(alpha=_ALPHAS, fill=st.floats(0.0, 1.0),
       log_xmax=st.floats(-30.0, np.log10(specfun.X_MAX)))
@example(alpha=2.0 / 3.0, fill=1.0, log_xmax=-20.0)     # top seed underflows
@example(alpha=4.0 / 3.0, fill=0.07, log_xmax=-25.0)    # 14-term fan, tiny x
@example(alpha=0.25, fill=1.0, log_xmax=4.0)             # 800 orders to x = 1e4
@example(alpha=2.0 / 3.0 + 1e-9, fill=0.05, log_xmax=2.0)
def test_memoized_table_is_bitwise_the_unmemoized_one(alpha, fill, log_xmax):
    # the fans of test_order_table_matches_per_order_values, each grid
    # starting at x = 0; the second call reads the plan from the memo
    size = max(1, int(fill * (specfun.NU_MAX - 1e-6) / alpha))
    orders = alpha * np.arange(1, size + 1)
    x = np.linspace(0.0, 10.0 ** log_xmax, 40)
    oracle = _unmemoized_table(orders, x)
    assert np.array_equal(specfun.bessel_j_orders(orders, x), oracle)
    assert np.array_equal(specfun.bessel_j_orders(orders, x), oracle)


def test_order_plan_is_built_once_per_order_set_and_read_only():
    specfun._order_plan.cache_clear()
    fan = 2.0 / 3.0 * np.arange(1, 15)
    for x in (np.linspace(0.0, 30.0, 7), np.linspace(1.0, 5.0, 3), [2.0]):
        specfun.bessel_j_orders(fan, x)
        specfun.bessel_j_orders(list(fan[:6]), x)
    info = specfun._order_plan.cache_info()
    assert (info.misses, info.hits) == (2, 4)
    for a in specfun._order_plan(fan.tobytes()):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = a[0]
