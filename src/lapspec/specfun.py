"""Real-order Bessel J evaluation inside an enforced accuracy domain.

Values come from scipy's AMOS-backed `jv`; this module adds the domain
checks and the downward recurrence of `bessel_j_orders`. A row of that
table takes `jv` for every order of a class instead when the class's top
seed is below 1e-250 (digits lost to underflow, which the recurrence cannot
recover) or x exceeds 1e3 (where `jv`'s high-order seeds carry errors near
1e-12 of the envelope, which the recurrence would spread to the whole
class). The disk oracles and the lower-bound constant take integer-order
zeros from scipy's `jn_zeros` and `jnp_zeros` tables.
"""
import functools

import numpy as np
from scipy.special import jv

NU_MAX = 200.0
X_MAX = 1.0e4
CLASS_RTOL = 1e-12   # orders differing by an integer to this * top order share a class
SEED_FLOOR = 1e-250  # a top seed below this has lost digits; its row takes jv
RECUR_X_MAX = 1.0e3  # rows with larger x take jv


def _check_domain(nu, x):
    nu = np.asarray(nu, dtype=float)
    x = np.asarray(x, dtype=float)
    # a NaN carries through min and max and then fails the comparison;
    # initial=0 lets an empty array through
    if not (nu.min(initial=0.0) >= 0 and nu.max(initial=0.0) <= NU_MAX):
        raise ValueError(f"order outside accuracy domain [0, {NU_MAX:g}]")
    if not (x.min(initial=0.0) >= 0 and x.max(initial=0.0) <= X_MAX):
        raise ValueError(f"argument outside accuracy domain [0, {X_MAX:g}]")
    return nu, x


def bessel_j(nu, x):
    """J_nu(x) for real order nu in [0, 200], x in [0, 1e4]. Against 40-digit
    mpmath, this and `bessel_j_orders` are within 2e-12 of
    max(|J|, sqrt(2/(pi x))) up to x = 1e3 and within 3e-11 beyond."""
    nu, x = _check_domain(nu, x)
    out = jv(nu, x)
    if np.any(~np.isfinite(out)):
        raise ValueError("Bessel evaluation failed inside the accuracy domain")
    return out if out.ndim else float(out)


@functools.lru_cache(maxsize=64)
def _order_plan(key):
    """(nu, seed orders, factors, cls, steps, recur) for the orders whose
    float64 bytes are `key`: the class tops ascending, then one below each
    top of a class that recurs; factors[j] = tops - j + 1, the recurrence
    factor of step j before its 2/x; each order's class and its integer
    steps below its top; and which classes have more than one member.
    Built once per order set (every fan asks for the same orders at every
    lambda), kept for the 64 sets used last, and returned read-only."""
    nu = np.frombuffer(key)
    desc = np.argsort(-nu, kind="stable")
    d = nu[desc][:, None] - nu[desc][None, :]
    same = np.abs(d - np.round(d)) <= CLASS_RTOL * max(1.0, nu.max())
    top = np.empty(nu.size, dtype=int)
    top[desc] = desc[np.argmax(same, axis=1)]  # first, so largest, member of the class
    tops, cls = np.unique(nu[top], return_inverse=True)
    steps = np.round(nu[top] - nu).astype(int)  # below the class top
    recur = np.bincount(cls, weights=steps) > 0
    factors = tops - np.arange(steps.max() + 1)[:, None] + 1
    plan = (nu, np.concatenate([tops, tops[recur] - 1]), factors, cls, steps, recur)
    for a in plan:
        a.flags.writeable = False
    return plan


def bessel_j_orders(orders, x):
    """Table of J_orders[j](x[i]), shape (len(x), len(orders)).

    J_{nu-1}(x) = (2 nu / x) J_nu(x) - J_{nu+1}(x) is stable run downward,
    where J is the minimal solution. Orders whose differences are integers
    form a class; a class with more than one member recurs down from
    `bessel_j` seeds at its top order and one below, and a lone order takes
    its own `bessel_j` value. All seeds come from one `bessel_j` call, and
    all classes recur together. The classes depend on the orders alone, so
    they are worked out once per order set (`_order_plan`), after the
    domain check; an empty order list is rejected.
    """
    nu, x = _check_domain(np.ravel(orders), np.ravel(x))
    if nu.size == 0:
        raise ValueError("order list is empty")
    nu, seed_nu, factors, cls, steps, recur = _order_plan(nu.tobytes())
    seeds = bessel_j(seed_nu[None, :], x[:, None])
    two_over_x = 2.0 / np.where(x > 0, x, 1.0)[:, None]
    # [j] holds J_{tops - j}; a row starts as its factor 2 (tops - j + 1) / x
    ladder = factors[:, None, :] * two_over_x
    ntop = factors.shape[1]
    ladder[0] = seeds[:, :ntop]
    if len(ladder) > 1:
        ladder[1] = 0.0
        ladder[1][:, recur] = seeds[:, ntop:]
    with np.errstate(over="ignore", invalid="ignore"):  # below a class's lowest member
        for j in range(2, len(ladder)):
            ladder[j] *= ladder[j - 1]
            ladder[j] -= ladder[j - 2]
    out = ladder[steps, :, cls].T
    direct = ((np.abs(ladder[0]) < SEED_FLOOR) | (x[:, None] > RECUR_X_MAX)) & recur
    direct = direct[:, cls] & (x[:, None] > 0)
    rows = direct.any(axis=1)
    if rows.any():
        exact = bessel_j(nu[None, :], x[rows][:, None])
        out[rows] = np.where(direct[rows], exact, out[rows])
    out[x == 0] = nu == 0
    return out
