"""Real-order Bessel J evaluation inside an enforced accuracy domain.

Values come from scipy's AMOS-backed `jv`; this module adds the domain
checks. `bessel_j_orders` tabulates many orders at once from `jv` seeds at
the top two orders of each class of orders that differ by integers, plus
one downward three-term recurrence per class. A row takes `jv` for every
order of a class instead when the class's top seed is below 1e-250 (digits
lost to underflow, which the recurrence cannot recover) or x exceeds 1e3
(where `jv`'s high-order seeds carry errors near 1e-12 of the envelope,
which the recurrence would spread to the whole class). The disk oracles
and the lower-bound constant take integer-order zeros from scipy's
`jn_zeros` and `jnp_zeros` tables.
"""
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
    if np.any(nu < 0) or np.any(nu > NU_MAX):
        raise ValueError(f"order outside accuracy domain [0, {NU_MAX:g}]")
    if np.any(x < 0) or np.any(x > X_MAX):
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


def bessel_j_orders(orders, x):
    """Table of J_orders[j](x[i]), shape (len(x), len(orders)).

    J_{nu-1}(x) = (2 nu / x) J_nu(x) - J_{nu+1}(x) is stable run downward,
    where J is the minimal solution. Orders whose differences are integers
    form a class; a class with more than one member recurs down from
    `bessel_j` seeds at its top order and one below, and a lone order takes
    its own `bessel_j` value. All seeds come from one `bessel_j` call, and
    all classes recur together.
    """
    nu = np.ravel(np.asarray(orders, dtype=float))
    x = np.ravel(np.asarray(x, dtype=float))
    desc = np.argsort(-nu, kind="stable")
    d = nu[desc][:, None] - nu[desc][None, :]
    same = np.abs(d - np.round(d)) <= CLASS_RTOL * max(1.0, nu.max())
    top = np.empty(nu.size, dtype=int)
    top[desc] = desc[np.argmax(same, axis=1)]  # first, so largest, member of the class
    tops, cls = np.unique(nu[top], return_inverse=True)
    steps = np.round(nu[top] - nu).astype(int)  # below the class top
    recur = np.bincount(cls, weights=steps) > 0
    seeds = bessel_j(np.concatenate([tops, tops[recur] - 1])[None, :], x[:, None])
    ladder = np.zeros((steps.max() + 1, x.size, tops.size))  # [j] holds J_{tops - j}
    ladder[0] = seeds[:, :tops.size]
    if ladder.shape[0] > 1:
        ladder[1][:, recur] = seeds[:, tops.size:]
    two_over_x = 2.0 / np.where(x > 0, x, 1.0)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # below a class's lowest member
        for j in range(2, ladder.shape[0]):
            ladder[j] = (tops - j + 1) * two_over_x * ladder[j - 1] - ladder[j - 2]
    out = ladder[steps, :, cls].T
    direct = ((np.abs(ladder[0]) < SEED_FLOOR) | (x[:, None] > RECUR_X_MAX)) & recur
    direct = direct[:, cls] & (x[:, None] > 0)
    rows = direct.any(axis=1)
    if rows.any():
        exact = bessel_j(nu[None, :], x[rows][:, None])
        out[rows] = np.where(direct[rows], exact, out[rows])
    out[x == 0] = nu == 0
    return out
