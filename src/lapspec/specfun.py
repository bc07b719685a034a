"""Real-order Bessel J evaluation inside an enforced accuracy domain.

Values come from scipy's AMOS-backed `jv`; this module adds the domain
checks. The disk oracles and the lower-bound constant take integer-order
zeros from scipy's `jn_zeros` and `jnp_zeros` tables.
"""
import numpy as np
from scipy.special import jv

NU_MAX = 200.0
X_MAX = 1.0e4


def _check_domain(nu, x):
    nu = np.asarray(nu, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(nu < 0) or np.any(nu > NU_MAX):
        raise ValueError(f"order outside accuracy domain [0, {NU_MAX:g}]")
    if np.any(x < 0) or np.any(x > X_MAX):
        raise ValueError(f"argument outside accuracy domain [0, {X_MAX:g}]")
    return nu, x


def bessel_j(nu, x):
    """J_nu(x) for real order nu in [0, 200], x in [0, 1e4]."""
    nu, x = _check_domain(nu, x)
    out = jv(nu, x)
    if np.any(~np.isfinite(out)):
        raise ValueError("Bessel evaluation failed inside the accuracy domain")
    return out if out.ndim else float(out)
