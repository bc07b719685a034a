"""Real-order Bessel J evaluation and positive zeros.

Values and derivatives come from scipy's AMOS-backed routines; this module
adds the accuracy-domain enforcement and the bracketed zero finder.
"""
import numpy as np
from scipy.special import jv, jvp

NU_MAX = 200.0
X_MAX = 1.0e4
ZERO_TOL = 1e-11


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


def _mcmahon_guess(nu, k):
    # large-k asymptotic location of the kth positive zero of J_nu
    b = (k + nu / 2 - 0.25) * np.pi
    mu = 4 * nu * nu
    return b - (mu - 1) / (8 * b)


def _bisect(f, a, b, tol):
    fa, fb = f(a), f(b)
    if fa == 0:
        return a
    if fb == 0:
        return b
    if fa * fb > 0:
        raise ValueError(f"no sign change on [{a:.6g}, {b:.6g}]")
    while b - a > tol:
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0:
            return m
        if fa * fm < 0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def _kth_zero(f, nu, k, start, label):
    """kth zero of f past `start`, by marching sign brackets then bisection.

    Marching (rather than jumping to per-zero guesses) keeps the index k
    correct even where the asymptotic guesses are poor (large order, small k);
    McMahon's guesses only size the search window.
    """
    if not (0 <= nu <= NU_MAX):
        raise ValueError(f"order outside accuracy domain [0, {NU_MAX:g}]")
    if not (1 <= k <= 100):
        raise ValueError("zero index k must be in [1, 100]")
    x_stop = _mcmahon_guess(nu, k + 2) + nu + 10.0
    zeros = []
    step = np.pi / 16  # safely below half the minimal zero spacing
    x = start
    fx = f(x)
    while fx == 0.0:  # nudge off an exact zero at the left endpoint
        x += 1e-9
        fx = f(x)
    while len(zeros) < k:
        xn = x + step
        fn = f(xn)
        if fx * fn < 0:
            zeros.append(_bisect(f, x, xn, ZERO_TOL))
        elif fn == 0.0:
            zeros.append(xn)
            xn += 1e-9
            fn = f(xn)
        x, fx = xn, fn
        if x > x_stop:
            raise ValueError(f"bracketing failed for {label}: ran past search window")
    return zeros[k - 1]


def bessel_j_zero(nu, k):
    """kth positive zero of J_nu, absolute tolerance 1e-11.

    McMahon's expansion seeds the search window; the zero itself comes from
    sign bracketing and bisection, independent of any library zero tables.
    """
    nu, k = float(nu), int(k)
    start = max(1e-6, nu + 0.5)  # J_nu has no zero below nu
    z = _kth_zero(lambda x: jv(nu, x), nu, k, start, f"J_{nu:g}")
    if abs(jv(nu, z)) > 1e-9:
        raise ValueError(f"zero candidate of J_{nu:g} failed residual check")
    return z


def bessel_jp_zero(nu, k):
    """kth positive zero of J'_nu (needed for Neumann disk spectra).

    For nu = 0 the count follows the j'_{0,k} convention that the first
    positive zero is j'_{0,1} = j_{1,1} (the stationary point at x=0 is not
    counted).
    """
    nu, k = float(nu), int(k)
    start = max(1e-6, nu + 1e-3) if nu > 0 else 0.5
    return _kth_zero(lambda x: jvp(nu, x), nu, k, start, f"J'_{nu:g}")
