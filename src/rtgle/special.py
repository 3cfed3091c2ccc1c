"""Special functions: Lambert W (both real branches), gamma, beta.

Lambert W solves w * exp(w) = v.  The principal branch ``lambert_w0`` covers
v >= -1/e with values in [-1, inf) and comes from ``scipy.special.lambertw``.
The negative branch ``lambert_wm1`` covers -1/e <= v < 0 with values in
(-inf, -1]; it goes through ``lambert_wm1_exp``, which takes L = log(-v) and
runs Fritsch's iteration in log space on w + log(-w) = L, so it stays
well-conditioned where v underflows.  The iteration itself is
``_lambert_wm1_exp_array``, which the quantile runs on whole arrays: two
steps on every element, then further steps only on the few whose residual
still exceeds 1e-15*|L|.

Gamma and log-gamma come from the standard library (``math.gamma``,
``math.lgamma``), restricted to the positive reals.
"""

from __future__ import annotations

import math

import numpy as np

MAX_ITER = 50

_INV_E = math.exp(-1.0)
# slack below -1/e tolerated at the branch point (quantile evaluation at
# u -> 1 lands exactly on -1/e in floating point)
_BRANCH_SLACK = 4.0 * math.ulp(_INV_E)


class SpecialDomainError(ValueError):
    """Argument outside the function's real domain."""


class NonConvergenceError(ArithmeticError):
    """Iteration failed to converge within MAX_ITER steps."""


def lambert_w0(v: float) -> float:
    """Principal branch W0(v) for v >= -1/e."""
    from scipy.special import lambertw
    if math.isnan(v):
        raise SpecialDomainError("lambert_w0: NaN argument")
    if v < -_INV_E - _BRANCH_SLACK:
        raise SpecialDomainError(f"lambert_w0: v={v!r} < -1/e")
    if v <= -_INV_E:
        # scipy returns NaN at the branch point itself
        return -1.0
    return float(lambertw(v).real)


def lambert_wm1(v: float) -> float:
    """Negative branch W-1(v) for -1/e <= v < 0."""
    if math.isnan(v) or v >= 0.0:
        raise SpecialDomainError(f"lambert_wm1: v={v!r} not in [-1/e, 0)")
    if v < -_INV_E - _BRANCH_SLACK:
        raise SpecialDomainError(f"lambert_wm1: v={v!r} < -1/e")
    if v <= -_INV_E:
        return -1.0
    return lambert_wm1_exp(math.log(-v))


def lambert_wm1_exp(logmv: float) -> float:
    """W-1(-exp(logmv)) for logmv <= -1, stable when -exp(logmv) underflows;
    ``_lambert_wm1_exp_array`` on one element after the domain checks."""
    if math.isnan(logmv):
        raise SpecialDomainError("lambert_wm1_exp: NaN argument")
    if logmv > -1.0:
        if logmv <= -1.0 + 1e-12:
            return -1.0
        raise SpecialDomainError(f"lambert_wm1_exp: log(-v)={logmv!r} > -1")
    return float(_lambert_wm1_exp_array(np.array([logmv]))[0])


# W-1(-exp(L)) solves w + log(-w) = L for w <= -1.  The start for L > -2.5
# is the series about the branch point in s = -sqrt(2(e*v + 1)) =
# -sqrt(-2 expm1(L + 1)), otherwise the asymptotic L - log(-L) + log(-L)/L.
# Fritsch's step (Fritsch, Shafer & Crowley, CACM 16, 1973), in the log form
# z = L - log(-w) - w, multiplies w by 1 + eps with
# eps = t (b - t/2) / (b - t), t = z/(1 + w), b = 1 + w + 2z/3 (the usual
# q = 2(1 + w)(1 + w + 2z/3) divided by 2(1 + w), which overflows for large
# |L|, as 2(1 + w) itself does near -MAX_FLOAT);
# from these starts two steps meet the stop rule on every L tried, from
# -1 - 1e-16 to -1e300, and the residual check catches any that do not.

def _fritsch_step(w: np.ndarray, L: np.ndarray) -> np.ndarray:
    """One Fritsch step; the start w = -1 at L = -1 is exact, and there
    1 + w = 0 makes the step 0/0, so those elements keep w."""
    z = L - np.log(-w) - w
    d = 1.0 + w
    b = d + (2.0 / 3.0) * z
    with np.errstate(divide="ignore", invalid="ignore"):
        t = z / d
        step = w * t * (b - 0.5 * t) / (b - t)
    return np.where(d == 0.0, w, w + step)


def _misses(w: np.ndarray, L: np.ndarray, tol: float) -> np.ndarray:
    """Where |w + log(-w) - L| > tol*|L|; a NaN residual counts as a miss."""
    return ~(np.abs(w + np.log(-w) - L) <= tol * np.abs(L))


def _lambert_wm1_exp_array(logmv: np.ndarray) -> np.ndarray:
    """W-1(-exp(logmv)) elementwise for a 1-d array with logmv <= -1.

    Two Fritsch steps on the whole array from the starts above; then every
    residual of w + log(-w) = logmv is checked against 1e-15*|logmv|, and
    only the misses take further steps, on the gathered remainder, until
    they meet it.  One still above 1e-10*|logmv| after MAX_ITER steps raises
    ``NonConvergenceError``.
    """
    s = -np.sqrt(-2.0 * np.expm1(logmv + 1.0))
    near = -1.0 + s * (1.0 + s * (-1.0 / 3.0 + s * (11.0 / 72.0
                                                    - s * 43.0 / 540.0)))
    lnl = np.log(-logmv)
    w = np.where(logmv > -2.5, near, logmv - lnl + lnl / logmv)
    for _ in range(2):
        w = _fritsch_step(w, logmv)
    # act indexes w; wa and L hold only the elements still iterating
    act = np.flatnonzero(_misses(w, logmv, 1e-15))
    wa, L = w[act], logmv[act]
    for _ in range(2, MAX_ITER):
        if not act.size:
            return w
        wa = _fritsch_step(wa, L)
        w[act] = wa
        go = _misses(wa, L, 1e-15)
        act, wa, L = act[go], wa[go], L[go]
    if _misses(wa, L, 1e-10).any():
        raise NonConvergenceError("lambert_wm1_exp: stalled")
    return w


def log_gamma(a: float) -> float:
    """Natural log of the gamma function for a > 0."""
    if not a > 0.0:
        raise SpecialDomainError(f"log_gamma: a={a!r} must be > 0")
    return math.lgamma(a)


def gamma_fn(a: float) -> float:
    """Gamma(a) for a > 0."""
    if not a > 0.0:
        raise SpecialDomainError(f"gamma_fn: a={a!r} must be > 0")
    return math.gamma(a)


def log_beta(a: float, b: float) -> float:
    """log B(a, b) = log Gamma(a) + log Gamma(b) - log Gamma(a + b)."""
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)
