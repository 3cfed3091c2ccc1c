"""Special functions: Lambert W (both real branches), gamma, beta.

Lambert W solves w * exp(w) = v.  The principal branch ``lambert_w0`` covers
v >= -1/e with values in [-1, inf) and comes from ``scipy.special.lambertw``.
The negative branch ``lambert_wm1`` covers -1/e <= v < 0 with values in
(-inf, -1]; it goes through ``lambert_wm1_exp``, which takes L = log(-v) and
runs Halley's iteration in log space on w + log(-w) = L, so it stays
well-conditioned where v underflows.  The iteration itself is
``_lambert_wm1_exp_array``, which the quantile runs on whole arrays.

Gamma and log-gamma come from the standard library (``math.gamma``,
``math.lgamma``), restricted to the positive reals.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import lambertw

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


# W-1(-exp(L)) solves phi(w) = w + log(-w) - L = 0 for w <= -1, with
# phi' = 1 + 1/w and phi'' = -1/w^2.  The start for L > -2.5 is the series
# about the branch point in s = -sqrt(2(e*v + 1)) = -sqrt(-2 expm1(L + 1)),
# otherwise the asymptotic L - log(-L) + log(-L)/L.

def _lambert_wm1_exp_array(logmv: np.ndarray) -> np.ndarray:
    """W-1(-exp(logmv)) elementwise for a 1-d array with logmv <= -1.

    Halley's iteration on w + log(-w) = logmv stops when the residual is
    at most 1e-15*|logmv|, each step working only on the elements that have
    not stopped yet; one still above 1e-10*|logmv| after MAX_ITER steps
    raises ``NonConvergenceError``.
    """
    w = np.empty(logmv.shape)
    near = logmv > -2.5
    s = -np.sqrt(-2.0 * np.expm1(logmv[near] + 1.0))
    s2 = s * s
    w[near] = -1.0 + s - s2 / 3.0 + 11.0 * s2 * s / 72.0 - 43.0 * s2 * s2 / 540.0
    far = logmv[~near]
    lnl = np.log(-far)
    w[~near] = far - lnl + lnl / far
    # act indexes w; wa and L hold only the elements still iterating; both
    # comparisons are written so that a NaN residual never counts as met
    act, wa, L = np.arange(w.size), w, logmv
    for _ in range(MAX_ITER):
        f = wa + np.log(-wa) - L
        go = ~(np.abs(f) <= 1e-15 * np.abs(L))
        if not go.any():
            return w
        act, wa, L, f = act[go], wa[go], L[go], f[go]
        d1 = 1.0 + 1.0 / wa
        wa = wa - f / (d1 + f / (2.0 * wa * wa * d1))
        w[act] = wa
    if not np.all(np.abs(wa + np.log(-wa) - L) <= 1e-10 * np.abs(L)):
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
