"""Scalar special functions: Lambert W (both real branches), gamma, beta.

Lambert W solves w * exp(w) = v.  The principal branch ``lambert_w0`` covers
v >= -1/e with values in [-1, inf); the negative branch ``lambert_wm1``
covers -1/e <= v < 0 with values in (-inf, -1].  Both use Halley iteration
from branch-specific initial guesses.  ``_lambert_wm1_exp_array`` runs the
iterations of ``lambert_wm1_exp`` on a whole array at once, for the array
quantile.

Gamma and log-gamma come from the standard library (``math.gamma``,
``math.lgamma``), restricted to the positive reals.
"""

from __future__ import annotations

import math

import numpy as np

ABS_TOL = 1e-12     # Lambert W residual |w e^w - v|
MAX_ITER = 50

_INV_E = math.exp(-1.0)
# slack below -1/e tolerated at the branch point (quantile evaluation at
# u -> 1 lands exactly on -1/e in floating point)
_BRANCH_SLACK = 4.0 * math.ulp(_INV_E)


class SpecialDomainError(ValueError):
    """Argument outside the function's real domain."""


class NonConvergenceError(ArithmeticError):
    """Iteration failed to converge within MAX_ITER steps."""


def _branch_series(v: float, sign: float) -> float:
    # Series about the branch point v = -1/e in s = sign*sqrt(2(e*v + 1)).
    # sign=+1 gives W0, sign=-1 gives W-1.
    s = sign * math.sqrt(max(2.0 * (math.e * v + 1.0), 0.0))
    return -1.0 + s - s * s / 3.0 + 11.0 * s ** 3 / 72.0 - 43.0 * s ** 4 / 540.0


def _halley(v: float, w: float) -> float:
    for _ in range(MAX_ITER):
        ew = math.exp(w)
        f = w * ew - v
        if abs(f) <= ABS_TOL * abs(v):
            return w
        wp1 = w + 1.0
        if wp1 == 0.0:
            break
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = f / denom
        w_new = w - step
        if w_new == w:
            return w
        w = w_new
    # accept if the residual is already at the attainable floor near -1
    if abs(w * math.exp(w) - v) <= 1e-10 * abs(v):
        return w
    raise NonConvergenceError(f"Lambert W Halley iteration stalled at v={v!r}")


def lambert_w0(v: float) -> float:
    """Principal branch W0(v) for v >= -1/e."""
    if math.isnan(v):
        raise SpecialDomainError("lambert_w0: NaN argument")
    if v < -_INV_E:
        if v >= -_INV_E - _BRANCH_SLACK:
            v = -_INV_E
        else:
            raise SpecialDomainError(f"lambert_w0: v={v!r} < -1/e")
    if v == 0.0:
        return 0.0
    if v <= -_INV_E:
        return -1.0
    if v < -0.30:
        w = _branch_series(v, +1.0)
    elif v > 3.0:
        lv = math.log(v)
        w = lv - math.log(lv)
    else:
        w = math.log1p(v)  # decent global guess for W0 on (-1/e, inf)
    return _halley(v, w)


def lambert_wm1(v: float) -> float:
    """Negative branch W-1(v) for -1/e <= v < 0."""
    if math.isnan(v) or v >= 0.0:
        raise SpecialDomainError(f"lambert_wm1: v={v!r} not in [-1/e, 0)")
    if v < -_INV_E:
        if v >= -_INV_E - _BRANCH_SLACK:
            return -1.0
        raise SpecialDomainError(f"lambert_wm1: v={v!r} < -1/e")
    if v == -_INV_E:
        return -1.0
    return lambert_wm1_exp(math.log(-v))


def lambert_wm1_exp(logmv: float) -> float:
    """W-1(-exp(logmv)) for logmv <= -1, stable when -exp(logmv) underflows.

    Solves w + log(-w) = logmv for w <= -1 by Newton iteration, which stays
    well-conditioned far into the tail where v = -exp(logmv) is subnormal
    or flushes to zero.
    """
    if math.isnan(logmv):
        raise SpecialDomainError("lambert_wm1_exp: NaN argument")
    if logmv > -1.0:
        if logmv <= -1.0 + 1e-12:
            return -1.0
        raise SpecialDomainError(f"lambert_wm1_exp: log(-v)={logmv!r} > -1")
    if logmv == -1.0:
        return -1.0
    if logmv > -2.5:
        # near the branch point: series guess + Halley in v-space is safe
        v = -math.exp(logmv)
        return _halley(v, _branch_series(v, -1.0))
    # asymptotic guess w ~ L - log(-L), L = logmv
    L = logmv
    lnl = math.log(-L)
    w = L - lnl + lnl / L
    for _ in range(MAX_ITER):
        # phi(w) = w + log(-w) - L, phi'(w) = 1 + 1/w
        f = w + math.log(-w) - L
        step = f / (1.0 + 1.0 / w)
        w_new = w - step
        if abs(w_new - w) <= 1e-15 * abs(w):
            return w_new
        w = w_new
    return w


def _lambert_wm1_exp_array(logmv: np.ndarray) -> np.ndarray:
    """``lambert_wm1_exp`` elementwise for a 1-d array with logmv <= -1.

    Each element takes the scalar function's branch and stop rules; an
    iteration works only on the elements that have not stopped yet.
    """
    w = np.full(logmv.shape, -1.0)
    near = (logmv > -2.5) & (logmv != -1.0)
    if near.any():
        v = -np.exp(logmv[near])
        w[near] = _halley_array(v, _branch_series_wm1_array(v))
    far = np.flatnonzero(logmv <= -2.5)
    L = logmv[far]
    lnl = np.log(-L)
    wf = L - lnl + lnl / L
    for _ in range(MAX_ITER):
        if not far.size:
            break
        w_new = wf - (wf + np.log(-wf) - L) / (1.0 + 1.0 / wf)
        moving = np.abs(w_new - wf) > 1e-15 * np.abs(wf)
        w[far] = w_new
        far, L, wf = far[moving], L[moving], w_new[moving]
    return w


def _branch_series_wm1_array(v: np.ndarray) -> np.ndarray:
    """``_branch_series(v, -1.0)`` on an array, with products for the
    powers: numpy's power of a negative base is about 100x slower."""
    s = -np.sqrt(np.maximum(2.0 * (math.e * v + 1.0), 0.0))
    s2 = s * s
    return -1.0 + s - s2 / 3.0 + 11.0 * s2 * s / 72.0 - 43.0 * s2 * s2 / 540.0


def _halley_array(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``_halley`` elementwise from the starts w, which it overwrites with
    the results: each element iterates until it stops, and the arrays of an
    iteration hold only the elements still iterating."""
    out = w
    idx = np.arange(v.size)
    vi, stalled = v, []
    for _ in range(MAX_ITER):
        if not idx.size:
            break
        ew = np.exp(w)
        f = w * ew - vi
        wp1 = w + 1.0
        go = np.abs(f) > ABS_TOL * np.abs(vi)
        stalled.append(idx[go & (wp1 == 0.0)])
        with np.errstate(divide="ignore", invalid="ignore"):
            w_new = w - f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        go &= (wp1 != 0.0) & (w_new != w)
        idx, w, vi = idx[go], w_new[go], vi[go]
        out[idx] = w
    # the scalar path's acceptance test for a stalled or exhausted iteration
    left = np.concatenate(stalled + [idx])
    if np.any(np.abs(out[left] * np.exp(out[left]) - v[left])
              > 1e-10 * np.abs(v[left])):
        raise NonConvergenceError("Lambert W Halley iteration stalled")
    return out


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
