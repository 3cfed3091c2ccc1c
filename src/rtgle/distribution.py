"""The RTGLE(alpha, beta, gamma, p) lifetime distribution.

Survival function (1 + p*z) * exp(-z) with z = (alpha*x + beta*x^2/2)^gamma,
obtained by mixing the first two upper records of a generalized linear
exponential baseline: the first record with probability 1-p, the second with
probability p.

All evaluation functions accept scalars or numpy arrays of x.  The quantile
is closed form through the negative branch of the Lambert W function, so
sampling is exact inverse-transform.  Randomness comes from a counter-based
(Philox) generator keyed by an explicit seed, making every draw reproducible
and order-independent.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .special import lambert_wm1_exp


class InvalidParams(ValueError):
    """Parameter vector violates a domain constraint."""


class NonPositiveGamma(InvalidParams):
    pass


class NegativeRate(InvalidParams):
    pass


class BothRatesZero(InvalidParams):
    pass


class POutOfRange(InvalidParams):
    pass


@dataclass(frozen=True)
class RtgleParams:
    """Validated parameter vector (alpha, beta, gamma, p).

    alpha and beta are nonnegative rate-like parameters (not both zero),
    gamma > 0 is the shape, and p in [0, 1] is the record-mixing weight.
    """

    alpha: float
    beta: float
    gamma: float
    p: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.alpha, self.beta, self.gamma, self.p)


def _checked(alpha: float, beta: float, gamma: float,
             p: float) -> tuple[float, float, float, float]:
    """The checks of ``validate`` on plain floats, without building
    RtgleParams (the estimation objectives call this per evaluation)."""
    if not (gamma > 0.0) or math.isnan(gamma):
        raise NonPositiveGamma(f"gamma={gamma!r} must be > 0")
    if alpha < 0.0 or beta < 0.0 or math.isnan(alpha) or math.isnan(beta):
        raise NegativeRate(f"alpha={alpha!r}, beta={beta!r} must be >= 0")
    if alpha == 0.0 and beta == 0.0:
        raise BothRatesZero("alpha and beta cannot both be zero")
    if not (0.0 <= p <= 1.0):
        raise POutOfRange(f"p={p!r} must lie in [0, 1]")
    return float(alpha), float(beta), float(gamma), float(p)


def validate(alpha: float, beta: float, gamma: float, p: float) -> RtgleParams:
    """Validate raw reals, naming the violated constraint on failure."""
    return RtgleParams(*_checked(alpha, beta, gamma, p))


# --- sub-model constructors ------------------------------------------------

def exponential(alpha: float) -> RtgleParams:
    return validate(alpha, 0.0, 1.0, 0.0)


def rayleigh(beta: float) -> RtgleParams:
    return validate(0.0, beta, 1.0, 0.0)


def weibull(alpha: float, gamma: float) -> RtgleParams:
    return validate(alpha, 0.0, gamma, 0.0)


def linear_exponential(alpha: float, beta: float) -> RtgleParams:
    return validate(alpha, beta, 1.0, 0.0)


def gle(alpha: float, beta: float, gamma: float) -> RtgleParams:
    return validate(alpha, beta, gamma, 0.0)


def rt_exponential(alpha: float, p: float) -> RtgleParams:
    return validate(alpha, 0.0, 1.0, p)


def rt_rayleigh(beta: float, p: float) -> RtgleParams:
    return validate(0.0, beta, 1.0, p)


def rt_weibull(alpha: float, gamma: float, p: float) -> RtgleParams:
    return validate(alpha, 0.0, gamma, p)


def rt_linear_exponential(alpha: float, beta: float, p: float) -> RtgleParams:
    return validate(alpha, beta, 1.0, p)


# --- evaluation -------------------------------------------------------------
# The interior kernels take the floats (alpha, beta, gamma, p), an array
# x >= 0 and x2 = x**2, and hold the only copy of each formula; the public
# functions add the support masking.  Callers own the np.errstate.

def _m(a, b, x, x2):
    """m = a*x + b*x^2/2; the GLE baseline's cumulative hazard is m^gamma."""
    return a * x + 0.5 * b * x2


def _log_sf_kernel(a, b, g, p, x, x2):
    """log S(x) = log1p(p*z) - z with z = m^g."""
    z = np.power(_m(a, b, x, x2), g)
    return np.log1p(p * z) - z


def _log_pdf_kernel(a, b, g, p, x, x2):
    """log f(x) = log g + log(a + b*x) + (g-1) log m + log(1-p+p*z) - z."""
    m = _m(a, b, x, x2)
    z = np.power(m, g)
    mix = (1.0 - p) + p * z
    return (math.log(g) + np.log(a + b * x) + (g - 1.0) * np.log(m)
            + np.where(mix > 0.0, np.log(np.maximum(mix, 1e-320)), -np.inf)
            - z)


def sf(params: RtgleParams, x):
    """Survival function, cancellation-safe in the right tail."""
    x = np.asarray(x, dtype=float)
    xm = np.maximum(x, 0.0)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        out = np.exp(_log_sf_kernel(*params.as_tuple(), xm, np.square(xm)))
    out = np.where(x <= 0.0, 1.0, out)
    return out if out.ndim else float(out)


def cdf(params: RtgleParams, x):
    """Distribution function F(x) = 1 - (1 + p*z) * exp(-z)."""
    x = np.asarray(x, dtype=float)
    xm = np.maximum(x, 0.0)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        out = -np.expm1(_log_sf_kernel(*params.as_tuple(), xm, np.square(xm)))
    out = np.where(x <= 0.0, 0.0, out)
    return out if out.ndim else float(out)


def log_pdf(params: RtgleParams, x):
    """Log density, -inf where the density vanishes.  Never NaN."""
    x = np.asarray(x, dtype=float)
    xp = np.where(x > 0.0, x, 1.0)  # placeholder, masked below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _log_pdf_kernel(*params.as_tuple(), xp, np.square(xp))
    out = np.where(x > 0.0, out, -np.inf)
    out = np.where(np.isnan(out), -np.inf, out)
    return out if out.ndim else float(out)


def pdf(params: RtgleParams, x):
    """Density of RTGLE at x (0 for x <= 0)."""
    with np.errstate(over="ignore"):
        out = np.exp(log_pdf(params, x))
    return out


def baseline_hazard(params: RtgleParams, x):
    """GLE baseline hazard k(x) = gamma*(a+b*x)*(a*x+b*x^2/2)^(gamma-1)."""
    a, b, g, _ = params.as_tuple()
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0) and g < 1.0:
        raise ValueError("baseline hazard diverges at x <= 0 for gamma < 1")
    xp = np.where(x > 0.0, x, 1.0)
    m = _m(a, b, xp, np.square(xp))
    out = g * (a + b * xp) * np.power(m, g - 1.0)
    if np.any(x <= 0.0):
        limit = a if g == 1.0 else 0.0
        out = np.where(x <= 0.0, limit, out)
    return out if out.ndim else float(out)


def hazard(params: RtgleParams, x):
    """Hazard h(x) = k(x) * (1 - p + p*z) / (1 + p*z); h <= k everywhere."""
    a, b, g, p = params.as_tuple()
    x = np.asarray(x, dtype=float)
    k = np.asarray(baseline_hazard(params, x), dtype=float)
    xm = np.maximum(x, 0.0)
    z = np.power(_m(a, b, xm, np.square(xm)), g)
    damp = ((1.0 - p) + p * z) / (1.0 + p * z)
    out = k * damp
    return out if out.ndim else float(out)


# --- quantile and sampling ---------------------------------------------------

def _c_of_u(params: RtgleParams, u: float) -> float:
    """Solve (1 + p*C)*exp(-C) = 1-u for C >= 0, then return C^(1/gamma).

    Returns the value of (alpha*x + beta*x^2/2) at the u-quantile.
    """
    g, p = params.gamma, params.p
    target = math.log1p(-u)
    if p < 1e-6:
        # the Lambert route computes zc = -1/p - W, which cancels
        # catastrophically for small p; start from the p = 0 limit instead
        zc = -target
    else:
        # W-1 argument is (u-1)/(p*e^(1/p)); work with its log to survive
        # underflow at small p or u near 1
        logmv = target - 1.0 / p - math.log(p)
        w = lambert_wm1_exp(min(logmv, -1.0))
        zc = max(-1.0 / p - w, 0.0)
    if p > 0.0:
        # Newton polish of log1p(p*z) - z = log(1-u); the left side is
        # strictly decreasing in z, so this converges from any start
        for _ in range(50):
            slope = p / (1.0 + p * zc) - 1.0
            if slope == 0.0:
                break
            resid = math.log1p(p * zc) - zc - target
            step = resid / slope
            zc_new = max(zc - step, 0.0)
            if zc_new == zc:
                break
            zc = zc_new
            if abs(step) <= 1e-15 * max(1.0, zc):
                break
    return zc ** (1.0 / g)


def quantile(params: RtgleParams, u: float) -> float:
    """Exact quantile Q(u) for u in (0,1); cdf(quantile(u)) = u."""
    if not (0.0 < u < 1.0):
        raise ValueError(f"quantile: u={u!r} must lie in (0, 1)")
    a, b = params.alpha, params.beta
    c = _c_of_u(params, u)
    if b == 0.0:
        return c / a
    if a == 0.0:
        return math.sqrt(2.0 * c / b)
    # stable root of (b/2) x^2 + a x - c = 0
    return 2.0 * c / (a + math.sqrt(a * a + 2.0 * b * c))


def quantile_vec(params: RtgleParams, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    return np.array([quantile(params, ui) for ui in u.ravel()]).reshape(u.shape)


def sample(params: RtgleParams, n: int, seed: int) -> np.ndarray:
    """n inverse-transform draws; identical output for identical inputs."""
    if n < 1:
        raise ValueError("sample: n must be >= 1")
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random(n)
    # avoid u == 0 exactly (quantile domain is open)
    u = np.nextafter(u, 1.0)
    return quantile_vec(params, u)


def _gle_inverse(params: RtgleParams, t: np.ndarray) -> np.ndarray:
    """Inverse of the GLE baseline cumulative hazard: m(x)^gamma = t."""
    a, b, g, _ = params.as_tuple()
    c = np.power(t, 1.0 / g)
    if b == 0.0:
        return c / a
    if a == 0.0:
        return np.sqrt(2.0 * c / b)
    return 2.0 * c / (a + np.sqrt(a * a + 2.0 * b * c))


def sample_via_records(params: RtgleParams, n: int, seed: int) -> np.ndarray:
    """Record-construction sampler; an independent oracle for ``sample``.

    Draws the first upper record of the GLE baseline with probability 1-p
    and the second with probability p, using the exponential spacing of
    records: the k-th record is G^{-1}(1 - exp(-(E1+...+Ek))).
    """
    if n < 1:
        raise ValueError("sample_via_records: n must be >= 1")
    rng = np.random.Generator(np.random.Philox(key=seed))
    e1 = rng.exponential(size=n)
    e2 = rng.exponential(size=n)
    take_second = rng.random(n) < params.p
    t = np.where(take_second, e1 + e2, e1)
    return _gle_inverse(params, t)


# --- shape classification ----------------------------------------------------

class PdfShapeClass(enum.Enum):
    MONOTONE_DECREASING = "monotone_decreasing"
    UNIMODAL = "unimodal"
    INDETERMINATE = "indeterminate"


class HazardShapeClass(enum.Enum):
    IFR = "ifr"
    DFR = "dfr"
    INDETERMINATE = "indeterminate"


def classify_pdf_shape(params: RtgleParams) -> PdfShapeClass:
    """Density shape where provable; Indeterminate outside those hypotheses."""
    if params.gamma >= 1.0:
        return PdfShapeClass.UNIMODAL
    if params.beta == 0.0 and params.gamma < 0.5:
        return PdfShapeClass.MONOTONE_DECREASING
    return PdfShapeClass.INDETERMINATE


def classify_hazard_shape(params: RtgleParams) -> HazardShapeClass:
    """IFR when gamma >= 1; DFR when beta = 0 and gamma < 0.5."""
    if params.gamma >= 1.0:
        return HazardShapeClass.IFR
    if params.beta == 0.0 and params.gamma < 0.5:
        return HazardShapeClass.DFR
    return HazardShapeClass.INDETERMINATE
