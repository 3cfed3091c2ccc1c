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
from dataclasses import dataclass, replace

import numpy as np

from .special import _lambert_wm1_exp_array
# looked up here by the benchmark's per-layer tracing (bench/tracing.py)
from .special import lambert_wm1_exp  # noqa: F401


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
    RtgleParams."""
    if not 0.0 < gamma < math.inf:
        raise NonPositiveGamma(f"gamma={gamma!r} must be finite and > 0")
    if not (0.0 <= alpha < math.inf and 0.0 <= beta < math.inf):
        raise NegativeRate(f"alpha={alpha!r}, beta={beta!r} must be finite "
                           "and >= 0")
    if alpha == 0.0 and beta == 0.0:
        raise BothRatesZero("alpha and beta cannot both be zero")
    if not (0.0 <= p <= 1.0):
        raise POutOfRange(f"p={p!r} must lie in [0, 1]")
    return float(alpha), float(beta), float(gamma), float(p)


def _valid_rows(alpha, beta, gamma, p) -> np.ndarray:
    """The checks of ``_checked`` on arrays of per-row values: True where
    ``_checked`` would return."""
    return ((0.0 < gamma) & (gamma < np.inf) & (0.0 <= alpha)
            & (alpha < np.inf) & (0.0 <= beta) & (beta < np.inf)
            & ((alpha != 0.0) | (beta != 0.0)) & (0.0 <= p) & (p <= 1.0))


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
# The kernels take an array x > 0, x2 = x**2 and the floats (alpha, beta,
# gamma, p), the signature of every competitor model in ``compare``, and hold
# the only copy of each formula; _on_support adds the rest.  The estimation
# engine also passes the parameters of many fits at once as (R, 1) columns
# against (R, n) or (1, n) data.

def _libm(ufunc, *args) -> np.ndarray:
    """ufunc elementwise on arrays of per-row values, rounded as ``math``
    and ``**`` round each float.  numpy's SIMD exp, log and power loops
    round some results differently from the C library's scalar routines
    (about 1 in 20 for exp); on a 1-d negative-stride view numpy uses the
    C library, so a batched fit sees the bits of a fit on its own."""
    return ufunc(*(a.ravel()[::-1] for a in args))[::-1].reshape(
        args[0].shape)


def _columns(values: np.ndarray):
    """The parameters of each row of values (R, k) as kernel arguments:
    (R, 1) columns, or the floats of a single row, on which numpy's loops
    are cheaper; the kernel's values come out as (R, n) or (n,)."""
    return values[0].tolist() if len(values) == 1 else values.T[:, :, None]


def _log(v):
    """math.log of a float, elementwise on an array through ``_libm``."""
    return _libm(np.log, v) if isinstance(v, np.ndarray) else math.log(v)


def _on_support(kernel, x, outside, tail):
    """kernel(x, x2) on x > 0, ``outside`` at x <= 0, NaN at NaN x, and
    the x -> inf limit ``tail`` where the kernel gives NaN at a positive x
    (where x^2 or z overflowed); a float for scalar x."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inside = x > 0.0
        everywhere = inside.all()
        xp = x if everywhere else np.where(inside, x, 1.0)  # masked below
        out = kernel(xp, np.square(xp))
    overflow = np.isnan(out)
    if overflow.any():
        out = np.where(overflow, tail, out)
    if not everywhere:
        out = np.where(inside, out, np.where(np.isnan(x), np.nan, outside))
    return out if out.ndim else float(out)


def _m(a, b, x, x2):
    """m = a*x + b*x^2/2; the GLE baseline's cumulative hazard is m^gamma.
    A scalar b = 0 drops its term, which is 0*inf = NaN where x^2
    overflows and adds 0.0 elsewhere."""
    if not isinstance(b, np.ndarray) and b == 0.0:
        return a * x
    return a * x + 0.5 * b * x2


def _log_sf_kernel(x, x2, a, b, g, p):
    """log S(x) = log1p(p*z) - z with z = m^g."""
    z = np.power(_m(a, b, x, x2), g)
    return np.log1p(p * z) - z


def _log_pdf_kernel(x, x2, a, b, g, p):
    """log f(x) = log g + log(a + b*x) + (g-1) log m + log(1-p+p*z) - z."""
    m = _m(a, b, x, x2)
    log_m = np.log(m)
    z = np.power(m, g)
    mix = (1.0 - p) + p * z
    log_mix = np.where(mix > 0.0, np.log(np.maximum(mix, 1e-320)), -np.inf)
    if not (m.min() if m.ndim else m) > 0.0:
        # m underflowed: log m = log x + log(a + b*x/2), as in hazard, and
        # z with it, so at p = 1 the mixing term is log z = g * log m
        under = m == 0.0
        log_m = np.where(under, np.log(x) + np.log(a + 0.5 * b * x), log_m)
        log_mix = np.where(under & (p == 1.0), g * log_m, log_mix)
    return _log(g) + np.log(a + b * x) + (g - 1.0) * log_m + log_mix - z


def sf(params: RtgleParams, x):
    """Survival function, cancellation-safe in the right tail."""
    v = params.as_tuple()
    return _on_support(lambda x, x2: np.exp(_log_sf_kernel(x, x2, *v)),
                       x, 1.0, 0.0)


def cdf(params: RtgleParams, x):
    """Distribution function F(x) = 1 - (1 + p*z) * exp(-z)."""
    v = params.as_tuple()
    return _on_support(lambda x, x2: -np.expm1(_log_sf_kernel(x, x2, *v)),
                       x, 0.0, 1.0)


def log_pdf(params: RtgleParams, x):
    """Log density, -inf where the density vanishes; NaN only at NaN x."""
    v = params.as_tuple()
    return _on_support(lambda x, x2: _log_pdf_kernel(x, x2, *v),
                       x, -np.inf, -np.inf)


def pdf(params: RtgleParams, x):
    """Density of RTGLE at x (0 for x <= 0)."""
    v = params.as_tuple()
    return _on_support(lambda x, x2: np.exp(_log_pdf_kernel(x, x2, *v)),
                       x, 0.0, 0.0)


def baseline_hazard(params: RtgleParams, x):
    """GLE baseline hazard k(x) = gamma*(a+b*x)*(a*x+b*x^2/2)^(gamma-1),
    which is the hazard at p = 0; 0 for x <= 0."""
    return hazard(replace(params, p=0.0), x)


def hazard(params: RtgleParams, x):
    """Hazard h(x) = k(x) * (1 - p + p*z) / (1 + p*z) <= k(x), 0 for x <= 0,
    from log m = log x + log(a + b*x/2), which survives the overflow of x^2."""
    a, b, g, p = params.as_tuple()

    def kernel(x, x2):
        log_m = np.log(x) + np.log(a + 0.5 * b * x)
        k = g * np.exp(np.log(a + b * x) + (g - 1.0) * log_m)
        pz = p * np.exp(g * log_m)
        return k * np.fmin(((1.0 - p) + pz) / (1.0 + pz), 1.0)  # inf/inf: 1
    # k grows like x^e as x -> inf, with e = 2g-1 (b > 0) or g-1 (b = 0)
    e = 2.0 * g - 1.0 if b > 0.0 else g - 1.0
    limit = (math.inf if e > 0.0 else 0.0 if e < 0.0
             else math.sqrt(0.5 * b) if b > 0.0 else a)
    return _on_support(kernel, x, 0.0, limit)


# --- quantile and sampling ---------------------------------------------------
# Q(u) solves (1 + p*z) * exp(-z) = 1 - u, i.e. z - log1p(p*z) = T with
# T = -log1p(-u), for z = m(x)^gamma, then inverts m.  The closed form is
# z = -1/p - W-1(-(1-u) * exp(-1/p) / p); a Newton polish restores the
# relative digits it loses to cancellation where z is small.

def _log1pmx(y: np.ndarray) -> np.ndarray:
    """log1p(y) - y for y >= 0, summed as its series below 0.01, where the
    difference would cancel (the first term left out is y^8/5 relative)."""
    out = np.log1p(y) - y
    small = y < 0.01
    ys = y[small]
    acc = np.zeros_like(ys)
    for k in range(9, 1, -1):
        acc = 1.0 / k - ys * acc
    out[small] = -ys * ys * acc
    return out


def _z_of_u_array(p: float, u: np.ndarray) -> np.ndarray:
    """The root z >= 0 of z - log1p(p*z) = -log1p(-u) on a 1-d array of u;
    each Newton step is taken only by the elements still moving."""
    T = -np.log1p(-u)
    if p == 0.0:
        return T
    q = 1.0 - p
    # root of q*z + p^2 z^2 / 2 = T: a lower bound of the root, because
    # log1p(y) >= y - y^2/2, and accurate where z is small (p = 1 included)
    z = 2.0 * T / (q + np.sqrt(q * q + 2.0 * p * p * T))
    if p >= 1e-6:
        # the Lambert start, with the W-1 argument taken through its log
        # so that it survives underflow at small p or u near 1; below
        # p = 1e-6 it cancels catastrophically
        logmv = np.minimum(-T - 1.0 / p - math.log(p), -1.0)
        z = np.maximum(z, -1.0 / p - _lambert_wm1_exp_array(logmv))
    # log1p(p*z) - z + T is concave and decreasing in z, so Newton converges
    # from any start, and a step of relative size s leaves a relative error
    # of about s^2/2: stopping at s <= 1e-10 leaves only rounding error.
    # act indexes z; za and T hold only the elements still moving
    act, za = np.arange(z.size), z
    for _ in range(50):
        if not act.size:
            break
        pz = p * za
        slope = -(q + pz) / (1.0 + pz)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = (_log1pmx(pz) - q * za + T) / slope
        z_new = np.maximum(za - step, 0.0)
        moved = (slope != 0.0) & (z_new != za)
        z[act[moved]] = z_new[moved]
        moved &= np.abs(step) > 1e-10 * z_new
        act, za, T = act[moved], z_new[moved], T[moved]
    return z


def quantile(params: RtgleParams, u: float) -> float:
    """Exact quantile Q(u) for u in (0,1); cdf(quantile(u)) = u."""
    return float(quantile_vec(params, u))


def quantile_vec(params: RtgleParams, u) -> np.ndarray:
    """The quantile Q(u) elementwise over an array of any shape, in one pass
    of array arithmetic; within 1e-13 relative of a 40-digit root."""
    u = np.asarray(u, dtype=float)
    flat = u.ravel()
    bad = ~((flat > 0.0) & (flat < 1.0))
    if bad.any():
        raise ValueError(f"quantile: u={float(flat[bad][0])!r} must lie in "
                         "(0, 1)")
    return _gle_inverse(params, _z_of_u_array(params.p, flat)).reshape(u.shape)


def sample(params: RtgleParams, n: int, seed: int) -> np.ndarray:
    """n inverse-transform draws; identical output for identical inputs."""
    if n < 1:
        raise ValueError("sample: n must be >= 1")
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random(n)
    # avoid u == 0 exactly (quantile domain is open)
    u = np.nextafter(u, 1.0)
    return quantile_vec(params, u)


def _gle_inverse(params: RtgleParams, t):
    """Inverse of the GLE cumulative hazard, m(x)^gamma = t; float or array."""
    a, b, g, _ = params.as_tuple()
    if a == 0.0:
        # sqrt(2c/b) without forming c, which underflows first
        return math.sqrt(2.0 / b) * t ** (0.5 / g)
    c = t ** (1.0 / g)
    if b == 0.0:
        return c / a
    return 2.0 * c / (a + (a * a + 2.0 * b * c) ** 0.5)


def _log_gle_inverse(params: RtgleParams):
    """log_t -> log G^-1(t) in closed form, finite wherever log t is: with
    c = t^(1/gamma) and k = 2*beta/alpha^2, log x = log(2c/alpha) -
    log1p(sqrt(1 + k*c)), whose last term rounds to 0.5*log(k*c) once k*c
    passes e^700."""
    a, b, g, _ = params.as_tuple()
    if a == 0.0:
        log_scale = 0.5 * math.log(2.0 / b)
        return lambda log_t: log_scale + 0.5 * log_t / g
    log_a = math.log(a)
    if b == 0.0:
        return lambda log_t: log_t / g - log_a
    log_k, log_2a = math.log(2.0 * b) - 2.0 * log_a, math.log(2.0) - log_a

    def log_x(log_t):
        log_c = log_t / g
        if log_c + log_k < 700.0:
            return log_2a + log_c - math.log1p(
                math.sqrt(1.0 + math.exp(log_c + log_k)))
        return log_2a + 0.5 * (log_c - log_k)
    return log_x


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
