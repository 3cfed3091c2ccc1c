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
import operator
from dataclasses import dataclass, replace

import numpy as np

from .special import _lambert_wm1_exp_array
# looked up here by the benchmark's per-layer tracing (bench/tracing.py)
from .special import lambert_wm1_exp  # noqa: F401


class InvalidParams(ValueError):
    """Parameter vector violates a domain constraint."""


class QuantileUnderflow(ArithmeticError):
    """A quantile lies below the smallest positive float, so it would read
    0, outside the support."""


class QuantileOverflow(ArithmeticError):
    """A quantile lies above the largest float, so it would read inf."""


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


def _index(value, name: str) -> int:
    """A size, count or seed as an int (operator.index: an int or a numpy
    integer, never a float), or a ValueError naming the field."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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
# The kernels take an array x > 0, x2 = x**2 and the scalars (alpha, beta,
# gamma, p), the signature of every competitor model in ``compare``;
# _on_support adds the rest.  A derivative kernel returns its plain
# kernel's value to the bit (tests/test_derivatives.py), log f from the
# shared _log_pdf_parts and log S from its own copy of log1p(p*z) - z.  The
# estimation engine also passes the parameters of many fits at once as
# (R, 1) columns against (R, n) or (1, n) data.

def _libm(ufunc, *args) -> np.ndarray:
    """ufunc elementwise on scalars or arrays of per-row values, rounded as
    ``math`` and ``**`` round each float.  numpy's SIMD exp, log and power
    loops round some results differently from the C library's scalar
    routines (about 1 in 20 for exp); on a 1-d negative-stride view numpy
    uses the C library, so every row sees the same bits, batched or not."""
    return ufunc(*[np.asarray(a).ravel()[::-1] for a in args])[::-1].reshape(
        np.shape(args[0]))


def _columns(values: np.ndarray):
    """The parameters of each row of values (R, k) as kernel arguments:
    (R, 1) columns, or the numpy scalars of a single row, on which numpy's
    loops are cheaper; the kernel's values come out as (R, n) or (n,).
    Either way the arithmetic is numpy's, which gives inf or NaN where
    Python's float arithmetic would raise."""
    return values[0] if len(values) == 1 else np.ascontiguousarray(
        values.T)[:, :, None]


def _log(v):
    """math.log elementwise on a scalar or an array, through ``_libm``."""
    return _libm(np.log, v)


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


# With L = log m, the derivatives of L by a and b are q = x/m and q x/2,
# so every second derivative of log f or log S by (a, b, g, p) is a
# per-point term times q^2 or q (or 1) times a power of x/2.  _hessian sums
# each term against (1, x, x^2) in one matmul, and _HESSIAN maps those sums
# (term t times x^e is sum 3t + e) into the 4 x 4 matrix.  The terms, as
# the kernels write them: the coefficients of L_i L_j in the (a, b) block,
# of L_i by g and of L_i by p; the (g, g) and (g, p) entries; minus the
# (p, p) entry; and for log f the 1/(a + b*x)^2 of log(a + b*x), whose
# (a, b) block is -(1, x, x^2) times it.
_HESSIAN = np.zeros((21, 16))
for _t, _e, _i, _j, _c in ((0, 0, 0, 0, 1.0), (0, 1, 0, 1, 0.5),
                           (0, 2, 1, 1, 0.25), (1, 0, 0, 2, 1.0),
                           (1, 1, 1, 2, 0.5), (2, 0, 0, 3, 1.0),
                           (2, 1, 1, 3, 0.5), (3, 0, 2, 2, 1.0),
                           (4, 0, 2, 3, 1.0), (5, 0, 3, 3, -1.0),
                           (6, 0, 0, 0, -1.0), (6, 1, 0, 1, -1.0),
                           (6, 2, 1, 1, -1.0)):
    _HESSIAN[3 * _t + _e, [4 * _i + _j, 4 * _j + _i]] = _c


def _hessian(x, x2, q, terms, weights):
    """The weighted sum over the points of an RTGLE kernel's Hessian, (R,
    4, 4), from its per-point terms (T, R, n) (see _HESSIAN) and q = x/m;
    weights (n,) or (R, n).  Each sum runs over one row's points, so a row
    has the same bits alone as in a batch."""
    terms[:3] *= q
    terms[0] *= q
    powers = np.empty(x.shape + (3,))
    powers[..., 0] = 1.0
    powers[..., 1] = x
    powers[..., 2] = x2
    sums = np.matmul(terms.swapaxes(0, -2) * weights[..., None, :], powers)
    used = _HESSIAN[:3 * len(terms)]
    return np.matmul(sums.reshape(-1, len(used)), used).reshape(-1, 4, 4)


def _d_log_sf_kernel(x, x2, a, b, g, p):
    """(log S, its derivatives by (a, b, g, p), second): _log_sf_kernel's
    value to the bit, and with r = p*z/(1+p*z) and c = d log S / d log z =
    r - z, d log S = c * g * d log m for a and b, c * log m for g and
    z/(1+p*z) for p.  second(weights) is the weighted sum of its Hessian
    (_hessian), whose terms are, with L = log m: g ((g-1) c - g r^2) for
    L_a L_b, c + g L (c - r^2) and g z/(1+p*z)^2 for L_i by g and by p,
    and L^2 (c - r^2), L z/(1+p*z)^2 and -(z/(1+p*z))^2 for (g, g), (g, p)
    and (p, p)."""
    m = _m(a, b, x, x2)
    z = np.power(m, g)
    pz = p * z
    value = np.log1p(pz) - z
    opz = 1.0 + pz
    r = pz / opz
    c = r - z
    gc = g * c
    gc_m = gc * x / m      # c * g * d log m / da, d log m / da = x/m
    log_m = np.log(m)
    grad = (gc_m, 0.5 * x * gc_m, c * log_m, z / opz)

    def second(weights):
        q = x / m
        t = np.empty((6,) + q.shape)
        c_r = np.subtract(c, r * r, out=t[3])
        g_c_r = g * c_r
        np.multiply(g, g_c_r, out=t[0])
        t[0] -= gc
        np.add(c, g_c_r * log_m, out=t[1])
        u = np.divide(grad[3], opz, out=t[4])
        np.multiply(g, u, out=t[2])
        c_r *= log_m * log_m
        u *= log_m
        np.square(grad[3], out=t[5])
        return _hessian(x, x2, q, t, weights)
    return value, grad, second


def _log_pdf_parts(x, x2, a, b, g, p):
    """log f(x) = log g + log(a + b*x) + (g-1) log m + log(1-p+p*z) - z,
    with the m, log m, z and 1-p+p*z it was computed from."""
    m = _m(a, b, x, x2)
    log_m = np.log(m)
    z = np.power(m, g)
    mix = (1.0 - p) + p * z
    log_mix = np.where(mix > 0.0, np.log(np.maximum(mix, 1e-320)), -np.inf)
    if not (np.minimum.reduce(m, axis=None) if m.ndim else m) > 0.0:
        # m underflowed: log m = log x + log(a + b*x/2), as in hazard, and
        # z with it, so at p = 1 the mixing term is log z = g * log m
        under = m == 0.0
        log_m = np.where(under, np.log(x) + np.log(a + 0.5 * b * x), log_m)
        log_mix = np.where(under & (p == 1.0), g * log_m, log_mix)
    value = _log(g) + np.log(a + b * x) + (g - 1.0) * log_m + log_mix - z
    return value, m, log_m, z, mix


def _log_pdf_kernel(x, x2, a, b, g, p):
    """log f(x) = log g + log(a + b*x) + (g-1) log m + log(1-p+p*z) - z."""
    return _log_pdf_parts(x, x2, a, b, g, p)[0]


def _d_log_pdf_kernel(x, x2, a, b, g, p):
    """(log f, its derivatives by (a, b, g, p), second): _log_pdf_kernel's
    value to the bit, and with r = p*z/(1-p+p*z) and e = (g-1) + g*(r - z),
    the derivative of log f by log m at fixed g, d log f = 1/(a+b*x) +
    e*x/m for a, x/(a+b*x) + e*x^2/(2m) for b, 1/g + (1 + r - z) log m for
    g and (z - 1)/(1-p+p*z) for p.  second(weights) takes the terms of
    _d_log_sf_kernel with 1 - p + p*z for 1 + p*z and r - z for c, plus
    those of (g-1) log m, log g and log(a + b*x): 1 - g for L_a L_b, 1 for
    L_i by g, -1/g^2 for (g, g), and 1/(a+b*x)^2."""
    value, m, log_m, z, mix = _log_pdf_parts(x, x2, a, b, g, p)
    r = p * z / mix
    r_z = r - z
    w = 1.0 / (a + b * x)
    g_1, g_r = g - 1.0, g * r_z
    e_m = (g_1 + g_r) * x / m
    one_r, inverse = 1.0 + r_z, 1.0 / g
    grad = (w + e_m, x * (w + 0.5 * e_m), inverse + log_m * one_r,
            (z - 1.0) / mix)

    def second(weights):
        q = x / m
        t = np.empty((7,) + q.shape)
        c_r = np.subtract(r_z, r * r, out=t[3])
        g_c_r = g * c_r
        np.multiply(g, g_c_r, out=t[0])
        t[0] -= g_r
        t[0] -= g_1
        np.add(one_r, g_c_r * log_m, out=t[1])
        u = np.divide(z / mix, mix, out=t[4])
        np.multiply(g, u, out=t[2])
        c_r *= log_m * log_m
        c_r -= inverse * inverse
        u *= log_m
        np.square(grad[3], out=t[5])
        np.square(w, out=t[6])
        return _hessian(x, x2, q, t, weights)
    return value, grad, second


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
    if not ys.size:
        return out
    acc = np.zeros_like(ys)
    for k in range(9, 1, -1):
        acc = 1.0 / k - ys * acc
    out[small] = -ys * ys * acc
    return out


def _newton_step(p: float, q: float, z: np.ndarray, T: np.ndarray):
    """Slope, step and new z >= 0 of one Newton step on
    log1p(p*z) - z + T = 0; the step is not finite where the slope is 0."""
    pz = p * z
    slope = -(q + pz) / (1.0 + pz)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = (_log1pmx(pz) - q * z + T) / slope
    return slope, step, np.maximum(z - step, 0.0)


def _z_of_u_array(p: float, u: np.ndarray) -> np.ndarray:
    """The root z >= 0 of z - log1p(p*z) = -log1p(-u) on a 1-d array of u.

    From the larger of a small-z lower bound and the Lambert closed form,
    one Newton step is taken on the whole array; only the elements whose
    step exceeded 1e-10*z take further steps, on the gathered remainder."""
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
    # T > 0 makes the start positive, so the first slope is nonzero.
    _, step, z = _newton_step(p, q, z, T)
    # act indexes z; za and T hold only the elements still moving
    act = np.flatnonzero(np.abs(step) > 1e-10 * z)
    za, T = z[act], T[act]
    for _ in range(49):
        if not act.size:
            break
        slope, step, z_new = _newton_step(p, q, za, T)
        moved = (slope != 0.0) & (z_new != za)
        z[act[moved]] = z_new[moved]
        moved &= np.abs(step) > 1e-10 * z_new
        act, za, T = act[moved], z_new[moved], T[moved]
    return z


def quantile(params: RtgleParams, u: float) -> float:
    """Exact quantile Q(u) for u in (0,1); cdf(quantile(u)) = u.  Raises
    ``QuantileUnderflow`` where Q(u) is below the smallest positive float,
    and ``QuantileOverflow`` where it is above the largest."""
    return float(quantile_vec(params, u))


def quantile_vec(params: RtgleParams, u) -> np.ndarray:
    """The quantile Q(u) elementwise over an array of any shape: the closed
    form through ``_lambert_wm1_exp_array`` and a Newton polish, in a few
    passes of array arithmetic; within 1e-13 relative of a 40-digit root
    wherever that root is a normal float.  Raises ``QuantileUnderflow`` if
    some Q(u) rounds to 0, and ``QuantileOverflow`` if some Q(u) overflows
    (in the upper tail at small gamma, where t^(1/gamma) does)."""
    u = np.asarray(u, dtype=float)
    flat = u.ravel()
    bad = ~((flat > 0.0) & (flat < 1.0))
    if bad.any():
        raise ValueError(f"quantile: u={float(flat[bad][0])!r} must lie in "
                         "(0, 1)")
    with np.errstate(over="ignore", invalid="ignore"):
        x = _gle_inverse(params, _z_of_u_array(params.p, flat))
    if x.size and x.min() == 0.0:
        u0 = float(flat[np.flatnonzero(x == 0.0)[0]])
        raise QuantileUnderflow(f"quantile: Q(u) at u={u0!r} is below the "
                                "smallest positive float")
    if x.size and not x.max() < math.inf:
        # inf, or inf/inf = NaN where 2c or 2bc overflowed: the log form
        # is finite, and its exp is inf only above the largest float
        over = np.flatnonzero(~(x < math.inf))
        z = _z_of_u_array(params.p, flat[over])
        with np.errstate(over="ignore"):
            x[over] = np.exp(_log_gle_inverse(params, np.log(z)))
        if not x.max() < math.inf:
            u0 = float(flat[over[np.flatnonzero(x[over] == math.inf)[0]]])
            raise QuantileOverflow(f"quantile: Q(u) at u={u0!r} is above "
                                   "the largest float")
    return x.reshape(u.shape)


def sample(params: RtgleParams, n: int, seed: int) -> np.ndarray:
    """n inverse-transform draws; identical output for identical inputs.
    Raises ``QuantileUnderflow`` if a draw's quantile rounds to 0, and
    ``QuantileOverflow`` if one overflows."""
    n, seed = _index(n, "sample: n"), _index(seed, "seed")
    if n < 1:
        raise ValueError("sample: n must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
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


def _log_gle_inverse(params: RtgleParams, log_t):
    """log G^-1(t) from log t in closed form, for a float or an array, and
    finite wherever log t is: with c = t^(1/gamma) and k = 2*beta/alpha^2,
    log x = log(2c/alpha) - log(1 + sqrt(1 + k*c)), whose last term is
    log(k*c)/2 to the last bit once k*c passes e^700, so k*c is capped
    there and the rest is added in log space."""
    a, b, g, _ = params.as_tuple()
    if a == 0.0:
        return 0.5 * math.log(2.0 / b) + 0.5 * log_t / g
    log_a, log_c = math.log(a), log_t / g
    if b == 0.0:
        return log_c - log_a
    log_kc = log_c + (math.log(2.0 * b) - 2.0 * log_a)
    capped = np.minimum(log_kc, 700.0)
    return (math.log(2.0) - log_a + log_c - 0.5 * (log_kc - capped)
            - np.log(1.0 + np.sqrt(1.0 + np.exp(capped))))


def sample_via_records(params: RtgleParams, n: int, seed: int) -> np.ndarray:
    """Record-construction sampler; an independent oracle for ``sample``.

    Draws the first upper record of the GLE baseline with probability 1-p
    and the second with probability p, using the exponential spacing of
    records: the k-th record is G^{-1}(1 - exp(-(E1+...+Ek))).
    """
    n, seed = _index(n, "sample_via_records: n"), _index(seed, "seed")
    if n < 1:
        raise ValueError("sample_via_records: n must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
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
