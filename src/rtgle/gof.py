"""Goodness-of-fit statistics (KS, Cramer-von Mises, Anderson-Darling),
their p-values, and likelihood-based selection criteria.

Asymptotic p-values treat the fitted parameters as known, matching common
practice.  With estimated parameters, a parametric bootstrap calibrates
them: the caller refits each bootstrap sample and hands gof_report the
refitted distribution functions at the sorted samples.

Asymptotic formulas used:
  KS  -- Kolmogorov limiting survival function (scipy.special.kolmogorov)
         at the Stephens small-sample lam = (sqrt(n)+0.12+0.11/sqrt(n))*D.
  CvM -- limiting distribution of the Cramer-von Mises statistic,
         Csorgo & Faraway (1996) series with Bessel K(1/4).
  AD  -- Anderson & Darling (1954) limiting series; its inner integrals
         are evaluated together by the trapezoid rule in log w that the
         moments use (properties._log_trapezoid).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .properties import _log_trapezoid


class StatKind(enum.Enum):
    KS = "ks"
    CVM = "cvm"
    AD = "ad"


@dataclass
class GofReport:
    ks: float
    cvm: float
    ad: float
    p_ks: float
    p_cvm: float
    p_ad: float
    p_value_mode: str
    minus2loglik: float
    aic: float
    n: int


def _sorted_f(cdf_evaluator, data) -> np.ndarray:
    """F at the sorted sample; every statistic below is a function of it."""
    x = np.sort(np.asarray(data, dtype=float))
    if len(x) == 0:
        raise ValueError("data must be nonempty")
    return np.asarray(cdf_evaluator(x), dtype=float)


def _ks(f: np.ndarray) -> float:
    n = len(f)
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - f, f - (i - 1) / n)))


def _cvm_positions(n: int) -> np.ndarray:
    """The midpoint plotting positions (2i-1)/(2n), i = 1..n."""
    return (2 * np.arange(1, n + 1) - 1) / (2.0 * n)


def _cvm(f: np.ndarray, mid: np.ndarray) -> float:
    """W^2 from the sorted F values f and mid = _cvm_positions(len(f))."""
    return float(1.0 / (12.0 * len(mid)) + ((f - mid) ** 2).sum())


def _ad(f: np.ndarray) -> float:
    if np.any(f <= 0.0) or np.any(f >= 1.0):
        return math.inf
    n = len(f)
    i = np.arange(1, n + 1)
    return float(-n - np.sum((2 * i - 1) * (np.log(f)
                                            + np.log1p(-f[::-1]))) / n)


_STATISTICS = {StatKind.KS: _ks,
               StatKind.CVM: lambda f: _cvm(f, _cvm_positions(len(f))),
               StatKind.AD: _ad}


def ks_statistic(cdf_evaluator, data) -> float:
    """D = max_i max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n)."""
    return _ks(_sorted_f(cdf_evaluator, data))


def cvm_statistic(cdf_evaluator, data) -> float:
    """W^2 = 1/(12n) + sum (F(x_(i)) - (2i-1)/(2n))^2."""
    f = _sorted_f(cdf_evaluator, data)
    return _cvm(f, _cvm_positions(len(f)))


def ad_statistic(cdf_evaluator, data) -> float:
    """A^2 = -n - (1/n) sum (2i-1)[log F(x_(i)) + log(1-F(x_(n+1-i)))]."""
    return _ad(_sorted_f(cdf_evaluator, data))


# --- asymptotic null distributions ---------------------------------------------

def _ks_p_asymptotic(d: float, n: int) -> float:
    from scipy.special import kolmogorov
    lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * d
    return float(kolmogorov(lam))


def _cvm_cdf_asymptotic(x: float) -> float:
    from scipy.special import gammaln, kv
    if x <= 0.0:
        return 0.0
    total = 0.0
    for k in range(100):
        u = math.exp(gammaln(k + 0.5) - gammaln(k + 1)) \
            / (math.pi ** 1.5 * math.sqrt(x))
        y = 4.0 * k + 1.0
        q = y * y / (16.0 * x)
        if q > 700.0:
            break
        term = u * math.sqrt(y) * math.exp(-q) * float(kv(0.25, q))
        total += term
        if abs(term) < 1e-10:
            break
    return min(max(total, 0.0), 1.0)


def _ad_cdf_asymptotic(z: float) -> float:
    if z <= 0.0:
        return 0.0
    if z > 32.0:
        return 1.0
    # the term of y = 4j + 1, c_j y exp(-a) int_0^inf exp(z/(8(w^2+1)) -
    # a w^2) dw with a = y^2 pi^2/(8z), as one log integrand in u = log w;
    # a term with a >= 700 is negligible, and z below 0.0018 leaves none
    j = np.arange(12)
    y = 4.0 * j + 1.0
    a = (y * math.pi) ** 2 / (8.0 * z)
    j, y, a = j[a < 700.0], y[a < 700.0], a[a < 700.0, None]
    if not len(j):
        return 0.0
    log_cy = np.log(y) + np.array([math.lgamma(k + 0.5) - math.lgamma(0.5)
                                   - math.lgamma(k + 1.0) for k in j])

    def log_integrand(u):
        w2p1 = np.exp(2.0 * u) + 1.0
        return (z / 8.0 / w2p1 + u) - a * w2p1 + log_cy[:, None]
    terms = _log_trapezoid(log_integrand)
    total = sum(-t if k % 2 else t for k, t in zip(j, terms))
    return min(max(math.sqrt(2.0 * math.pi) / z * total, 0.0), 1.0)


def p_value(statistic: float, kind: StatKind, n: int) -> float:
    """Asymptotic null p-value for a statistic of the given kind."""
    if kind is StatKind.KS:
        return _ks_p_asymptotic(statistic, n)
    if kind is StatKind.CVM:
        return 1.0 - _cvm_cdf_asymptotic(statistic)
    if kind is StatKind.AD:
        return 1.0 - _ad_cdf_asymptotic(statistic)
    raise ValueError(f"unknown statistic kind: {kind!r}")


def aic(minus2loglik: float, r: int) -> float:
    """AIC = -2 log L + 2r for a model with r free parameters."""
    if r < 1:
        raise ValueError("parameter count r must be >= 1")
    return minus2loglik + 2.0 * r


def gof_report(cdf_evaluator, data, minus2loglik: float, r: int, *,
               bootstrap_f=None) -> GofReport:
    """All three statistics with p-values, plus -2logL and AIC.

    The p-values are asymptotic, or with bootstrap_f parametric-bootstrap
    ones: row b of bootstrap_f (B, n) is the refitted distribution function
    at the sorted b-th bootstrap sample, and a p-value is
    (1 + #{b: statistic of row b >= observed}) / (B + 1).
    """
    f = _sorted_f(cdf_evaluator, data)
    n = len(f)
    observed = {kind: stat(f) for kind, stat in _STATISTICS.items()}
    if bootstrap_f is None:
        p = {kind: p_value(stat, kind, n) for kind, stat in observed.items()}
        mode_label = "asymptotic"
    else:
        boot = np.asarray(bootstrap_f, dtype=float)
        if boot.ndim != 2 or len(boot) == 0 or boot.shape[1] != n:
            raise ValueError(f"bootstrap_f must have shape (B >= 1, {n}), "
                             f"got {boot.shape}")
        p = {kind: (1.0 + sum(stat(row) >= observed[kind] for row in boot))
             / (len(boot) + 1.0) for kind, stat in _STATISTICS.items()}
        mode_label = f"bootstrap({len(boot)})"
    return GofReport(
        ks=observed[StatKind.KS], cvm=observed[StatKind.CVM],
        ad=observed[StatKind.AD],
        p_ks=p[StatKind.KS], p_cvm=p[StatKind.CVM], p_ad=p[StatKind.AD],
        p_value_mode=mode_label,
        minus2loglik=minus2loglik,
        aic=aic(minus2loglik, r),
        n=n,
    )
