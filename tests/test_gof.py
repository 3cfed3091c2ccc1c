import math

import numpy as np
import pytest

from rtgle.distribution import RtgleParams, cdf, sample
from rtgle.gof import (GofReport, StatKind, _ad_cdf_asymptotic,
                       _cvm_cdf_asymptotic, ad_statistic, aic, cvm_statistic,
                       gof_report, ks_statistic, p_value)

PARAMS = RtgleParams(0.5, 0.5, 1.2, 0.2)


def _uniform_cdf(x):
    return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)


def test_ks_hand_value():
    # single point at u=0.3: D = max(1-0.3, 0.3-0) = 0.7
    assert ks_statistic(_uniform_cdf, [0.3]) == pytest.approx(0.7)


def test_cvm_hand_value():
    # single point at u=0.5: W2 = 1/12 + (0.5-0.5)^2
    assert cvm_statistic(_uniform_cdf, [0.5]) == pytest.approx(1.0 / 12.0)


def test_ad_hand_value():
    assert ad_statistic(_uniform_cdf, [0.5]) == pytest.approx(
        -1.0 + 2.0 * math.log(2.0), rel=1e-12)


def test_ad_infinite_at_support_edge():
    assert ad_statistic(_uniform_cdf, [0.0]) == math.inf


def test_statistics_permutation_invariant():
    x = [0.2, 0.9, 0.5, 0.7]
    for stat in (ks_statistic, cvm_statistic, ad_statistic):
        assert stat(_uniform_cdf, x) == stat(_uniform_cdf, sorted(x))


def test_asymptotic_null_quantiles():
    # frozen critical points of the limiting null distributions
    # CvM: P(W2 <= 0.46136) = 0.95; AD: P(A2 <= 2.492) = 0.95
    assert _cvm_cdf_asymptotic(0.46136) == pytest.approx(0.95, abs=1e-5)
    assert _ad_cdf_asymptotic(2.4924) == pytest.approx(0.95, abs=1e-5)
    # CvM: 0.74346 -> 0.99; AD: 3.8781 -> 0.99
    assert _cvm_cdf_asymptotic(0.74346) == pytest.approx(0.99, abs=1e-5)
    assert _ad_cdf_asymptotic(3.8781) == pytest.approx(0.99, abs=1e-5)


@pytest.mark.parametrize("z,expected", [
    # the Anderson-Darling (1954) series with 30-digit mpmath quadratures of
    # its inner integrals, summed until the terms vanish; at z = 1e-300 the
    # cdf is far below the float range
    (1e-300, 0.0),
    (0.05, 1.7314922680160161067e-10),
    (0.5, 0.25318562646965551557),
    (2.492, 0.94997781364039213384),
    (10.0, 0.99998618496458931414),
    (32.0, 0.99999999999999782461)])
def test_ad_limiting_cdf_against_mpmath(z, expected):
    assert abs(_ad_cdf_asymptotic(z) - expected) < 1e-14


def test_ks_p_value_limits():
    assert p_value(0.0, StatKind.KS, 50) == 1.0
    assert p_value(0.9, StatKind.KS, 50) < 1e-6
    # D = 0.12 at n = 50 should be unremarkable
    assert 0.3 < p_value(0.12, StatKind.KS, 50) < 0.9


def _kolmogorov_series(lam):
    """The truncated alternating series the KS p-value used to sum."""
    total = 0.0
    for k in range(1, 101):
        term = (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
        total += term
        if abs(term) < 1e-12:
            break
    return min(max(2.0 * total, 0.0), 1.0)


def test_ks_p_value_at_small_lambda():
    # lam = 0.007 and 0.020: 100 terms of the series are far from its sum
    # there, and read 0.629 and 0.99970
    for d in (7e-5, 2e-4):
        assert p_value(d, StatKind.KS, 10_000) == 1.0
    # where the series converges it is the same function
    n = 50
    scale = math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)   # Stephens
    for d in (np.linspace(0.3, 3.0, 28) / scale).tolist():
        assert p_value(d, StatKind.KS, n) == pytest.approx(
            _kolmogorov_series(scale * d), abs=1e-14)


def test_p_values_monotone_in_statistic():
    for kind in StatKind:
        ps = [p_value(s, kind, 50) for s in (0.05, 0.1, 0.2, 0.4, 0.8)]
        assert all(a >= b - 1e-12 for a, b in zip(ps, ps[1:]))


def test_aic():
    assert aic(100.0, 4) == 108.0
    with pytest.raises(ValueError):
        aic(100.0, 0)


def test_gof_report_fields():
    x = sample(PARAMS, 200, seed=3)
    rep = gof_report(lambda t: cdf(PARAMS, t), x, minus2loglik=123.0, r=4)
    assert isinstance(rep, GofReport)
    assert rep.aic == 131.0
    assert rep.n == 200
    assert 0.0 <= rep.p_ks <= 1.0
    assert rep.p_value_mode == "asymptotic"
    # true model on its own sample should not be rejected
    assert rep.p_ks > 0.01 and rep.p_cvm > 0.01 and rep.p_ad > 0.01


def _known_params_f(b, n, seed):
    """bootstrap_f with the parameters treated as known: no refit, row rep
    is the fixed cdf at the sorted sample drawn with SeedSequence([seed,
    rep])."""
    return np.array([cdf(PARAMS, np.sort(sample(PARAMS, n, int(
        np.random.SeedSequence([seed, rep]).generate_state(1)[0]))))
        for rep in range(b)])


def test_bootstrap_p_value_deterministic_and_calibrated():
    x = sample(PARAMS, 60, seed=14)

    def p_ks():
        return gof_report(lambda t: cdf(PARAMS, t), x, minus2loglik=1.0, r=4,
                          bootstrap_f=_known_params_f(99, 60, 5)).p_ks
    p1, p2 = p_ks(), p_ks()
    assert p1 == p2
    assert 1.0 / 100.0 <= p1 <= 1.0
    # with known parameters the bootstrap and asymptotic p should agree
    # loosely for a mid-range statistic
    p_asym = p_value(ks_statistic(lambda t: cdf(PARAMS, t), x),
                     StatKind.KS, 60)
    assert abs(p1 - p_asym) < 0.3


def test_bootstrap_calibration_under_null():
    # data drawn from the hypothesized model: p-values should look uniform
    small = 0
    for rep in range(50):
        x = sample(PARAMS, 30, seed=9000 + rep)
        p = gof_report(lambda t: cdf(PARAMS, t), x, minus2loglik=1.0, r=4,
                       bootstrap_f=_known_params_f(199, 30, rep)).p_ks
        if p < 0.1:
            small += 1
    assert 0.02 <= small / 50.0 <= 0.25


def test_bootstrap_f_shape_checked():
    # one row of n refitted cdf values per replicate, and B >= 1 replicates
    x = sample(PARAMS, 40, seed=21)
    for shape in ((5,), (0, 40), (5, 39), (5, 41), (2, 5, 40)):
        with pytest.raises(ValueError, match="bootstrap_f"):
            gof_report(lambda t: cdf(PARAMS, t), x, minus2loglik=1.0, r=4,
                       bootstrap_f=np.full(shape, 0.5))


def test_bootstrap_counts_exceedances():
    # p = (1 + #{row statistic >= observed}) / (B + 1), per statistic
    x = sample(PARAMS, 40, seed=21)
    f = cdf(PARAMS, np.sort(x))
    rows = np.array([f, (np.arange(1, 41) - 0.5) / 40, f ** 3])
    rep = gof_report(lambda t: cdf(PARAMS, t), x, minus2loglik=1.0, r=1,
                     bootstrap_f=rows)
    for kind, stat, p in ((StatKind.KS, ks_statistic, rep.p_ks),
                          (StatKind.CVM, cvm_statistic, rep.p_cvm),
                          (StatKind.AD, ad_statistic, rep.p_ad)):
        observed = stat(lambda t: cdf(PARAMS, t), x)
        exceed = sum(stat(lambda t, r=row: r, row) >= observed
                     for row in rows)
        assert p == (1.0 + exceed) / 4.0, kind
    assert rep.p_value_mode == "bootstrap(3)"


def test_empty_data_rejected():
    with pytest.raises(ValueError):
        ks_statistic(_uniform_cdf, [])


def test_report_evaluates_cdf_once_per_sample():
    x = sample(PARAMS, 40, seed=22)
    calls = [0]

    def counted(t):
        calls[0] += 1
        return cdf(PARAMS, t)

    gof_report(counted, x, minus2loglik=1.0, r=4)
    assert calls[0] == 1
    calls[0] = 0
    gof_report(counted, x, minus2loglik=1.0, r=4,
               bootstrap_f=_known_params_f(5, 40, 1))
    assert calls[0] == 1
