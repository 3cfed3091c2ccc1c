import math

import numpy as np
import pytest

from rtgle.distribution import (RtgleParams, cdf, exponential, quantile,
                                sample)
from rtgle.estimate import EstimationMethod, OptimizerConfig, fit
from rtgle.gof import (GofReport, PValueMode, StatKind, _ad_cdf_asymptotic,
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


def test_ks_p_value_limits():
    assert p_value(0.0, StatKind.KS, 50) == 1.0
    assert p_value(0.9, StatKind.KS, 50) < 1e-6
    # D = 0.12 at n = 50 should be unremarkable
    assert 0.3 < p_value(0.12, StatKind.KS, 50) < 0.9


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


def test_bootstrap_p_value_deterministic_and_calibrated():
    x = sample(PARAMS, 60, seed=14)
    obs = ks_statistic(lambda t: cdf(PARAMS, t), x)

    def sampler(n, seed):
        return sample(PARAMS, n, seed)

    def refitter(boot):
        # parameters treated as known: no refit, fixed cdf
        return lambda t: cdf(PARAMS, t)

    kwargs = dict(mode=PValueMode.BOOTSTRAP, bootstrap_sampler=sampler,
                  bootstrap_refitter=refitter, b=99, seed=5)
    p1 = p_value(obs, StatKind.KS, 60, **kwargs)
    p2 = p_value(obs, StatKind.KS, 60, **kwargs)
    assert p1 == p2
    assert 1.0 / 100.0 <= p1 <= 1.0
    # with known parameters the bootstrap and asymptotic p should agree
    # loosely for a mid-range statistic
    p_asym = p_value(obs, StatKind.KS, 60)
    assert abs(p1 - p_asym) < 0.3


def test_bootstrap_calibration_under_null():
    # data drawn from the hypothesized model: p-values should look uniform
    def sampler(n, seed):
        return sample(PARAMS, n, seed)

    def refitter(boot):
        return lambda t: cdf(PARAMS, t)

    small = 0
    for rep in range(50):
        x = sample(PARAMS, 30, seed=9000 + rep)
        obs = ks_statistic(lambda t: cdf(PARAMS, t), x)
        p = p_value(obs, StatKind.KS, 30, mode=PValueMode.BOOTSTRAP,
                    bootstrap_sampler=sampler, bootstrap_refitter=refitter,
                    b=199, seed=rep)
        if p < 0.1:
            small += 1
    assert 0.02 <= small / 50.0 <= 0.25


def test_bootstrap_requires_callables():
    with pytest.raises(ValueError):
        p_value(0.1, StatKind.KS, 50, mode=PValueMode.BOOTSTRAP)


def test_empty_data_rejected():
    with pytest.raises(ValueError):
        ks_statistic(_uniform_cdf, [])


def test_report_bootstrap_refits_each_replicate_once():
    x = sample(PARAMS, 40, seed=21)
    calls = {"sampler": 0, "refitter": 0}

    def sampler(n, seed):
        calls["sampler"] += 1
        return sample(PARAMS, n, seed)

    def refitter(boot):
        # a cheap real refit: the exponential rate 1/mean
        calls["refitter"] += 1
        fitted = exponential(1.0 / float(np.mean(boot)))
        return lambda t: cdf(fitted, t)

    fitted = exponential(1.0 / float(np.mean(x)))
    b = 7
    kwargs = dict(mode=PValueMode.BOOTSTRAP, bootstrap_sampler=sampler,
                  bootstrap_refitter=refitter, b=b, seed=3)
    rep = gof_report(lambda t: cdf(fitted, t), x, minus2loglik=1.0, r=1,
                     **kwargs)
    assert calls == {"sampler": b, "refitter": b}
    separate = [p_value(stat, kind, len(x), **kwargs) for stat, kind in
                ((rep.ks, StatKind.KS), (rep.cvm, StatKind.CVM),
                 (rep.ad, StatKind.AD))]
    assert [rep.p_ks, rep.p_cvm, rep.p_ad] == separate
    assert rep.p_value_mode == f"bootstrap({b})"


def test_report_evaluates_cdf_once_per_sample():
    x = sample(PARAMS, 40, seed=22)
    calls = [0]

    def counted(params):
        def cdf_evaluator(t):
            calls[0] += 1
            return cdf(params, t)
        return cdf_evaluator

    gof_report(counted(PARAMS), x, minus2loglik=1.0, r=4)
    assert calls[0] == 1
    calls[0] = 0
    b = 5
    gof_report(counted(PARAMS), x, minus2loglik=1.0, r=4,
               mode=PValueMode.BOOTSTRAP,
               bootstrap_sampler=lambda n, seed: sample(PARAMS, n, seed),
               bootstrap_refitter=lambda boot: counted(PARAMS), b=b, seed=1)
    assert calls[0] == 1 + b
