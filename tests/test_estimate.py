import math

import numpy as np
import pytest

from rtgle import DegenerateData
from rtgle.compare import comparison_table, fit_competitor
from rtgle.distribution import RtgleParams, sample, validate
from rtgle.estimate import (AllStartsFailed, EstimationMethod, NonPositiveData,
                            OptimizerConfig, _OBJECTIVES, ad_objective,
                            cvm_objective, fit, ls_objective,
                            neg_log_likelihood, nll_gradient, standard_errors,
                            transform, untransform, wls_objective)

TRUE = RtgleParams(1.2, 0.5, 1.5, 0.8)


def test_data_validation():
    with pytest.raises(NonPositiveData):
        neg_log_likelihood(TRUE, [])
    with pytest.raises(NonPositiveData):
        neg_log_likelihood(TRUE, [1.0, -2.0])
    with pytest.raises(NonPositiveData):
        neg_log_likelihood(TRUE, [1.0, math.nan])


def test_transform_roundtrip():
    params = RtgleParams(0.3, 2.0, 1.7, 0.25)
    back = untransform(transform(params))
    for a, b in zip(params.as_tuple(), back.as_tuple()):
        assert a == pytest.approx(b, rel=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.Generator(np.random.Philox(key=3))
    for trial in range(20):
        params = validate(*(rng.uniform([0.2, 0.1, 0.5, 0.1],
                                        [2.5, 2.5, 2.5, 0.9])))
        x = sample(params, 60, seed=100 + trial)
        grad = nll_gradient(params, x)
        theta = np.array(params.as_tuple())
        fd = np.empty(4)
        for k in range(4):
            h = 1e-6 * max(1.0, abs(theta[k]))
            up, dn = theta.copy(), theta.copy()
            up[k] += h
            dn[k] -= h
            fd[k] = (neg_log_likelihood(validate(*up), x)
                     - neg_log_likelihood(validate(*dn), x)) / (2.0 * h)
        rel = np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))
        assert np.max(rel) <= 1e-5


def test_gradient_requires_interior():
    with pytest.raises(ValueError):
        nll_gradient(RtgleParams(1.0, 0.0, 1.0, 0.5), [1.0])
    with pytest.raises(ValueError):
        nll_gradient(RtgleParams(1.0, 1.0, 1.0, 0.0), [1.0])


def test_objectives_finite_and_ordered():
    x = sample(TRUE, 100, seed=2)
    for method, objective in _OBJECTIVES.items():
        v = objective(TRUE, x)
        assert math.isfinite(v)


def test_fit_objective_beats_truth():
    x = sample(TRUE, 150, seed=9)
    config = OptimizerConfig(n_starts=4, seed=0)
    for method in EstimationMethod:
        result = fit(x, method, config, compute_se=False)
        truth_obj = _OBJECTIVES[method](TRUE, x)
        assert result.objective <= truth_obj + 1e-9


def test_mle_recovers_truth_large_sample():
    x = sample(TRUE, 5000, seed=77)
    result = fit(x, EstimationMethod.MLE,
                 OptimizerConfig(n_starts=6, seed=0))
    assert result.standard_errors is not None
    est = np.array(result.params.as_tuple())
    se = np.array(result.standard_errors)
    truth = np.array(TRUE.as_tuple())
    assert np.all(np.abs(est - truth) <= 3.0 * se)


def test_fit_deterministic():
    x = sample(TRUE, 80, seed=4)
    config = OptimizerConfig(n_starts=5, seed=42)
    r1 = fit(x, EstimationMethod.LSE, config)
    r2 = fit(x, EstimationMethod.LSE, config)
    assert r1.params == r2.params
    assert r1.objective == r2.objective


def test_start_override_used():
    x = sample(TRUE, 60, seed=13)
    config = OptimizerConfig(n_starts=1, seed=0, start=TRUE.as_tuple())
    result = fit(x, EstimationMethod.MLE, config, polish_gradient=False,
                 compute_se=False)
    assert result.objective <= neg_log_likelihood(TRUE, x) + 1e-9


def test_standard_errors_shrink_with_n():
    # SEs scale like n^(-1/2), so the n vs 4n ratio should be near 2.  The
    # four parameters are weakly identified jointly (observed information is
    # noisy replicate to replicate), so the check uses the median ratio over
    # replicates per component plus a 15% band on the geometric mean.
    tp = RtgleParams(2.0, 1.0, 1.0, 0.5)
    config = OptimizerConfig(n_starts=1, seed=0, start=tp.as_tuple())
    ratios = []
    for rep in range(8):
        ses = {}
        for n in (1000, 4000):
            r = fit(sample(tp, n, seed=3000 + rep), EstimationMethod.MLE,
                    config)
            ses[n] = r.standard_errors
        if ses[1000] is not None and ses[4000] is not None:
            ratios.append(np.array(ses[1000]) / np.array(ses[4000]))
    assert len(ratios) >= 5
    med = np.median(np.array(ratios), axis=0)
    assert np.all(med > 1.4) and np.all(med < 2.6)
    geo_mean = float(np.exp(np.mean(np.log(med))))
    assert 2.0 * 0.85 <= geo_mean <= 2.0 * 1.15


def test_minimum_distance_objectives_match_statistics():
    # spot-check the least-squares objective against a direct evaluation
    x = np.array([0.5, 1.0, 2.0])
    f_sorted = np.sort(x)
    from rtgle.distribution import cdf
    f = cdf(TRUE, f_sorted)
    direct = sum((f[i] - (i + 1) / 4.0) ** 2 for i in range(3))
    assert ls_objective(TRUE, x) == pytest.approx(direct, rel=1e-12)
    i = np.arange(1, 4)
    w = 16.0 * 5.0 / (i * (4.0 - i))
    direct_w = float(np.sum(w * (f - i / 4.0) ** 2))
    assert wls_objective(TRUE, x) == pytest.approx(direct_w, rel=1e-12)
    assert math.isfinite(ad_objective(TRUE, x))
    assert cvm_objective(TRUE, x) >= 1.0 / 36.0


def test_constructed_data_zeroes_ls_objective():
    # choose data so F(x_(i)) = i/(n+1) exactly
    from rtgle.distribution import quantile
    n = 6
    x = [quantile(TRUE, i / (n + 1.0)) for i in range(1, n + 1)]
    assert ls_objective(TRUE, x) <= 1e-18
    assert wls_objective(TRUE, x) <= 1e-15


def test_cvm_uniformized_construction():
    from rtgle.distribution import quantile
    n = 8
    x = [quantile(TRUE, (2 * i - 1) / (2.0 * n)) for i in range(1, n + 1)]
    assert cvm_objective(TRUE, x) == pytest.approx(1.0 / (12.0 * n),
                                                   abs=1e-15)


def test_ad_single_point_hand_value():
    from rtgle.distribution import quantile
    x = [quantile(TRUE, 0.5)]
    assert ad_objective(TRUE, x) == pytest.approx(-1.0 + 2.0 * math.log(2.0),
                                                  rel=1e-10)


def test_objectives_permutation_invariant():
    x = sample(TRUE, 40, seed=8)
    perm = np.random.Generator(np.random.Philox(key=1)).permutation(x)
    for objective in _OBJECTIVES.values():
        assert objective(TRUE, x) == pytest.approx(objective(TRUE, perm),
                                                   rel=1e-13)


def test_p_zero_data_small_p_bias():
    # data generated at p = 0: fitted p should not show a large positive bias
    tp = RtgleParams(1.0, 0.5, 1.2, 0.0)
    start = (1.0, 0.5, 1.2, 0.01)
    config = OptimizerConfig(n_starts=1, seed=0, start=start)
    p_hats = []
    for rep in range(20):
        x = sample(tp, 200, seed=500 + rep)
        r = fit(x, EstimationMethod.MLE, config, compute_se=False)
        p_hats.append(r.params.p)
    assert np.mean(p_hats) <= 0.15


def test_gradient_small_at_interior_optimum():
    x = sample(TRUE, 400, seed=33)
    r = fit(x, EstimationMethod.MLE, OptimizerConfig(n_starts=4, seed=0),
            compute_se=False)
    a, b, g, p = r.params.as_tuple()
    if a > 0 and b > 0 and 0.0 < p < 1.0:
        grad = nll_gradient(r.params, x)
        # scale by the transform jacobian (optimum may sit at a clamped
        # logit coordinate, where the transformed gradient is what vanishes)
        jac = np.array([a, b, g, p * (1.0 - p)])
        assert np.linalg.norm(grad * jac) <= 1e-3 * (1.0 + abs(r.objective))


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(n_starts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(tolerance=-1.0)


def test_converged_false_at_iteration_limit():
    x = sample(TRUE, 100, seed=5)
    config = OptimizerConfig(max_iterations=5, n_starts=1)
    assert not fit(x, EstimationMethod.MLE, config,
                   polish_gradient=False).converged
    assert not fit_competitor("TW", x, config).converged


def test_converged_on_ordinary_mle_fit():
    # the BFGS polish stops on precision loss at a stationary point
    r = fit(sample(TRUE, 80, seed=0), EstimationMethod.MLE,
            OptimizerConfig(n_starts=4))
    assert r.converged


@pytest.mark.parametrize("data", [[1.3], [2.0] * 5])
@pytest.mark.parametrize("method", list(EstimationMethod))
def test_degenerate_sample_raises_typed_error(data, method):
    with pytest.raises(DegenerateData):
        fit(data, method, OptimizerConfig(n_starts=2))
    assert issubclass(DegenerateData, ValueError)


def test_degenerate_sample_is_error_row_in_comparison():
    rows = comparison_table([2.0] * 5, OptimizerConfig(n_starts=2),
                            kinds=("RTGLE",))
    assert len(rows) == 1
    assert rows[0].gof is None and "distinct" in rows[0].error
