import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from scipy.optimize import minimize

from rtgle import DegenerateData
from rtgle.compare import (_SPECS, COMPETITOR_KINDS, CompetitorModel,
                           comparison_table, fit_competitor)
from rtgle.distribution import RtgleParams, sample, validate
from rtgle.estimate import (_IGNORE, _OBJECTIVES, _RTGLE, AllStartsFailed,
                            EstimationMethod, HessianNotPD, NonPositiveData,
                            OptimizerConfig, _model_objective, _nelder_mead,
                            _to_free, ad_objective, cvm_objective, fit,
                            fit_many, ls_objective, neg_log_likelihood, nll_gradient,
                            standard_errors, transform, untransform,
                            wls_objective)

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
    # exp of a log coordinate overflows as math.exp does; the logit one is
    # clamped to |t| <= 40
    with pytest.raises(OverflowError):
        untransform([1000.0, 0.0, 0.0, 0.0])
    assert untransform([0.0, 0.0, 0.0, 1000.0]).p == 1.0


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
        result = fit(x, method, config)
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
    result = fit_many([x], (EstimationMethod.MLE,), config)[0][0]
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


def test_distance_objectives_where_z_overflows():
    # z = m^gamma overflows at every point, where F = 1 and S = 0
    x = sample(TRUE, 30, seed=3)
    params = RtgleParams(1e200, 1.0, 2.0, 0.5)
    n = len(x)
    i = np.arange(1, n + 1)
    pos = i / (n + 1.0)
    w = (n + 1.0) ** 2 * (n + 2.0) / (i * (n - i + 1.0))
    assert ls_objective(params, x) == pytest.approx(
        np.sum((1.0 - pos) ** 2), rel=1e-12)
    assert wls_objective(params, x) == pytest.approx(
        np.sum(w * (1.0 - pos) ** 2), rel=1e-12)
    assert cvm_objective(params, x) == pytest.approx(
        1.0 / (12.0 * n) + np.sum((1.0 - (2 * i - 1) / (2.0 * n)) ** 2),
        rel=1e-12)
    assert ad_objective(params, x) == math.inf


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
        r = fit(x, EstimationMethod.MLE, config)
        p_hats.append(r.params.p)
    assert np.mean(p_hats) <= 0.15


def test_gradient_small_at_interior_optimum():
    x = sample(TRUE, 400, seed=33)
    r = fit(x, EstimationMethod.MLE, OptimizerConfig(n_starts=4, seed=0))
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
    assert not fit_many([x], (EstimationMethod.MLE,), config)[0][0].converged
    assert not fit_competitor("TW", x, config).converged


def test_converged_on_ordinary_mle_fit():
    # the best start's Nelder-Mead meets its tolerances before max_iterations
    r = fit(sample(TRUE, 80, seed=0), EstimationMethod.MLE,
            OptimizerConfig(n_starts=4))
    assert r.converged


def test_boundary_mle_has_typed_standard_error_outcome():
    # the likelihood drives p to the logit clamp, where p == 1.0 exactly and
    # no transformed coordinates (so no information matrix) exist
    x = sample(TRUE, 60, seed=5)
    r = fit(x, EstimationMethod.MLE, OptimizerConfig(n_starts=4, seed=5))
    assert r.params.p == 1.0
    assert r.standard_errors is None and "p=1.0" in r.diagnostics
    with pytest.raises(HessianNotPD, match="p=1.0"):
        standard_errors(r.params, x)


@pytest.mark.parametrize("data", [[1.3], [2.0] * 5, [1.0, 2.5],
                                  [1.0, 2.5, 4.0], [1.0, 2.5, 4.0, 0.7]])
@pytest.mark.parametrize("method",
                         list(EstimationMethod) + list(COMPETITOR_KINDS))
def test_degenerate_sample_raises_typed_error(data, method):
    # a fit of k free parameters needs two distinct values and n > k; a
    # competitor (named by its kind) runs the same check as fit
    config = OptimizerConfig(n_starts=2)
    if isinstance(method, EstimationMethod):
        k, run = 4, partial(fit, data, method, config)
    else:
        k = CompetitorModel(method, ()).n_params
        run = partial(fit_competitor, method, data, config)
    if len(set(data)) > 1 and len(data) > k:
        run()    # n = k + 1 already fits
    else:
        with pytest.raises(DegenerateData):
            run()
    assert issubclass(DegenerateData, ValueError)


def test_degenerate_sample_is_error_row_in_comparison():
    rows = comparison_table([2.0] * 5, OptimizerConfig(n_starts=2),
                            kinds=("RTGLE",))
    assert len(rows) == 1
    assert rows[0].gof is None and "distinct" in rows[0].error


def _scipy_nelder_mead(objective, x0, maxiter):
    """The reference: scipy's adaptive Nelder-Mead on one row at a time."""
    first = np.zeros(1, dtype=int)
    return minimize(lambda th: float(objective(th[None], first)[0]), x0,
                    method="Nelder-Mead",
                    options={"maxiter": maxiter, "xatol": 1e-8,
                             "fatol": 1e-10, "adaptive": True})


def _row_sizes(objective):
    """objective, recording the number of rows of every call."""
    sizes = []

    def counted(theta, fits):
        sizes.append(len(theta))
        return objective(theta, fits)
    return counted, sizes


def _initial_simplex(x0):
    sim = np.repeat(x0[None], len(x0) + 1, axis=0)
    for k, v in enumerate(x0):
        sim[k + 1, k] = (1 + 0.05) * v if v != 0 else 0.00025
    return sim


LOCKSTEP_X = sample(TRUE, 40, seed=5)


@pytest.mark.parametrize("model",
                         list(EstimationMethod) + list(COMPETITOR_KINDS),
                         ids=str)
def test_lockstep_matches_scipy_nelder_mead(model):
    x = LOCKSTEP_X
    if isinstance(model, EstimationMethod):
        objective = _model_objective(_RTGLE, (model,), x[None])
        center = transform(TRUE)
    else:
        spec = _SPECS[model]
        objective = _model_objective(spec, (EstimationMethod.MLE,), x[None])
        center = _to_free(spec.start(x), spec.kinds)
    k = len(center)
    starts = [center] + list(
        center + np.random.default_rng(1).normal(size=(4, k)))
    if model is EstimationMethod.MLE:   # shrinks on its own
        starts.append(transform(TRUE)
                      + np.random.default_rng(1).normal(size=(3, 4))[2])
    if model is EstimationMethod.ADE:   # two initial vertices at +inf
        starts.append(np.array([1.7075138771647236, -2.819024875455324,
                                1.0290959842070064, 25.46412677812139]))
    starts = np.array(starts)
    fits = np.zeros(len(starts), dtype=int)
    with np.errstate(**_IGNORE):
        # the searches stop at the iteration limit, then converge
        for maxiter, stopped in ((40, False), (2000, True)):
            x_opt, fun, nit, success = _nelder_mead(
                objective, starts, fits, maxiter, 1e-8, 1e-10)
            assert success.any() == stopped
            for row, x0 in enumerate(starts):
                ref = _scipy_nelder_mead(objective, x0, maxiter)
                assert x_opt[row].tolist() == ref.x.tolist(), (model, row)
                assert (fun[row], nit[row], success[row]) \
                    == (ref.fun, ref.nit, ref.success), (model, row)
        if model is EstimationMethod.MLE:
            counted, sizes = _row_sizes(objective)
            _nelder_mead(counted, starts[-1:], fits[:1], 2000, 1e-8, 1e-10)
            assert k in sizes[1:]   # a shrink evaluates k new vertices
        if model is EstimationMethod.ADE:
            first = objective(_initial_simplex(starts[-1]),
                              np.zeros(k + 1, dtype=int))
            assert np.isfinite(first[0]) and np.sum(np.isinf(first)) == 2


def test_fit_many_returns_typed_errors_per_fit():
    x = sample(TRUE, 30, seed=2)
    config = OptimizerConfig(n_starts=3, max_iterations=300)
    methods = (EstimationMethod.MLE, EstimationMethod.CME)
    results = fit_many([[2.0] * 30, x, [1.0, -1.0] * 15], methods, config)
    assert all(isinstance(r, DegenerateData) for r in results[0])
    assert all(isinstance(r, NonPositiveData) for r in results[2])
    for m, r in zip(methods, results[1]):
        assert r == fit_many([x], (m,), config)[0][0]
    with pytest.raises(ValueError, match="one size"):
        fit_many([x, x[:20]], methods, config)


@pytest.mark.parametrize("method", list(EstimationMethod), ids=str)
def test_fit_is_fit_many(method):
    # an MLE fit adds only the standard errors to the lockstep search, also
    # where the search stops at max_iterations
    x = sample(TRUE, 30, seed=2)
    config = OptimizerConfig(n_starts=3, max_iterations=300)
    result = fit(x, method, config)
    if method is EstimationMethod.MLE:
        assert result.standard_errors is not None or result.diagnostics
        result = dataclasses.replace(result, standard_errors=None,
                                     diagnostics="")
    assert result == fit_many([x], (method,), config)[0][0]
