import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from scipy.optimize import minimize

from rtgle import DegenerateData, estimate
from rtgle.compare import (_SPECS, COMPETITOR_KINDS, CompetitorModel,
                           comparison_table, fit_competitor)
from rtgle.distribution import (RtgleParams, _d_log_pdf_kernel,
                                _d_log_sf_kernel, _valid_rows, sample,
                                validate)
from rtgle.estimate import (_IGNORE, _OBJECTIVES, _RTGLE, AllStartsFailed,
                            EstimationMethod, HessianNotPD, NonPositiveData,
                            OptimizerConfig, _box, _finite_rows, _inverse,
                            _row_objective, _search,
                            _to_free, ad_objective, cvm_objective, fit,
                            fit_many, ls_objective, neg_log_likelihood,
                            nll_gradient, standard_errors, wls_objective)

TRUE = RtgleParams(1.2, 0.5, 1.5, 0.8)


def test_data_validation():
    with pytest.raises(NonPositiveData):
        neg_log_likelihood(TRUE, [])
    with pytest.raises(NonPositiveData):
        neg_log_likelihood(TRUE, [1.0, -2.0])
    with pytest.raises(NonPositiveData):
        neg_log_likelihood(TRUE, [1.0, math.nan])


def test_transform_roundtrip():
    params = (0.3, 2.0, 1.7, 0.25)
    natural = _inverse(_RTGLE.kinds)
    back = natural(_to_free(params, _RTGLE.kinds)[None])
    for a, b in zip(params, back[0].tolist()):
        assert a == pytest.approx(b, rel=1e-12)
    # exp of a log coordinate overflows to inf, which the objective
    # rejects; the logit coordinate is clamped to |t| <= 40
    with np.errstate(**_IGNORE):
        values = natural(np.array([[1000.0, 0.0, 0.0, 0.0],
                                   [0.0, 0.0, 0.0, 1000.0]]))
        assert values[0, 0] == np.inf and values[1, 3] == 1.0
        value = _row_objective(_RTGLE, (EstimationMethod.MLE,),
                               sample(TRUE, 20, seed=1)[None])(
            values, np.zeros(2, dtype=int))[0]
    assert value[0] == np.inf and np.isfinite(value[1])


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
    with pytest.raises(ValueError, match="seed"):
        OptimizerConfig(seed=-1)


def test_converged_false_at_iteration_limit(monkeypatch):
    x = sample(TRUE, 100, seed=5)
    monkeypatch.setattr(estimate, "_MAX_ITERATIONS", 5)
    config = OptimizerConfig(n_starts=1)
    assert not fit_many([x], (EstimationMethod.MLE,), config)[0][0].converged
    assert not fit_competitor("TW", x, config).converged


def test_converged_on_ordinary_mle_fit():
    # the best start's search is certified before it reaches the step cap
    r = fit(sample(TRUE, 80, seed=0), EstimationMethod.MLE,
            OptimizerConfig(n_starts=4))
    assert r.converged


def test_boundary_mle_has_typed_standard_error_outcome():
    # the likelihood drives p to its edge, where the search stops at p ==
    # 1.0 exactly and no transformed coordinates (so no information matrix)
    # exist; four starts of this seed all end in the p = 0 basin, 0.05
    # higher, and the default hundred reach the edge
    x = sample(TRUE, 60, seed=5)
    r = fit(x, EstimationMethod.MLE, OptimizerConfig(seed=5))
    assert r.params.p == 1.0 and r.at_boundary == (False, False, False, True)
    assert r.standard_errors is None and "p=1.0" in r.diagnostics
    with pytest.raises(HessianNotPD, match="p=1.0"):
        standard_errors(r.params, x)


def test_edge_fit_reports_at_boundary():
    # p runs to 1 and a rate to 0; alpha = 0 and beta = 0 hold the same
    # Weibull-record model at p = 1 (z = (beta/2)^gamma x^(2 gamma) or
    # (alpha x)^gamma), so the fit may end on either rate's edge
    x = sample(TRUE, 50, seed=1)
    r = fit(x, EstimationMethod.MLE, OptimizerConfig(n_starts=4, seed=1))
    assert r.converged and r.params.p == 1.0
    assert r.at_boundary[3] and r.at_boundary[0] != r.at_boundary[1]
    assert r.params.as_tuple()[r.at_boundary.index(True)] == 0.0
    assert r.standard_errors is None and "p=1.0" in r.diagnostics


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
    rows = comparison_table([2.0] * 5, OptimizerConfig(n_starts=2))
    assert len(rows) == 8
    for row in rows:
        assert row.gof is None and "distinct" in row.error, row.model


LOCKSTEP_X = sample(TRUE, 40, seed=5)


def _lockstep_setup(model):
    """(record, methods, natural objective, natural starts) of a method of
    RTGLE or a competitor on LOCKSTEP_X: the center (the truth, or the
    competitor's start) and four normal perturbations of it in free
    coordinates."""
    x = LOCKSTEP_X
    if isinstance(model, EstimationMethod):
        spec, methods, center = _RTGLE, (model,), TRUE.as_tuple()
    else:
        # the record the engine searches: for RTW, its image in (alpha,
        # gamma, p)
        spec = (_SPECS[model].search or (_SPECS[model],))[0]
        methods = (EstimationMethod.MLE,)
        center = spec.start(x)
    theta = _to_free(center, spec.kinds)
    thetas = np.array([theta] + list(
        theta + np.random.default_rng(1).normal(size=(4, len(theta)))))
    return (spec, methods, _row_objective(spec, methods, x[None]),
            _inverse(spec.kinds)(thetas))


def _run_search(objective, starts, spec):
    fits = np.zeros(len(starts), dtype=int)
    f, g, h = objective(starts, fits)
    return _search(objective, starts, fits, f, g, h, _box(spec.kinds))


def _scipy_polish(objective, x0, spec, method="L-BFGS-B"):
    """scipy's bounded L-BFGS-B (with the analytic gradient) or adaptive
    Nelder-Mead from x0, inside the box (an open coordinate kept above
    x0/1000): the objective it reaches."""
    lower, upper, closed = _box(spec.kinds)
    bounds = [(lo if c else v / 1e3, hi if hi < np.inf else None)
              for lo, hi, c, v in zip(lower, upper, closed, x0)]
    first = np.zeros(1, dtype=int)

    def value_and_gradient(v):
        f, g, _ = objective(np.asarray(v, dtype=float)[None], first)
        return float(f[0]), g[0]
    if method == "Nelder-Mead":
        return minimize(lambda v: value_and_gradient(v)[0], x0, bounds=bounds,
                        method=method, options={
                            "maxiter": 4000, "xatol": 1e-10, "fatol": 1e-13,
                            "adaptive": True}).fun
    return minimize(value_and_gradient, x0, jac=True, method=method,
                    bounds=bounds, options={"ftol": 1e-15, "gtol": 1e-12,
                                            "maxiter": 10_000}).fun


@pytest.mark.parametrize("model",
                         list(EstimationMethod) + list(COMPETITOR_KINDS),
                         ids=str)
def test_lockstep_matches_scipy_nelder_mead(model, monkeypatch):
    # the lockstep search replaces scipy's adaptive Nelder-Mead: from every
    # start, neither Nelder-Mead nor scipy's bounded L-BFGS-B started at
    # its certified optimum lowers it by more than 1e-7 relative; from the
    # center it ends at or below L-BFGS-B from the center; and every search
    # takes the steps it takes alone, to the bit
    spec, methods, objective, starts = _lockstep_setup(model)
    with np.errstate(**_IGNORE):
        x, fun, nit, success, active = _run_search(objective, starts, spec)
        for row, x0 in enumerate(starts):
            alone = _run_search(objective, starts[row:row + 1], spec)
            assert [a[0].tolist() for a in alone] == [
                x[row].tolist(), fun[row], nit[row], success[row],
                active[row].tolist()], (model, row)
            assert success[row], (model, row)
            for method in ("L-BFGS-B", "Nelder-Mead"):
                polished = _scipy_polish(objective, x[row], spec, method)
                assert fun[row] <= polished + 1e-7 * abs(polished), (
                    model, row, method)
        reference = _scipy_polish(objective, starts[0], spec)
        assert fun[0] <= reference + 1e-7 * abs(reference), model
        # two steps certify no search
        monkeypatch.setattr(estimate, "_MAX_ITERATIONS", 2)
        stopped = _run_search(objective, starts, spec)
        assert not stopped[3].any() and (stopped[2] <= 2).all()


@pytest.mark.parametrize("kind", ["TLL", "LE"])
def test_lockstep_evaluates_only_its_own_points(kind):
    # every search evaluates the points it evaluates alone, in the same
    # order, and no others: after the starts, a call holds one trial point
    # of each live search
    spec, _, objective, starts = _lockstep_setup(kind)
    calls = []

    def counted(v, fits):
        calls.append((fits.tolist(), v.copy()))
        return objective(v, fits)
    labels = np.arange(len(starts))   # one sample: fits only label
    with np.errstate(**_IGNORE):
        f, g, h = counted(starts, labels)
        _search(counted, starts, labels, f, g, h, _box(spec.kinds))
        for label, x0 in enumerate(starts):
            points = []

            def own(v, fits):
                points.append(v[0].copy())
                return objective(v, fits)
            first = np.zeros(1, dtype=int)
            _search(own, x0[None], first, *own(x0[None], first),
                    _box(spec.kinds))
            mine = [v[r] for fits, v in calls
                    for r, fit in enumerate(fits) if fit == label]
            assert np.array(mine).tolist() == np.array(points).tolist(), label
    for fits, _ in calls[1:]:
        assert sorted(set(fits)) == fits


@pytest.mark.parametrize("model",
                         list(EstimationMethod) + ["W", "TW", "RTW"], ids=str)
def test_search_calls_hold_one_row_per_live_search(model):
    # after the starts, each objective call of a search holds exactly one
    # row per live search, its trial point, and reaches the kernels with
    # those of them that have a valid RTGLE image and no other row: a
    # search is in a call of every one of its steps and no more
    spec, methods, _, starts = _lockstep_setup(model)
    rows = []

    def counted(kernel):
        def call(x, x2, *v):
            rows[-1].append(np.column_stack([np.ravel(c) for c in v]))
            return kernel(x, x2, *v)
        return call
    spec = dataclasses.replace(spec, d_log_pdf=counted(spec.d_log_pdf),
                               d_log_sf=counted(spec.d_log_sf))
    natural = _row_objective(spec, methods, LOCKSTEP_X[None])
    calls = []

    def objective(v, fits):
        valid = _finite_rows(v)
        if spec.image:
            valid &= _valid_rows(*spec.image(*v.T))
        calls.append((fits.tolist(), v[valid].tolist()))
        rows.append([])
        return natural(v, fits)
    labels = np.arange(len(starts))   # one sample: fits only label
    with np.errstate(**_IGNORE):
        f, g, h = objective(starts, labels)
        steps = _search(objective, starts, labels, f, g, h,
                        _box(spec.kinds))[2]
    assert [r.tolist() for r in rows[0]] == [starts.tolist()]
    for (fits, valid), reached in zip(calls[1:], rows[1:]):
        assert len(set(fits)) == len(fits)
        assert [r.tolist() for r in reached] == ([valid] if valid else []), (
            fits, reached)
    assert [sum(label in fits for fits, _ in calls[1:]) for label in labels] \
        == steps.tolist()


def test_converged_is_a_certificate(monkeypatch):
    # a search is converged only where its decrement is within tolerance
    # of the value, and never when it stops at the step cap
    spec, methods, objective, starts = _lockstep_setup(EstimationMethod.MLE)
    with np.errstate(**_IGNORE):
        x, fun, nit, success, active = _run_search(objective, starts, spec)
        f, g, h = objective(x, np.zeros(len(x), dtype=int))
    assert success.all() and not active.any()
    for row in range(len(x)):
        decrement = g[row] @ np.linalg.solve(h[row], g[row])
        assert 0.0 <= decrement <= 1e-10 * abs(fun[row])
    monkeypatch.setattr(estimate, "_MAX_ITERATIONS", 3)
    capped = _run_search(objective, starts, spec)
    assert not capped[3].any() and (capped[2] == 3).all()


def test_row_objective_makes_one_call_per_kernel():
    # a call's MLE rows take one d_log_pdf call, and its LSE, WLSE, ADE and
    # CME rows together one d_log_sf call, whatever fits it holds and in
    # any order; each row's value is its public objective
    kernels = []

    def counted(kernel):
        def call(*args):
            kernels.append(kernel.__name__)
            return kernel(*args)
        return call
    methods = tuple(EstimationMethod)
    samples = [sample(TRUE, 30, seed=s) for s in (2, 3)]
    objective = _row_objective(dataclasses.replace(
        _RTGLE, d_log_pdf=counted(_d_log_pdf_kernel),
        d_log_sf=counted(_d_log_sf_kernel)), methods, np.array(samples))
    rng = np.random.default_rng(4)
    v = np.array(TRUE.as_tuple()) * rng.uniform(0.8, 1.2, size=(10, 4))
    expected = [_OBJECTIVES[methods[f % 5]](RtgleParams(*v[f]),
                                            samples[f // 5])
                for f in range(10)]
    # every fit in order; MLE and ADE only; ADE and squares only; one
    # squares formula; all ten reversed and shuffled
    for fits in (list(range(10)), [3, 0, 8, 5], [1, 3, 4, 8], [6, 2, 7],
                 list(range(9, -1, -1)), rng.permutation(10).tolist()):
        kernels.clear()
        with np.errstate(**_IGNORE):
            out = objective(v[fits], np.array(fits))[0]
        assert out.tolist() == [expected[f] for f in fits], fits
        assert sorted(kernels) == sorted(
            {"_d_log_pdf_kernel" if f % 5 == 0 else "_d_log_sf_kernel"
             for f in fits}), fits


def test_fit_many_returns_typed_errors_per_fit(monkeypatch):
    x = sample(TRUE, 30, seed=2)
    monkeypatch.setattr(estimate, "_MAX_ITERATIONS", 300)
    config = OptimizerConfig(n_starts=3)
    methods = (EstimationMethod.MLE, EstimationMethod.CME)
    results = fit_many([[2.0] * 30, x, [1.0, -1.0] * 15], methods, config)
    assert all(isinstance(r, DegenerateData) for r in results[0])
    assert all(isinstance(r, NonPositiveData) for r in results[2])
    for m, r in zip(methods, results[1]):
        assert r == fit_many([x], (m,), config)[0][0]
    with pytest.raises(ValueError, match="one size"):
        fit_many([x, x[:20]], methods, config)


@pytest.mark.parametrize("method", list(EstimationMethod), ids=str)
def test_fit_is_fit_many(method, monkeypatch):
    # an MLE fit adds only the standard errors to the lockstep search, also
    # where the search stops at the step cap
    x = sample(TRUE, 30, seed=2)
    monkeypatch.setattr(estimate, "_MAX_ITERATIONS", 300)
    config = OptimizerConfig(n_starts=3)
    result = fit(x, method, config)
    if method is EstimationMethod.MLE:
        assert result.standard_errors is not None or result.diagnostics
        result = dataclasses.replace(result, standard_errors=None,
                                     diagnostics="")
    assert result == fit_many([x], (method,), config)[0][0]
