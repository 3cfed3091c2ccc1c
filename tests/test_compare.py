import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import weibull_min

from rtgle import compare, estimate
from rtgle.compare import (_SPECS, COMPETITOR_KINDS, CompetitorModel,
                           comparison_table, competitor_cdf,
                           competitor_log_pdf, competitor_pdf, fit_competitor,
                           make_competitor)
from rtgle.datasets import flag_outliers_iqr, load_dataset
from rtgle.distribution import RtgleParams, sample
from rtgle.estimate import (_IGNORE, _RTGLE, AllStartsFailed,
                            EstimationMethod, HessianNotPD, OptimizerConfig,
                            _inverse, _row_objective, _standard_errors,
                            _to_free, fit, neg_log_likelihood,
                            standard_errors)

EXAMPLES = {
    "RTW": (0.4, 0.8, 0.5),
    "W": (0.9, 5.8),
    "TW": (0.8, 4.8, -0.3),
    "TL": (0.27, 0.27),
    "TLL": (8.7, 1.0, 0.9),
    "RTLE": (0.16, 0.003, 0.08),
    "LE": (0.15, 0.003),
}


def test_registry_complete():
    assert set(COMPETITOR_KINDS) == set(EXAMPLES)
    assert len(COMPETITOR_KINDS) == 7
    # one registry: RTGLE first, then the seven competitors
    assert tuple(_SPECS) == ("RTGLE",) + COMPETITOR_KINDS
    assert _SPECS["RTGLE"] is _RTGLE
    with pytest.raises(KeyError):
        make_competitor("RTGLE", 1.0, 1.0, 1.0, 0.5)


@pytest.mark.parametrize("kind", sorted(EXAMPLES))
def test_pdf_integrates_to_one(kind):
    model = make_competitor(kind, *EXAMPLES[kind])
    total, err = quad(lambda x: competitor_pdf(model, x), 0.0, np.inf,
                      limit=400)
    assert total == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("kind", sorted(EXAMPLES))
def test_cdf_is_pdf_integral(kind):
    model = make_competitor(kind, *EXAMPLES[kind])
    for hi in (0.5, 2.0, 10.0):
        val, _ = quad(lambda x: competitor_pdf(model, x), 0.0, hi, limit=400)
        assert competitor_cdf(model, hi) == pytest.approx(val, abs=1e-9)


@pytest.mark.parametrize("kind", sorted(EXAMPLES))
def test_cdf_limits(kind):
    model = make_competitor(kind, *EXAMPLES[kind])
    assert competitor_cdf(model, 0.0) == 0.0
    assert competitor_cdf(model, -1.0) == 0.0
    # TLL has a power-law tail, so approach to 1 is slow
    assert competitor_cdf(model, 1e8) == pytest.approx(1.0, abs=1e-6)


def _le_log_pdf(x, a, b, p):
    m = a * x + 0.5 * b * x * x
    return np.log(a + b * x) - m + np.log(1.0 - p + p * m)


def _le_cdf(x, a, b, p):
    m = a * x + 0.5 * b * x * x
    return 1.0 - (1.0 + p * m) * np.exp(-m)


def _lindley_sf(x, th):
    return (1.0 + th * x / (th + 1.0)) * np.exp(-th * x)


# the published closed forms of every competitor; the transmuted densities
# are g(x) (1 - lam + 2 lam S_G(x)), their cdfs G(x) (1 + lam S_G(x)), and
# the log-logistic factor is the normalized one of the module docstring
CLOSED_FORM_LOG_PDF = {
    "W": lambda x, mu, s: (math.log(mu / s) + (mu - 1.0) * np.log(x / s)
                           - (x / s) ** mu),
    "RTW": lambda x, th, g, p: (math.log(th * g) + (g - 1.0) * np.log(x)
                                - th * x ** g
                                + np.log(1.0 + p * (th * x ** g - 1.0))),
    "TW": lambda x, mu, s, lam: (
        math.log(mu / s) + (mu - 1.0) * np.log(x / s) - (x / s) ** mu
        + np.log(1.0 - lam + 2.0 * lam * np.exp(-(x / s) ** mu))),
    "TL": lambda x, th, lam: (
        np.log(th * th / (th + 1.0) * (1.0 + x) * np.exp(-th * x)
               * (1.0 - lam + 2.0 * lam * _lindley_sf(x, th)))),
    "TLL": lambda x, a, b, lam: np.log(
        b * a ** b * x ** (b - 1.0)
        * ((1.0 + lam) * (a ** b + x ** b) - 2.0 * lam * x ** b)
        / (a ** b + x ** b) ** 3),
    "RTLE": _le_log_pdf,
    "LE": lambda x, a, b: _le_log_pdf(x, a, b, 0.0),
}

CLOSED_FORM_CDF = {
    "W": lambda x, mu, s: 1.0 - np.exp(-(x / s) ** mu),
    "RTW": lambda x, th, g, p: (1.0 - (1.0 + p * th * x ** g)
                                * np.exp(-th * x ** g)),
    "TW": lambda x, mu, s, lam: ((1.0 - np.exp(-(x / s) ** mu))
                                 * (1.0 + lam * np.exp(-(x / s) ** mu))),
    "TL": lambda x, th, lam: ((1.0 - _lindley_sf(x, th))
                              * (1.0 + lam * _lindley_sf(x, th))),
    "TLL": lambda x, a, b, lam: (x ** b / (a ** b + x ** b)
                                 * (1.0 + lam * a ** b / (a ** b + x ** b))),
    "RTLE": _le_cdf,
    "LE": lambda x, a, b: _le_cdf(x, a, b, 0.0),
}


@pytest.mark.parametrize("kind", sorted(CLOSED_FORM_LOG_PDF))
def test_nested_log_pdf_matches_closed_form(kind):
    params = EXAMPLES[kind]
    x = np.linspace(0.05, 40.0, 200)
    got = competitor_log_pdf(make_competitor(kind, *params), x)
    expected = CLOSED_FORM_LOG_PDF[kind](x, *params)
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", sorted(CLOSED_FORM_CDF))
def test_cdf_matches_closed_form(kind):
    params = EXAMPLES[kind]
    x = np.linspace(0.05, 40.0, 200)
    got = competitor_cdf(make_competitor(kind, *params), x)
    assert np.allclose(got, CLOSED_FORM_CDF[kind](x, *params), rtol=1e-12,
                       atol=0.0)


def test_nested_likelihoods_on_real_data():
    full = load_dataset("embedded").values
    trimmed = np.delete(full, flag_outliers_iqr(full))
    m2ll = {k: fit_competitor(k, trimmed).minus2loglik
            for k in ("W", "RTW", "LE", "RTLE")}
    assert m2ll["RTW"] <= m2ll["W"] + 1e-6
    assert m2ll["RTLE"] <= m2ll["LE"] + 1e-6


@pytest.mark.parametrize("kind", ["W", "LE", "RTLE", "RTW"])
def test_nested_likelihood_is_rtgle_likelihood_at_image(kind):
    # one likelihood formula: a nested competitor's -2logL is RTGLE's at
    # the competitor's RTGLE image, to the bit
    full = load_dataset("embedded").values
    trimmed = np.delete(full, flag_outliers_iqr(full))
    cf = fit_competitor(kind, trimmed)
    image = RtgleParams(*_SPECS[kind].image(*cf.model.params))
    assert cf.minus2loglik == 2.0 * neg_log_likelihood(image, trimmed)


# per transmuted kind at lambda = 1: its parameters, a point x where S_G <
# 1e-16, and the baseline's log g and log S_G there in closed form
UPPER_TAIL = {
    "TW": ((1.0, 1.0, 1.0), 40.0, lambda x: (-x, -x)),
    "TL": ((1.0, 1.0), 45.0, lambda x: (math.log1p(x) - x - math.log(2.0),
                                        math.log1p(0.5 * x) - x)),
    "TLL": ((1.0, 1.0, 1.0), 1e17, lambda x: (-2.0 * math.log1p(x),
                                              -math.log1p(x))),
}


@pytest.mark.parametrize("kind", sorted(UPPER_TAIL))
def test_transmuted_upper_tail_at_lambda_one(kind):
    # at lambda = 1, f = 2 g S_G and S = S_G^2, also where G rounds to 1
    params, x, baseline = UPPER_TAIL[kind]
    log_g, log_s = baseline(x)
    assert log_s < math.log(1e-16)
    model = make_competitor(kind, *params)
    assert competitor_log_pdf(model, x) == pytest.approx(
        math.log(2.0) + log_g + log_s, rel=1e-12, abs=0.0)
    with np.errstate(**_IGNORE):
        log_sf = float(_SPECS[kind].log_sf(x, x * x, *params))
    assert log_sf == pytest.approx(2.0 * log_s, rel=1e-12, abs=0.0)


def test_rtw_starts_do_not_crawl(monkeypatch):
    # RTW is searched on its RTGLE image (alpha, gamma, p): on these seeds
    # a start searched in (theta, gamma, p) crawled along the valley that
    # theta = alpha^gamma bends, to the 2,000-step cap
    full = load_dataset("embedded").values
    trimmed = np.delete(full, flag_outliers_iqr(full))
    steps = []

    def counted(*args):
        found = search(*args)
        steps.append(found[2])
        return found
    search = estimate._search
    monkeypatch.setattr(estimate, "_search", counted)
    for seed in (2, 6, 8, 10, 11, 23, 28, 35):
        cf = fit_competitor("RTW", trimmed, OptimizerConfig(seed=seed))
        assert steps.pop().max() <= 200, seed
        assert cf.minus2loglik <= 261.45218791892165 * (1.0 + 1e-9), seed


def test_log_pdf_outside_support():
    model = make_competitor("W", 1.0, 1.0)
    assert competitor_log_pdf(model, 0.0) == -math.inf
    assert competitor_log_pdf(model, -2.0) == -math.inf


def test_make_competitor_validation():
    with pytest.raises(ValueError):
        make_competitor("W", 1.0)          # wrong arity
    with pytest.raises(ValueError):
        make_competitor("W", -1.0, 1.0)    # negative scale
    with pytest.raises(ValueError):
        make_competitor("TW", 1.0, 1.0, 1.5)   # lambda out of [-1, 1]
    with pytest.raises(ValueError):
        make_competitor("RTW", 1.0, 1.0, 1.5)  # p out of [0, 1]
    # a non-finite value of any kind
    for kind, params in (("TL", (math.inf, 0.0)), ("TW", (1.0, math.inf, 0.0)),
                         ("TW", (1.0, 1.0, math.nan)),
                         ("RTW", (1.0, 1.0, math.nan))):
        with pytest.raises(ValueError, match="finite"):
            make_competitor(kind, *params)
    # nested kinds whose RTGLE image is invalid or not finite
    for kind, params in (("RTW", (1e-5, 0.01, 0.5)),   # alpha underflows
                         ("RTW", (5.0, 0.001, 0.5)),   # alpha overflows
                         ("W", (2.0, 1e-310))):        # alpha = 1/sigma = inf
        with pytest.raises(ValueError, match=kind):
            make_competitor(kind, *params)


# free-coordinate rows at an edge of each model's arithmetic: TL theta =
# e^-800 = 0, TLL alpha = e^+-800, RTW alpha = e^800, W sigma = e^800 and
# RTGLE gamma = e^-800
EDGE_ROWS = {
    "RTGLE": [(0.0, 0.0, -800.0, 0.0)],
    "RTW": [(800.0, 0.0, 0.0)],
    "W": [(0.0, 800.0)],
    "TL": [(-800.0, 0.0)],
    "TLL": [(800.0, 0.0, 0.0), (-800.0, 0.0, 0.0)],
}


@pytest.mark.parametrize("kind", list(_SPECS))
def test_one_row_call_is_its_row_of_a_batch(kind):
    # a row's value does not depend on the rows evaluated with it: a call
    # of one row, on numpy scalars, gives the bits of that row inside a
    # call of two, on (R, 1) columns; and an edge row gives +inf with no
    # exception and no warning
    # the record the engine searches: for RTW, its image in (alpha, gamma, p)
    spec = (_SPECS[kind].search or (_SPECS[kind],))[0]
    x = load_dataset("embedded").values
    methods = (EstimationMethod.MLE, EstimationMethod.ADE,
               EstimationMethod.LSE)
    on_natural = _row_objective(spec, methods, x[None])
    natural = _inverse(spec.kinds)

    def objective(theta, fits):
        return on_natural(natural(theta), fits)[0]
    inner = _to_free(spec.start(x), spec.kinds)
    thetas = [inner] + [np.array(t) for t in EDGE_ROWS.get(kind, ())]
    with warnings.catch_warnings(), np.errstate(**_IGNORE):
        warnings.simplefilter("error")
        for j, method in enumerate(methods):
            fits = np.array([j, j])
            alone = objective(inner[None], fits[:1])
            assert np.isfinite(alone).all(), (kind, method)
            for edge, theta in enumerate(thetas):
                one = objective(theta[None], fits[:1])
                two = objective(np.stack((theta, inner)), fits)
                assert two.tolist() == [*one.tolist(), *alone.tolist()], (
                    kind, method, theta)
                if edge and method is EstimationMethod.MLE:
                    assert one.tolist() == [math.inf], (kind, theta)


def test_weibull_reduction_of_tw():
    # lambda = 0 reduces the transmuted form to its baseline
    tw = make_competitor("TW", 1.3, 2.0, 0.0)
    w = make_competitor("W", 1.3, 2.0)
    x = np.linspace(0.1, 6.0, 30)
    assert np.allclose(competitor_pdf(tw, x), competitor_pdf(w, x),
                       rtol=1e-12)


def test_rtle_p_zero_is_le():
    rtle = make_competitor("RTLE", 0.5, 0.2, 0.0)
    le = make_competitor("LE", 0.5, 0.2)
    x = np.linspace(0.1, 6.0, 30)
    assert np.allclose(competitor_pdf(rtle, x), competitor_pdf(le, x),
                       rtol=1e-12)


def test_fit_weibull_against_reference_fitter():
    x = weibull_min.rvs(1.4, scale=3.0, size=400,
                        random_state=np.random.default_rng(7))
    cf = fit_competitor("W", x, OptimizerConfig(n_starts=6, seed=0))
    c, _, s = weibull_min.fit(x, floc=0)
    mu, sigma = cf.model.params
    assert mu == pytest.approx(c, rel=1e-3)
    assert sigma == pytest.approx(s, rel=1e-3)
    assert cf.standard_errors is not None


def test_comparison_table_structure_and_order():
    params = RtgleParams(0.5, 0.5, 1.2, 0.2)
    x = sample(params, 120, seed=6)
    rows = comparison_table(x, OptimizerConfig(n_starts=6, seed=0))
    models = [r.model for r in rows]
    assert len(rows) == 8
    assert set(models) == {"RTGLE"} | set(COMPETITOR_KINDS)
    aics = [r.gof.aic for r in rows if r.gof is not None]
    assert aics == sorted(aics)


def test_rtgle_wins_on_its_own_data():
    # RTGLE's -2logL should be minimal among the 8 models in most runs
    params = RtgleParams(0.5, 0.5, 1.2, 0.2)
    wins = 0
    for rep in range(5):
        x = sample(params, 500, seed=40 + rep)
        rows = comparison_table(x, OptimizerConfig(n_starts=4, seed=0))
        by_ll = min((r for r in rows if r.gof is not None),
                    key=lambda r: r.gof.minus2loglik)
        wins += by_ll.model == "RTGLE"
    assert wins >= 4


def test_comparison_rows_come_from_one_fit_routine():
    # every row is fit_competitor's fit, RTGLE's too, and every MLE's
    # standard errors are _standard_errors at its reported parameters
    full = load_dataset("embedded").values
    trimmed = np.delete(full, flag_outliers_iqr(full))
    config = OptimizerConfig(n_starts=4, seed=1)
    rows = {r.model: r for r in comparison_table(trimmed, config)}
    assert set(rows) == set(_SPECS)

    rf = fit(trimmed, EstimationMethod.MLE, config)
    row = rows["RTGLE"]
    assert row.params == asdict(rf.params)
    assert row.gof.minus2loglik == 2.0 * rf.objective
    assert rf.standard_errors is not None
    assert row.standard_errors == dict(zip(row.params, rf.standard_errors))
    assert rf.standard_errors == standard_errors(rf.params, trimmed) \
        == _standard_errors(_RTGLE, rf.params.as_tuple(), trimmed)

    for kind in COMPETITOR_KINDS:
        cf = fit_competitor(kind, trimmed, config)
        row = rows[kind]
        assert row.params == dict(zip(_SPECS[kind].param_names,
                                      cf.model.params))
        assert row.gof.minus2loglik == cf.minus2loglik
        se = cf.standard_errors
        assert row.standard_errors == (dict(zip(row.params, se)) if se
                                       else None)
        assert row.diagnostics == cf.diagnostics
        try:
            expected = _standard_errors(_SPECS[kind], cf.model.params,
                                        trimmed)
        except HessianNotPD:
            expected = None
        assert se == expected


def test_competitor_on_edge_has_no_standard_errors():
    # RTLE's likelihood on the embedded data drives beta to 0.0, where no
    # free coordinates, so no information matrix, exist; the fit says why
    x = load_dataset("embedded").values
    cf = fit_competitor("RTLE", x, OptimizerConfig(n_starts=20, seed=0))
    assert cf.model.params[1] == 0.0
    with pytest.raises(HessianNotPD, match="beta=0.0"):
        _standard_errors(_SPECS["RTLE"], cf.model.params, x)
    assert cf.standard_errors is None
    assert "beta=0.0" in cf.diagnostics and cf.at_boundary[1]
    # TLL on the trimmed data ends at lambda = 1.0 exactly, on the edge
    # with the gradient pointing out, and says so
    trimmed = np.delete(x, flag_outliers_iqr(x))
    cf = fit_competitor("TLL", trimmed, OptimizerConfig(n_starts=4, seed=1))
    assert cf.model.params[2] == 1.0
    assert cf.at_boundary == (False, False, True) and cf.converged
    assert cf.standard_errors is None
    assert "lambda=1.0 is on the boundary" in cf.diagnostics
    # a fit with standard errors has no diagnostics
    cf = fit_competitor("W", trimmed, OptimizerConfig(n_starts=4, seed=1))
    assert cf.standard_errors is not None and cf.diagnostics == ""


def test_comparison_rows_say_why_they_have_no_standard_errors():
    # a row carries its fit's diagnostics: RTLE on the embedded data ends at
    # beta = 0.0, where no information matrix exists, and W has standard
    # errors and no diagnostics
    x = load_dataset("embedded").values
    rows = {r.model: r for r in comparison_table(
        x, OptimizerConfig(n_starts=20, seed=0))}
    assert rows["RTLE"].standard_errors is None
    assert "beta=0.0" in rows["RTLE"].diagnostics
    assert rows["W"].standard_errors is not None
    assert rows["W"].diagnostics == ""


def _failing_for(kind, exc, monkeypatch):
    # fit_competitor as it is, except that the model kind raises exc
    real = compare.fit_competitor

    def patched(k, data, config=None):
        if k == kind:
            raise exc
        return real(k, data, config)
    monkeypatch.setattr(compare, "fit_competitor", patched)


def test_comparison_table_lets_a_plain_value_error_through(monkeypatch):
    # a fault that is not the model's is not turned into an error row
    _failing_for("TW", ValueError("not a fit failure"), monkeypatch)
    with pytest.raises(ValueError, match="not a fit failure"):
        comparison_table(load_dataset("embedded").values,
                         OptimizerConfig(n_starts=4, seed=0))


def test_comparison_table_keeps_a_failed_fit_as_its_error_row(monkeypatch):
    _failing_for("TW", AllStartsFailed("every start failed"), monkeypatch)
    rows = comparison_table(load_dataset("embedded").values,
                            OptimizerConfig(n_starts=4, seed=0))
    assert len(rows) == 8
    failed = [r for r in rows if r.error is not None]
    assert [(r.model, r.error) for r in failed] == [("TW",
                                                     "every start failed")]
    assert failed[0].gof is None and failed[0].params == {}
    assert rows[-1] is failed[0]
    assert all(r.gof is not None for r in rows if r.model != "TW")
