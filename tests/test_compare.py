import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import weibull_min

from rtgle.compare import (_SPECS, COMPETITOR_KINDS, CompetitorModel,
                           comparison_table, competitor_cdf,
                           competitor_log_pdf, competitor_pdf, fit_competitor,
                           make_competitor)
from rtgle.datasets import flag_outliers_iqr, load_dataset
from rtgle.distribution import RtgleParams, sample
from rtgle.estimate import OptimizerConfig, neg_log_likelihood

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
