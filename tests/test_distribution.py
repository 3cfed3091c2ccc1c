import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import ks_2samp

import rtgle
from rtgle.distribution import (BothRatesZero, HazardShapeClass, NegativeRate,
                                NonPositiveGamma, PdfShapeClass, POutOfRange,
                                QuantileOverflow, QuantileUnderflow,
                                RtgleParams, _log1pmx,
                                baseline_hazard, cdf,
                                classify_hazard_shape, classify_pdf_shape,
                                exponential, hazard, linear_exponential,
                                log_pdf, pdf, quantile, quantile_vec,
                                rayleigh, sample, sample_via_records, sf,
                                _valid_rows, validate, weibull)
from rtgle.compare import (competitor_cdf, competitor_log_pdf, competitor_pdf,
                           make_competitor)
from rtgle.estimate import neg_log_likelihood
from rtgle.properties import cumulative_hazard
from test_compare import EXAMPLES

GRID = [
    RtgleParams(0.5, 0.5, 1.2, 0.2),
    RtgleParams(1.0, 0.0, 1.0, 0.0),    # exponential
    RtgleParams(0.0, 1.0, 1.0, 0.0),    # Rayleigh
    RtgleParams(2.0, 0.0, 0.7, 0.0),    # Weibull-type, decreasing hazard
    RtgleParams(0.5, 0.5, 1.2, 1.0),    # p = 1 edge
    RtgleParams(1.5, 2.5, 2.0, 0.8),
    RtgleParams(0.2, 0.1, 0.5, 0.5),
]


def test_validation_errors():
    with pytest.raises(NonPositiveGamma):
        validate(1.0, 1.0, 0.0, 0.5)
    with pytest.raises(NegativeRate):
        validate(-1.0, 1.0, 1.0, 0.5)
    with pytest.raises(NegativeRate):
        validate(1.0, -1.0, 1.0, 0.5)
    with pytest.raises(BothRatesZero):
        validate(0.0, 0.0, 1.0, 0.5)
    with pytest.raises(POutOfRange):
        validate(1.0, 1.0, 1.0, 1.5)
    with pytest.raises(POutOfRange):
        validate(1.0, 1.0, 1.0, -0.1)
    # an infinite rate or gamma would give a cdf of 1 everywhere
    rows = np.array([[1.0, 1.0, 1.0, 0.5]] * 5)
    rows[np.arange(4), np.arange(4)] = math.inf
    for values, error in zip(rows.tolist(), (NegativeRate, NegativeRate,
                                             NonPositiveGamma, POutOfRange)):
        with pytest.raises(error):
            validate(*values)
    assert _valid_rows(*rows.T).tolist() == [False] * 4 + [True]


def test_cdf_sf_complement():
    x = np.linspace(0.01, 20.0, 200)
    for params in GRID:
        assert np.allclose(cdf(params, x) + sf(params, x), 1.0, atol=1e-12)


def test_cdf_limits_and_monotonicity():
    x = np.linspace(0.0, 30.0, 500)
    for params in GRID:
        f = cdf(params, x)
        assert f[0] == 0.0
        assert np.all(np.diff(f) >= -1e-14)
        assert cdf(params, 1e9) == pytest.approx(1.0, abs=1e-12)


def test_pdf_integrates_to_one():
    for params in GRID:
        hi = quantile(params, 1.0 - 1e-13)
        total, err = quad(lambda t: pdf(params, t), 0.0, hi, limit=300)
        assert total == pytest.approx(1.0, abs=1e-8)


def test_pdf_is_cdf_derivative():
    for params in GRID:
        for x in (0.3, 1.0, 2.5):
            h = 1e-6 * max(1.0, x)
            fd = (cdf(params, x + h) - cdf(params, x - h)) / (2.0 * h)
            assert pdf(params, x) == pytest.approx(fd, rel=1e-6)


# Every public evaluation function masks through one support policy: its
# value at x <= 0, its x -> inf limit wherever x^2 or z overflows, NaN at
# NaN x, never a RuntimeWarning.  (name, function, value at x <= 0, limit;
# None where the limit depends on the parameters.)
_POLICY = [
    ("sf", sf, 1.0, 0.0),
    ("cdf", cdf, 0.0, 1.0),
    ("log_pdf", log_pdf, -math.inf, -math.inf),
    ("pdf", pdf, 0.0, 0.0),
    ("baseline_hazard", baseline_hazard, 0.0, None),
    ("hazard", hazard, 0.0, None),
    ("cumulative_hazard", cumulative_hazard, 0.0, math.inf),
    ("competitor_log_pdf", competitor_log_pdf, -math.inf, -math.inf),
    ("competitor_pdf", competitor_pdf, 0.0, 0.0),
    ("competitor_cdf", competitor_cdf, 0.0, 1.0),
]


@pytest.mark.parametrize("name, fn, outside, tail", _POLICY,
                         ids=[c[0] for c in _POLICY])
def test_support_policy(name, fn, outside, tail):
    if name.startswith("competitor"):
        models = [make_competitor(k, *v) for k, v in EXAMPLES.items()]
    else:
        models = GRID + [RtgleParams(1.0, 0.0, 0.5, 0.3)]
    far = [1e150, 1e300, math.inf]
    for model in models:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for x in (-1.0, 0.0):
                assert fn(model, x) == outside, (model, x)
            assert np.all(fn(model, np.array([-1.0, 0.0])) == outside)
            assert not np.any(np.isnan(fn(model, [1e-300, 0.5, 1e6])))
            out = fn(model, np.array(far))
            assert math.isnan(fn(model, math.nan)), model
            assert np.isnan(fn(model, np.array([math.nan, 1.0])))[0]
        # a scalar gives a float, on either side of the support
        assert all(isinstance(fn(model, x), float)
                   for x in (-1.0, 0.5, math.inf, math.nan))
        assert not np.any(np.isnan(out)), (model, out)
        assert [fn(model, x) for x in far] == out.tolist()
        if tail is None:  # a hazard: k's own limit, damped by 1 at z = inf
            assert out[-1] == baseline_hazard(model, math.inf) >= 0.0
            continue
        assert out[-1] == tail, (model, out)
        if math.isfinite(tail) and (isinstance(model, RtgleParams)
                                    or "cdf" in name):
            assert np.all(out == tail), (model, out)
        else:  # an unbounded limit, or a power tail (TLL), is approached
            assert out.tolist() in (sorted(out), sorted(out)[::-1]), out
    # beta = 0: m = alpha*x where x^2 overflows (40-digit mpmath values)
    beta_zero = {"sf": (RtgleParams(1, 0, 0.001, 0), 0.20496968425522883),
                 "competitor_cdf": (make_competitor("W", 0.001, 1.0),
                                    0.79503031574477117)}
    if name in beta_zero:
        model, value = beta_zero[name]
        assert fn(model, 1e200) == pytest.approx(value, rel=1e-12)


def test_log_pdf_where_m_underflows():
    # m = a*x + b*x^2/2 underflows to 0 while log m is near -746 (40-digit
    # mpmath values; alpha + beta*x itself rounds to the smallest subnormal)
    params = RtgleParams(5e-324, 5e-324, 0.5, 0.5)
    x = [0.1, 0.2, 0.3]
    expected = [-372.38412267759389, -372.66694489870168, -372.81186062636764]
    assert log_pdf(params, x) == pytest.approx(expected, rel=1e-3)
    assert pdf(params, 0.1) == pytest.approx(math.exp(log_pdf(params, 0.1)),
                                            rel=1e-12)
    assert neg_log_likelihood(params, x) == pytest.approx(-sum(expected),
                                                          rel=1e-3)
    # at p = 1 the mixing term is log z = gamma * log m, with z underflowed
    params = RtgleParams(5e-324, 5e-324, 0.5, 1.0)
    expected = [-745.03790892213688, -744.95089754514725]
    assert log_pdf(params, x[:2]) == pytest.approx(expected, rel=1e-3)


def test_hazard_against_closed_form():
    # k(x) runs through log m, so it keeps its digits where x^2 overflows
    # (GRID[3] has beta = 0, GRID[6] gamma = 0.5 with limit sqrt(beta/2)),
    # and the damping keeps them at p = 1 where z is tiny (GRID[4])
    with mpmath.workdps(30):
        for params in GRID:
            a, b, g, p = (mpmath.mpf(v) for v in params.as_tuple())
            for x in (1e-8, 1e100, 1e200, 1e300):
                m = a * x + b * x * x / 2
                k = g * (a + b * x) * m ** (g - 1)
                h = k * (1 - p + p * m ** g) / (1 + p * m ** g)
                for got, want in ((baseline_hazard(params, x), k),
                                  (hazard(params, x), h)):
                    if want > np.finfo(float).max:
                        assert got == math.inf
                    else:
                        assert got == pytest.approx(float(want), rel=1e-12)
    assert hazard(GRID[6], math.inf) == math.sqrt(0.05)


def test_exponential_reduction():
    params = exponential(2.0)
    x = np.linspace(0.01, 5.0, 50)
    assert np.allclose(cdf(params, x), -np.expm1(-2.0 * x), atol=1e-14)
    assert np.allclose(hazard(params, x), 2.0, atol=1e-12)


def test_rayleigh_reduction():
    params = rayleigh(1.0)
    x = np.linspace(0.01, 5.0, 50)
    assert np.allclose(cdf(params, x), -np.expm1(-0.5 * x * x), atol=1e-14)


def test_weibull_reduction():
    params = weibull(1.0, 2.5)
    x = np.linspace(0.01, 3.0, 50)
    assert np.allclose(cdf(params, x), -np.expm1(-(x ** 2.5)), atol=1e-13)


def test_linear_exponential_reduction():
    params = linear_exponential(1.0, 2.0)
    x = np.linspace(0.01, 3.0, 50)
    m = x + x * x
    assert np.allclose(cdf(params, x), -np.expm1(-m), atol=1e-13)


def test_quantile_roundtrip_tight():
    u = np.linspace(0.001, 0.999, 21)
    for params in GRID:
        for ui in u:
            x = quantile(params, ui)
            assert abs(cdf(params, x) - ui) <= 1e-10


def test_quantile_extreme_tails():
    params = RtgleParams(0.5, 0.5, 1.2, 0.2)
    for u in (1e-12, 1.0 - 1e-12):
        x = quantile(params, u)
        assert x > 0.0 and math.isfinite(x)
        assert cdf(params, x) == pytest.approx(u, rel=1e-4, abs=1e-13)


def mp_quantile(params, u):
    """Q(u) from the Lambert closed form z = -1/p - W-1(-(1-u) e^(-1/p) / p)
    in mpmath, with 40 digits beyond those of u so that 1 - u is exact."""
    a, b, g, p = (mpmath.mpf(v) for v in params.as_tuple())
    with mpmath.workdps(40 - math.floor(math.log10(u))):
        u = mpmath.mpf(u)
        if p == 0:
            z = -mpmath.log1p(-u)
        else:
            v = -(1 - u) * mpmath.exp(-1 / p) / p
            z = -1 / p - mpmath.lambertw(v, -1).real
        c = z ** (1 / g)
        if b == 0:
            return float(c / a)
        if a == 0:
            return float(mpmath.sqrt(2 * c / b))
        return float(2 * c / (a + mpmath.sqrt(a * a + 2 * b * c)))


# GRID plus the other criterion-6 sets (the kernels benchmark draws from
# them), a small-p, small-gamma set, the p = 1 exponential and p = 2e-6:
# together they reach beta = 0, alpha = 0, p = 0, p = 1, the 0 < p < 1e-6
# start of the quantile, and, just above that cut, a Lambert start whose
# -1/p - W-1 loses about 6 digits to cancellation for the polish to restore
ARRAY_SETS = GRID + [
    RtgleParams(1.0, 0.0, 1.0, 0.5),
    RtgleParams(0.0, 1.0, 0.8, 0.9),
    RtgleParams(2.0, 0.3, 2.0, 0.0),
    RtgleParams(0.7, 1.5, 0.6, 1.0),
    RtgleParams(1.0, 1.0, 0.05, 1e-7),
    RtgleParams(1.0, 0.0, 1.0, 1.0),
    RtgleParams(1.0, 0.0, 1.0, 2e-6),
]
DEEP_TAIL_U = 10.0 ** -np.arange(10, 301)


@pytest.mark.parametrize("params", ARRAY_SETS,
                         ids=lambda p: "-".join(map(str, p.as_tuple())))
def test_quantile_vec_matches_scalar_on_draws(params):
    # the array solver against an independent scalar reference, the
    # mpmath root of each u, on the first 4,000 sample-style uniforms and
    # on u = 1e-10 ... 1e-300; where the true quantile is subnormal or
    # underflows (gamma = 0.05 far in the tail) no relative bound can hold,
    # and each such u gives a positive float or raises QuantileUnderflow
    rng = np.random.Generator(np.random.Philox(key=17))
    u = np.concatenate([np.nextafter(rng.random(4_000), 1.0), DEEP_TAIL_U])
    ref = np.array([mp_quantile(params, ui) for ui in u])
    normal = ref >= np.finfo(float).tiny
    assert normal[:4_000].all()
    q = quantile_vec(params, u[normal])
    assert np.all(np.abs(q - ref[normal]) <= 1e-13 * ref[normal])
    for ui in u[~normal]:
        try:
            assert quantile(params, ui) > 0.0
        except QuantileUnderflow:
            pass


def test_quantile_underflow_is_a_typed_error():
    # the true Q(1e-300) is about 1e-6000; 0.0 would lie outside the support
    params = RtgleParams(1.0, 1.0, 0.05, 1e-7)
    with pytest.raises(QuantileUnderflow, match="u=1e-300"):
        quantile(params, 1e-300)
    with pytest.raises(QuantileUnderflow, match="u=1e-300"):
        quantile_vec(params, [0.5, 1e-300, 1e-301])
    assert issubclass(QuantileUnderflow, ArithmeticError)
    # at gamma = 0.01, Q(u) underflows below u of about 6e-4
    with pytest.raises(QuantileUnderflow):
        sample(RtgleParams(1.0, 1.0, 0.01, 0.5), 10_000, seed=1)


def test_quantile_overflow_is_a_typed_error():
    # at gamma = 0.005 the upper tail overflows: t^(1/gamma) passes the
    # largest float; a typed error, with no RuntimeWarning on the way
    params = RtgleParams(1.0, 0.0, 0.005, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuantileOverflow, match="largest float"):
            quantile(params, 1 - 1e-16)
        with pytest.raises(QuantileOverflow):
            quantile_vec(params, [0.5, 1 - 1e-16])
        # only the upper tail leaves the floats here: 7% of draws
        with pytest.raises(QuantileOverflow):
            sample(RtgleParams(1e-300, 0.0, 0.05, 0.0), 100, seed=1)
    assert issubclass(QuantileOverflow, ArithmeticError)
    assert rtgle.QuantileOverflow is QuantileOverflow
    # with the quadratic term Q(u) grows like sqrt(2c/b), c = z^(1/gamma):
    # where 2c and 2bc overflow but Q(u) does not, the log form gives it
    params = RtgleParams(1.0, 1.0, 0.004, 0.0)
    u = -math.expm1(-math.exp(0.004 * math.log(1.2e308)))
    log_c = math.log(-math.log1p(-u)) / 0.004     # p = 0: z = -log(1 - u)
    assert math.exp(log_c) > 0.5 * np.finfo(float).max
    q = quantile(params, u)
    assert q == pytest.approx(math.exp(0.5 * (math.log(2.0) + log_c)),
                              rel=1e-12)


def test_log1pmx_without_small_arguments():
    # the series branch is skipped when no y lies below 0.01; the result
    # is log1p(y) - y to the bit
    y = np.array([0.01, 0.5, 3.0, 1e6])
    assert _log1pmx(y).tolist() == (np.log1p(y) - y).tolist()


def test_quantile_deep_lower_tail():
    # u = 1e-40 sits far below the digits the Lambert start keeps, and at
    # p = 1 the start lies where the Newton slope vanishes
    for p in np.arange(1, 100) / 100.0:
        params = RtgleParams(1.0, 0.0, 1.0, float(p))
        ref = mp_quantile(params, 1e-40)
        assert abs(quantile(params, 1e-40) - ref) <= 1e-13 * ref
        assert abs(quantile_vec(params, [1e-40])[0] - ref) <= 1e-13 * ref
    params = RtgleParams(1.0, 0.0, 1.0, 1.0)
    ref = mp_quantile(params, 1e-25)
    assert ref == pytest.approx(4.4721e-13, rel=1e-4)
    assert abs(quantile(params, 1e-25) - ref) <= 1e-13 * ref


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, math.nan])
def test_quantile_vec_rejects_u_outside_open_interval(bad):
    with pytest.raises(ValueError, match="must lie in"):
        quantile_vec(GRID[0], np.array([0.2, bad, 0.7]))


def test_quantile_vec_preserves_shape():
    params = GRID[5]
    q0 = quantile_vec(params, 0.3)
    assert isinstance(q0, np.ndarray) and q0.shape == ()
    assert float(q0) == pytest.approx(quantile(params, 0.3), rel=1e-14)
    assert quantile_vec(params, np.array([])).shape == (0,)
    u = np.linspace(0.05, 0.95, 12).reshape(3, 4)
    q = quantile_vec(params, u)
    assert q.shape == (3, 4)
    assert np.array_equal(q.ravel(), quantile_vec(params, u.ravel()))


def test_quantile_monotone_in_u():
    for params in GRID:
        q = quantile_vec(params, np.linspace(0.01, 0.99, 99))
        assert np.all(np.diff(q) > 0.0)


def test_sample_deterministic():
    params = RtgleParams(0.5, 0.5, 1.2, 0.2)
    a = sample(params, 100, seed=5)
    b = sample(params, 100, seed=5)
    assert np.array_equal(a, b)
    c = sample(params, 100, seed=6)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("sampler", [sample, sample_via_records])
def test_sampler_refuses_a_negative_seed(sampler):
    with pytest.raises(ValueError, match="seed must be >= 0"):
        sampler(RtgleParams(0.5, 0.5, 1.2, 0.2), 5, -1)


def test_sample_within_support_and_distribution():
    params = RtgleParams(0.5, 0.5, 1.2, 0.2)
    x = sample(params, 20000, seed=1)
    assert np.all(x > 0.0)
    # empirical cdf at the median should be near 0.5
    med = quantile(params, 0.5)
    assert np.mean(x <= med) == pytest.approx(0.5, abs=0.02)


def test_record_sampler_matches_inverse_sampler():
    params = RtgleParams(0.5, 0.5, 1.2, 0.4)
    a = sample(params, 10000, seed=11)
    b = sample_via_records(params, 10000, seed=12)
    assert ks_2samp(a, b).pvalue > 0.01


def test_hazard_vs_baseline_ordering():
    x = np.linspace(0.05, 10.0, 200)
    for params in GRID:
        h = hazard(params, x)
        k = baseline_hazard(params, x)
        assert np.all(h <= k + 1e-12)
        assert np.all(cdf(params, x)
                      <= -np.expm1(-np.asarray(
                          [quad_free_cum(params, xi) for xi in x])) + 1e-9)


def quad_free_cum(params, x):
    # baseline cumulative hazard (closed form): (a x + b x^2/2)^gamma
    a, b, g, _ = params.as_tuple()
    return (a * x + 0.5 * b * x * x) ** g


def test_hazard_increasing_when_gamma_ge_1():
    x = np.linspace(0.05, 10.0, 500)
    for params in GRID:
        if params.gamma >= 1.0:
            h = hazard(params, x)
            assert np.all(np.diff(h) >= -1e-10)


def test_shape_classes():
    assert classify_pdf_shape(RtgleParams(0.5, 0.5, 1.2, 0.2)) \
        is PdfShapeClass.UNIMODAL
    assert classify_pdf_shape(RtgleParams(1.0, 0.0, 0.4, 0.0)) \
        is PdfShapeClass.MONOTONE_DECREASING
    assert classify_hazard_shape(RtgleParams(0.5, 0.5, 1.5, 0.2)) \
        is HazardShapeClass.IFR
    assert classify_hazard_shape(RtgleParams(1.0, 0.0, 0.4, 0.1)) \
        is HazardShapeClass.DFR


@given(st.floats(min_value=0.01, max_value=0.99),
       st.floats(min_value=0.05, max_value=3.0),
       st.floats(min_value=0.0, max_value=3.0),
       st.floats(min_value=0.3, max_value=3.0),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=300, deadline=None)
def test_roundtrip_property(u, a, b, g, p):
    params = validate(a, b, g, p)
    x = quantile(params, u)
    assert abs(cdf(params, x) - u) <= 1e-9


@given(st.lists(st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
                min_size=1, max_size=40),
       st.floats(min_value=0.05, max_value=3.0),
       st.floats(min_value=0.0, max_value=3.0),
       st.floats(min_value=0.3, max_value=3.0),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=300, deadline=None)
def test_quantile_vec_roundtrip_property(us, a, b, g, p):
    params = validate(a, b, g, p)
    u = np.array(us)
    assert np.all(np.abs(cdf(params, quantile_vec(params, u)) - u) <= 1e-9)
