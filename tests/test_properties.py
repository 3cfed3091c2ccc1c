import math

import numpy as np
import pytest
from scipy.integrate import quad

from rtgle.distribution import (RtgleParams, cdf, log_pdf, pdf, quantile,
                                quantile_vec, sf)
from rtgle.properties import (MgfDiverged, SeriesDiverged, cumulative_hazard,
                              gini_mean_difference, joint_record_log_pdf,
                              kurtosis, l_moment, largest_order_statistic_pdf,
                              mgf, moment_quadrature,
                              moment_recurrence_residual, moment_report,
                              moment_series, order_statistic_pdf,
                              quantile_measures, record_pdf, recurrence_rhs,
                              renyi_entropy, renyi_entropy_series, skewness,
                              smallest_order_statistic_pdf, variance)
from rtgle.special import log_beta

ROW1 = RtgleParams(0.5, 0.5, 1.2, 0.2)

# frozen 40-digit quadrature/bisection oracles for ROW1
ROW1_MEAN = 1.2057787150788
ROW1_MOORS = 1.17851096724
ROW1_RENYI_2 = 0.9111872499637


def test_mean_against_oracle():
    assert moment_quadrature(ROW1, 1) == pytest.approx(ROW1_MEAN, rel=1e-9)


def test_reference_row_moments():
    # 4-decimal reference values for ROW1
    assert moment_quadrature(ROW1, 1) == pytest.approx(1.2058, abs=5e-4)
    assert moment_quadrature(ROW1, 2) == pytest.approx(1.9782, abs=5e-4)
    assert variance(ROW1) == pytest.approx(0.5243, abs=5e-4)
    assert skewness(ROW1) == pytest.approx(0.6155, abs=5e-4)
    assert kurtosis(ROW1) == pytest.approx(3.0496, abs=5e-4)


def test_moment_series_matches_quadrature():
    for params in (ROW1, RtgleParams(1.5, 2.5, 2.0, 0.8),
                   RtgleParams(2.0, 0.5, 1.0, 0.5)):
        for r in (1, 2):
            vs, terms = moment_series(params, r)
            vq = moment_quadrature(params, r)
            # truncation error dominates when 2*beta/alpha^2 > 1 (slowly
            # converging expansion), hence the modest tolerance
            assert vs == pytest.approx(vq, rel=2e-5)
            assert terms <= 201


def test_moment_series_requires_interior_rates():
    with pytest.raises(ValueError):
        moment_series(RtgleParams(1.0, 0.0, 1.0, 0.2), 1)


def test_recurrence_identity():
    for params in (ROW1, RtgleParams(1.0, 1.0, 1.5, 0.5),
                   RtgleParams(2.0, 0.5, 2.0, 0.9)):
        for r in (1, 2, 3):
            rel = moment_recurrence_residual(params, r) \
                / abs(recurrence_rhs(params, r))
            assert rel <= 1e-7


def test_recurrence_rhs_closed_form():
    # E[(a X + b X^2/2)^r] computed directly by quadrature
    params = ROW1
    for r in (1, 2):
        a, b = params.alpha, params.beta
        hi = quantile(params, 1.0 - 1e-13)
        val, _ = quad(lambda x: (a * x + 0.5 * b * x * x) ** r
                      * pdf(params, x), 0.0, hi, limit=300)
        assert val == pytest.approx(recurrence_rhs(params, r), rel=1e-8)


def test_variance_routes_agree():
    for params in (ROW1, RtgleParams(1.0, 0.0, 1.3, 0.4)):
        m1 = moment_quadrature(params, 1)
        m2 = moment_quadrature(params, 2)
        assert variance(params) == pytest.approx(m2 - m1 * m1, rel=1e-8)


def test_quantile_measures_row1():
    qm = quantile_measures(ROW1)
    assert qm.median == pytest.approx(1.1199, abs=5e-4)
    assert qm.iqr == pytest.approx(1.0325, abs=5e-4)
    assert qm.galton_skewness == pytest.approx(0.0728, abs=5e-4)
    # bisection oracle for the octile-based kurtosis
    assert qm.moors_kurtosis == pytest.approx(ROW1_MOORS, abs=1e-6)


def test_mgf_at_zero_and_small_t():
    assert mgf(ROW1, 0.0) == 1.0
    # M(t) ~ 1 + t*mean for small t
    t = 1e-4
    assert mgf(ROW1, t) == pytest.approx(1.0 + t * ROW1_MEAN, rel=1e-6)
    assert mgf(ROW1, -0.5) < 1.0


def test_mgf_diverges_for_heavy_tail():
    # gamma < 1 gives a stretched-exponential tail, so e^(t x) wins
    heavy = RtgleParams(1.0, 0.0, 0.5, 0.0)
    with pytest.raises(MgfDiverged):
        mgf(heavy, 2.0)


@pytest.mark.parametrize("params,t,expected", [
    (RtgleParams(1.0, 0.0, 1.0, 0.0), 0.5, 2.0),
    (RtgleParams(1.0, 0.0, 1.0, 0.0), 0.9, 10.0),
    # 30-digit mpmath quadrature of exp(t x) f(x) over x
    (ROW1, 0.5, 1.9606632095923400284),
    (ROW1, 2.0, 41.937241492174874655),
    (RtgleParams(1.0, 0.0, 1.5, 0.5), 1.0, 4.6360985350967778616),
])
def test_mgf_finite_values(params, t, expected):
    assert mgf(params, t) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("params", [
    RtgleParams(2.0, 0.0, 1.0, 0.3),   # beta = 0: e = 1/gamma = 1, c = 1/2
    RtgleParams(0.0, 2.0, 0.5, 0.3),   # beta > 0: e = 1/(2 gamma) = 1, c = 1
])
def test_mgf_on_both_sides_of_the_edge(params):
    # at e = 1, X = c*T, so M(t) = (1-p)/(1-ct) + p/(1-ct)^2 for t*c < 1
    c = 0.5 if params.beta == 0.0 else 1.0
    t = 0.95 / c
    expected = 0.7 / (1.0 - c * t) + 0.3 / (1.0 - c * t) ** 2
    assert mgf(params, t) == pytest.approx(expected, rel=1e-9)
    for t_inf in (1.0 / c, 1.05 / c):
        with pytest.raises(MgfDiverged):
            mgf(params, t_inf)
    # e just below 1 is finite at every t; just above 1, infinite at any t
    steeper = RtgleParams(*params.as_tuple()[:2], params.gamma * 1.01, 0.3)
    flatter = RtgleParams(*params.as_tuple()[:2], params.gamma * 0.99, 0.3)
    assert math.isfinite(mgf(steeper, 0.5 / c))
    with pytest.raises(MgfDiverged):
        mgf(flatter, 0.01)


def test_renyi_entropy_exponential_and_infinite_integral():
    expo = RtgleParams(1.0, 0.0, 1.0, 0.0)
    for rho in (0.3, 0.5, 2.0):
        assert renyi_entropy(expo, rho) == pytest.approx(
            math.log(rho) / (rho - 1.0), rel=1e-12)
    # f ~ x^(-1/2) near 0: int f^rho is infinite from rho = 2 on (the
    # finite values are 30-digit mpmath quadratures over x)
    params = RtgleParams(1.0, 0.0, 0.5, 0.5)
    assert renyi_entropy(params, 2.0) == -math.inf
    assert renyi_entropy(params, 1.5) == pytest.approx(1.08814467706399,
                                                       rel=1e-9)
    # alpha = 0 doubles the exponent, and p = 1 adds gamma to it
    assert renyi_entropy(RtgleParams(0.0, 1.0, 0.2, 0.0), 3.0) == -math.inf
    params = RtgleParams(1.0, 0.0, 0.25, 1.0)
    assert renyi_entropy(params, 2.0) == -math.inf
    assert renyi_entropy(params, 1.9) == pytest.approx(-0.164475689098226,
                                                       rel=1e-9)


def test_renyi_entropy_oracle():
    assert renyi_entropy(ROW1, 2.0) == pytest.approx(ROW1_RENYI_2, rel=1e-8)
    # exponential(1): Renyi entropy at rho is log(rho)/(rho-1)
    expo = RtgleParams(1.0, 0.0, 1.0, 0.0)
    assert renyi_entropy(expo, 2.0) == pytest.approx(math.log(2.0), rel=1e-9)


def test_renyi_series_matches_quadrature_for_integer_rho():
    val, terms = renyi_entropy_series(ROW1, 2.0)
    assert val == pytest.approx(renyi_entropy(ROW1, 2.0), rel=1e-6)


def test_renyi_series_detects_divergence():
    # non-integer rho with p > 1/2: the mixing-factor expansion is formal
    with pytest.raises(SeriesDiverged):
        renyi_entropy_series(RtgleParams(0.5, 0.5, 1.2, 0.9), 1.7)


def test_order_statistic_pdf_normalizes():
    params = ROW1
    hi = quantile(params, 1.0 - 1e-12)
    for (r, n) in ((1, 5), (3, 5), (5, 5)):
        total, _ = quad(lambda x: order_statistic_pdf(params, r, n, x),
                        0.0, hi, limit=300)
        assert total == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("r,n", [(1, 30), (3, 5), (20, 30), (30, 30)])
def test_order_statistic_pdf_matches_log_space_product(r, n):
    # deep in the lower tail, where F^(r-1) is tiny, an expansion of
    # (1 - S)^(r-1) in powers of S cancels to noise or a negative density
    x = quantile_vec(ROW1, [1e-6, 0.01, 0.1, 0.5, 0.9, 0.99])
    got = order_statistic_pdf(ROW1, r, n, x)
    expected = np.exp(log_pdf(ROW1, x) + (r - 1) * np.log(cdf(ROW1, x))
                      + (n - r) * np.log(sf(ROW1, x)) - log_beta(r, n - r + 1))
    assert np.all(got >= 0.0)
    assert np.allclose(got, expected, rtol=1e-12, atol=0.0)


def test_extreme_order_statistics_match_general_form():
    params = ROW1
    x = np.linspace(0.1, 4.0, 25)
    assert np.allclose(smallest_order_statistic_pdf(params, 7, x),
                       order_statistic_pdf(params, 1, 7, x), rtol=1e-10)
    assert np.allclose(largest_order_statistic_pdf(params, 7, x),
                       order_statistic_pdf(params, 7, 7, x), rtol=1e-10)


def test_record_pdf_normalizes_and_first_is_parent():
    params = ROW1
    hi = quantile(params, 1.0 - 1e-13)
    x = np.linspace(0.1, 4.0, 20)
    assert np.allclose(record_pdf(params, 1, x), pdf(params, x), rtol=1e-12)
    for n in (2, 3, 4):
        total, _ = quad(lambda t: record_pdf(params, n, t), 0.0, hi * (n + 2),
                        limit=400)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_cumulative_hazard_is_minus_log_sf():
    params = ROW1
    x = np.linspace(0.05, 8.0, 50)
    assert np.allclose(cumulative_hazard(params, x),
                       -np.log(sf(params, x)), rtol=1e-10)


def test_joint_record_log_pdf_chain():
    params = ROW1
    records = [0.5, 1.2, 2.7]
    lp = joint_record_log_pdf(params, records)
    assert math.isfinite(lp)
    # joint density of records = prod hazard(r_j) * f(r_n) / hazard... check
    # against the direct construction f(r_n) * prod_{j<n} f(r_j)/sf(r_j)
    direct = math.log(pdf(params, 2.7)) \
        + sum(math.log(pdf(params, r) / sf(params, r)) for r in (0.5, 1.2))
    assert lp == pytest.approx(direct, rel=1e-10)
    for bad in ([1.0, 0.5], [1.0, math.nan], [math.nan, 1.0]):
        with pytest.raises(ValueError):
            joint_record_log_pdf(params, bad)


def test_l_moment_and_gini():
    # first L-moment is the mean; Gini mean difference is 2 * second L-moment
    assert l_moment(ROW1, 1) == pytest.approx(ROW1_MEAN, rel=1e-7)
    assert gini_mean_difference(ROW1) == pytest.approx(
        2.0 * l_moment(ROW1, 2), rel=1e-7)
    assert gini_mean_difference(ROW1) > 0.0


def test_moment_report_bundle():
    rep = moment_report(ROW1, 2)
    assert rep.value_quadrature == pytest.approx(1.9782, abs=5e-4)
    assert rep.value_series == pytest.approx(rep.value_quadrature, rel=1e-5)
    assert rep.recurrence_residual <= 1e-6


@pytest.mark.parametrize("params", [RtgleParams(2.0, 0.0, 0.7, 0.5),
                                    RtgleParams(3.0, 0.0, 0.4, 0.3),
                                    RtgleParams(1.0, 0.0, 0.01, 0.5)])
def test_beta_zero_moments_closed_form(params):
    # X = T^(1/gamma)/alpha with T ~ Gamma(1) w.p. 1-p and Gamma(2) w.p. p;
    # at gamma = 0.01, E[X] (about Gamma(102)) is finite although x itself
    # overflows at some quadrature nodes, and E[X^2] (about Gamma(201)) is
    # beyond the float range
    a, _, g, p = params.as_tuple()
    for r in (1, 2, 3, 4):
        if 2.0 + r / g > 171.0:
            with pytest.raises(ArithmeticError):
                moment_quadrature(params, r)
            continue
        expected = a ** -r * ((1.0 - p) * math.gamma(1.0 + r / g)
                              + p * math.gamma(2.0 + r / g))
        assert moment_quadrature(params, r) == pytest.approx(expected,
                                                             rel=1e-13)


def test_properties_solve_no_quantile(monkeypatch):
    # no expectation integrates up to a quantile cutoff
    from rtgle import properties

    def refuse(*args):
        raise AssertionError("quantile_vec called")
    monkeypatch.setattr(properties, "quantile_vec", refuse)
    assert moment_quadrature(ROW1, 1) == pytest.approx(ROW1_MEAN, rel=1e-12)
    for value in (variance(ROW1), skewness(ROW1), kurtosis(ROW1),
                  l_moment(ROW1, 3), gini_mean_difference(ROW1),
                  mgf(ROW1, 0.5), renyi_entropy(ROW1, 2.0),
                  moment_report(ROW1, 2).recurrence_residual):
        assert math.isfinite(value)
