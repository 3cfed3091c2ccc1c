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
