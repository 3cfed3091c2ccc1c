import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtgle.special import (NonConvergenceError, SpecialDomainError, gamma_fn,
                           lambert_w0, lambert_wm1, lambert_wm1_exp, log_beta,
                           log_gamma)

BRANCH_POINT = -1.0 / math.e

# frozen high-precision oracle values (40-digit arithmetic)
W0_ORACLE = [
    (0.5, 0.35173371124919582602),
    (1.0, 0.567143290409783873),
    (3.0, 1.04990889496403996),
    (-0.2, -0.25917110181907374506),
    (-0.3, -0.48940222718021496904),
    (-0.367879, -0.99845210378072725932),
]
WM1_ORACLE = [
    (-0.05, -4.499755288523487536),
    (-0.1, -3.5771520639572972184),
    (-0.2, -2.5426413577735264243),
    (-0.3, -1.781337023421627612),
    # conditioning of W_{-1} degrades toward the branch point, so the last
    # point gets a looser tolerance than the rest
    (-0.35, -1.3497172521922488334),
]
LGAMMA_ORACLE = [
    (0.1, 2.2527126517342059599),
    (0.5, 0.57236494292470008707),
    (1.5, -0.12078223763524522235),
    (7.3, 7.1478925230222490328),
    (20.25, 40.084110597917348984),
]


@pytest.mark.parametrize("v,expected", W0_ORACLE)
def test_w0_oracle(v, expected):
    assert lambert_w0(v) == pytest.approx(expected, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("v,expected", WM1_ORACLE)
def test_wm1_oracle(v, expected):
    rel = 1e-10 if v < -0.33 else 1e-13
    assert lambert_wm1(v) == pytest.approx(expected, rel=rel)


def test_branch_point_values():
    assert lambert_w0(BRANCH_POINT) == pytest.approx(-1.0, abs=1e-8)
    assert lambert_wm1(BRANCH_POINT) == pytest.approx(-1.0, abs=1e-8)


def test_w0_trivial_points():
    assert lambert_w0(0.0) == 0.0
    assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-14)


def test_roundtrip_grids():
    # w * e^w recovers the argument on dense grids for both branches
    for v in np.linspace(BRANCH_POINT + 1e-6, 10.0, 1000):
        w = lambert_w0(v)
        assert abs(w * math.exp(w) - v) <= 1e-12 * max(1.0, abs(v))
    for v in np.linspace(BRANCH_POINT + 1e-6, -1e-6, 1000):
        w = lambert_wm1(v)
        assert abs(w * math.exp(w) - v) <= 1e-12 * max(1.0, abs(v))


def test_wm1_log_argument_variant():
    # lambert_wm1_exp(L) = W_{-1}(-e^L); check far beyond float underflow
    for logmv in (-2.0, -50.0, -500.0, -5000.0):
        w = lambert_wm1_exp(logmv)
        assert w <= -1.0
        # residual of w + log(-w) = logmv
        assert abs(w + math.log(-w) - logmv) <= 1e-10 * max(1.0, abs(logmv))


# log(-v) from 1e-14 below the branch point out to the far tail, where the
# quantile's W-1 argument lies at p near 1e-6 (about -1e6) or u near 1, and
# on to the most negative float
LOGMV_GRID = np.concatenate([-1.0 - np.logspace(-14, math.log10(1.5), 200),
                             -np.logspace(math.log10(2.5), 4, 100),
                             -np.logspace(4, 300, 100)[1:],
                             [-1e308, -np.finfo(float).max]])


def test_wm1_exp_against_mpmath():
    with mpmath.workdps(40):
        ref = [float(mpmath.lambertw(-mpmath.exp(mpmath.mpf(float(L))), -1).real)
               for L in LOGMV_GRID]
    got = [lambert_wm1_exp(float(L)) for L in LOGMV_GRID]
    assert np.max(np.abs(np.subtract(got, ref)) / np.abs(ref)) <= 1e-12


def test_wm1_exp_never_returns_nan():
    # an infinite log-argument has no finite root; the iteration must say so
    with np.errstate(invalid="ignore"), pytest.raises(NonConvergenceError):
        lambert_wm1_exp(-math.inf)


def test_domain_errors():
    with pytest.raises(SpecialDomainError):
        lambert_w0(BRANCH_POINT - 1e-3)
    with pytest.raises(SpecialDomainError):
        lambert_wm1(BRANCH_POINT - 1e-3)
    with pytest.raises(SpecialDomainError):
        lambert_wm1(0.1)
    with pytest.raises(SpecialDomainError):
        lambert_wm1(0.0)


@pytest.mark.parametrize("a,expected", LGAMMA_ORACLE)
def test_log_gamma_oracle(a, expected):
    assert log_gamma(a) == pytest.approx(expected, rel=1e-12)


def test_gamma_integers_and_half():
    assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-13)
    assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-13)
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_log_gamma_recurrence():
    for a in (0.3, 1.7, 4.2, 11.5):
        assert log_gamma(a + 1.0) == pytest.approx(log_gamma(a) + math.log(a),
                                                   rel=1e-12)


def test_log_gamma_domain():
    with pytest.raises(SpecialDomainError):
        log_gamma(0.0)
    with pytest.raises(SpecialDomainError):
        log_gamma(-2.0)


def test_log_beta():
    assert log_beta(2.5, 3.5) == pytest.approx(-3.3018352699620526098,
                                               rel=1e-12)
    assert log_beta(1.0, 1.0) == pytest.approx(0.0, abs=1e-14)
    # symmetry
    assert log_beta(0.7, 4.1) == pytest.approx(log_beta(4.1, 0.7), rel=1e-13)


@given(st.floats(min_value=BRANCH_POINT + 1e-9, max_value=1e6))
@settings(max_examples=200, deadline=None)
def test_w0_roundtrip_property(v):
    w = lambert_w0(v)
    assert abs(w * math.exp(w) - v) <= 1e-11 * max(1.0, abs(v))


@given(st.floats(min_value=1e-12, max_value=50.0))
@settings(max_examples=200, deadline=None)
def test_lgamma_monotone_above_two(shift):
    # gamma is increasing on [2, inf)
    assert log_gamma(2.0 + shift) >= log_gamma(2.0) - 1e-12
