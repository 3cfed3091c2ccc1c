"""Prepared per-fit objectives: the objective a fit minimizes is built once
from checked, sorted and tabulated data, and must do exactly the arithmetic
of the public objectives.

The golden values were recorded (numpy 2.4, scipy 1.17, x86-64) from the
implementation that re-checked, re-sorted and re-validated the data on every
objective evaluation.  They are compared with ``==``: a change to the order
of any floating-point operation on the fit path fails here.  A numpy build
with different ufunc loops may move their last bits.
"""

import math

import numpy as np
import pytest

from rtgle.distribution import RtgleParams, cdf, log_pdf, sample, sf
from rtgle.estimate import (_IGNORE, _OBJECTIVES, EstimationMethod,
                            OptimizerConfig, _objective, fit)
from rtgle.sim import default_sim_optimizer

TRUE = RtgleParams(1.2, 0.5, 1.5, 0.8)
X = sample(TRUE, 80, seed=0)

# method -> (alpha, beta, gamma, p, objective, iterations) of
# fit(X, method, default_sim_optimizer(TRUE), polish_gradient=False,
#     compute_se=False)
GOLDEN_SIM = {
    EstimationMethod.MLE: (1.2166394867746788, 0.08337648400259462,
                           1.707421587020524, 0.6879227313476404,
                           52.1776353919346, 285),
    EstimationMethod.LSE: (1.3601427765591447, 5.063457219539335e-15,
                           1.632612796369901, 0.8316616185262758,
                           0.03621239379559812, 832),
    EstimationMethod.WLSE: (1.297850374165226, 0.04141210848822713,
                            1.6502761060341202, 0.7733474460650871,
                            21.353339130105006, 517),
    EstimationMethod.ADE: (0.36198136389023583, 2.6467772115667034,
                           0.9294419579077398, 0.8188176766466276,
                           0.2552962971836621, 590),
    EstimationMethod.CME: (1.366968972295105, 4.203089650406314e-14,
                           1.6463895365978145, 0.8481206861033036,
                           0.03675682781710605, 815),
}

# the objective of each method at TRUE on X
GOLDEN_AT_TRUE = {
    EstimationMethod.MLE: 53.557121926826596,
    EstimationMethod.LSE: 0.11786177893254199,
    EstimationMethod.WLSE: 64.99078463950949,
    EstimationMethod.ADE: 0.8442115950706608,
    EstimationMethod.CME: 0.11301515850313967,
}

# fit(X, MLE, OptimizerConfig(n_starts=4)): four Nelder-Mead starts, the
# BFGS polish and the standard errors
GOLDEN_MLE_4 = (1.2166394804086784, 0.08337645700431517, 1.7074216155030653,
                0.6879226895024636, 52.17763539193459, 758)
GOLDEN_MLE_4_SE = (0.2987668796202696, 0.6924098009995333,
                   0.6859902740286979, 0.347195607282064)


def _public_formula(method, params, data):
    """Each objective written on the masked public cdf/sf/log_pdf."""
    x = np.asarray(data, dtype=float)
    if method is EstimationMethod.MLE:
        lp = log_pdf(params, x)
        return math.inf if np.any(np.isneginf(lp)) else -float(np.sum(lp))
    x = np.sort(x)
    n = len(x)
    i = np.arange(1, n + 1)
    f = cdf(params, x)
    if method is EstimationMethod.LSE:
        return float(np.sum((f - i / (n + 1.0)) ** 2))
    if method is EstimationMethod.WLSE:
        w = (n + 1.0) ** 2 * (n + 2.0) / (i * (n - i + 1.0))
        return float(np.sum(w * (f - i / (n + 1.0)) ** 2))
    if method is EstimationMethod.ADE:
        s = sf(params, x)
        if np.any(f <= 0.0) or np.any(s <= 0.0):
            return math.inf
        return float(-n - np.sum((2 * i - 1) * (np.log(f)
                                                + np.log(s[::-1]))) / n)
    return float(1.0 / (12.0 * n)
                 + np.sum((f - (2 * i - 1) / (2.0 * n)) ** 2))


@pytest.mark.parametrize("method", list(EstimationMethod))
def test_sim_fit_matches_golden(method):
    r = fit(X, method, default_sim_optimizer(TRUE), polish_gradient=False,
            compute_se=False)
    assert r.params.as_tuple() + (r.objective, r.iterations) \
        == GOLDEN_SIM[method]


def test_multistart_mle_with_polish_and_se_matches_golden():
    r = fit(X, EstimationMethod.MLE, OptimizerConfig(n_starts=4))
    assert r.params.as_tuple() + (r.objective, r.iterations) == GOLDEN_MLE_4
    assert r.standard_errors == GOLDEN_MLE_4_SE


@pytest.mark.parametrize("method", list(EstimationMethod))
def test_public_objective_equals_prepared_objective(method):
    # X is in draw order, not sorted
    assert not np.all(np.diff(X) >= 0.0)
    prepared = _objective(method, X)
    params = [TRUE, RtgleParams(0.3, 0.0, 0.7, 0.0),
              RtgleParams(0.0, 2.0, 2.5, 1.0), RtgleParams(5.0, 3.0, 4.0, 0.5)]
    for pr in params:
        with np.errstate(**_IGNORE):
            value = prepared(*pr.as_tuple())
        assert value == _OBJECTIVES[method](pr, X)
        assert value == _public_formula(method, pr, X)
    assert _OBJECTIVES[method](TRUE, X) == GOLDEN_AT_TRUE[method]


@pytest.mark.parametrize("method", list(EstimationMethod))
def test_fit_objective_is_public_objective_at_estimate(method):
    r = fit(X, method, default_sim_optimizer(TRUE), polish_gradient=False,
            compute_se=False)
    assert r.objective == _OBJECTIVES[method](r.params, X)
