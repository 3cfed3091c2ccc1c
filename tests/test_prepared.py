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

from rtgle.compare import COMPETITOR_KINDS, fit_competitor
from rtgle.datasets import flag_outliers_iqr, load_dataset
from rtgle.distribution import RtgleParams, cdf, log_pdf, sf
from rtgle.estimate import (_IGNORE, _OBJECTIVES, EstimationMethod,
                            OptimizerConfig, _row_objective, fit, fit_many)
from rtgle.sim import default_sim_optimizer

TRUE = RtgleParams(1.2, 0.5, 1.5, 0.8)
# sample(TRUE, 80, seed=0) as drawn by the scalar quantile when the golden
# values were recorded.  The array sampler rounds 5 of these 80 draws
# differently in the last bit (numpy's log1p/exp/power against math's), and
# these tests pin the fit path, not the sampler, so the input is a literal.
X = np.array([
    0.11567891976523811, 0.606859010225619, 0.4093213999182231,
    0.9797603925635737, 0.9092860142754775, 0.6523348833051674,
    1.6711653204422294, 1.9612974303018789, 0.6226070153275205,
    0.5439531926677768, 1.1629609821382685, 0.444937267824841,
    0.9890693131941763, 0.6241036517711519, 1.4228408708666829,
    1.2332334270399559, 0.6545762759122737, 0.5075439706891419,
    1.6865021981753652, 0.827965480361034, 0.49945915558864107,
    0.2709477115379274, 0.8743278533642722, 1.8908843148834207,
    1.1150267954399984, 0.6087579638554438, 1.1012149445734671,
    2.4607080913410466, 0.8252155347201464, 1.8658354770342098,
    0.8453605037961149, 0.8849227186390453, 0.685097228250239,
    0.8959126736848684, 1.0488423569484915, 0.6448081217091107,
    1.0680393817256555, 1.3707436321569733, 0.23457926438260235,
    0.6694128744099143, 1.3819796468861405, 1.7844390751563048,
    1.277238648836794, 0.2077798667272372, 0.6178745361872127,
    0.8506837417206489, 2.0417012605409686, 0.979607605993582,
    1.2763842266245338, 0.7150517819558518, 1.5368756424598193,
    0.9722252498947669, 1.467083660432195, 1.0478135027575277,
    0.17582729050887588, 1.010755539504613, 0.6526830505661564,
    0.9914958767312869, 0.6619568794986184, 1.4619834427936973,
    1.2337610968663433, 1.1453315792404744, 0.6137781674555127,
    1.1393967641888634, 1.2319093749017547, 1.4621893988524919,
    0.09854815109879879, 1.412054090188403, 0.8878194390150337,
    0.2231834483167606, 1.2918206414334603, 0.9675773110360769,
    0.47685567194665196, 0.6661096320860553, 1.632366093968811,
    0.843045445349549, 1.4071578742018978, 0.8892994968475991,
    1.4466566577309226, 0.9005981386285149
])

# method -> (alpha, beta, gamma, p, objective, iterations) of
# fit_many([X], (method,), default_sim_optimizer(TRUE))[0][0]
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

# fit(X, MLE, OptimizerConfig(n_starts=4)): four Nelder-Mead starts and the
# standard errors
GOLDEN_MLE_4 = (1.2166394804086784, 0.08337645700431517, 1.7074216155030653,
                0.6879226895024636, 52.17763539193459, 758)
GOLDEN_MLE_4_SE = (0.2987668796202696, 0.6924098009995333,
                   0.6859902740286979, 0.347195607282064)

# kind -> (params, minus2loglik, converged, standard_errors) of
# fit_competitor(kind, TRIMMED, OptimizerConfig(n_starts=4, seed=1)),
# recorded before the competitors ran through RTGLE's fit routine.  TW's
# standard errors were re-recorded (a 1.9e-8 relative move) when every MLE
# took them at _to_free of its reported parameters rather than at the
# search's free point
GOLDEN_COMPETITOR = {
    "RTW": ((0.371397059296318, 0.809605217009729, 0.4900691685396011),
            261.45218791891944, True,
            (0.16504238133306606, 0.13167455755550164, 0.28929855360402607)),
    "W": ((0.8856678829873147, 5.7709496882354525),
          262.4914330805419, True,
          (0.10767234903414072, 0.9937836149642776)),
    "TW": ((0.8316401122132571, 4.811939796310217, -0.2897934017276425),
           261.9948428877825, True,
           (0.13202035520277222, 1.424986843504712, 0.37293556088584406)),
    "TL": ((0.2653163257488797, 0.27392511361968824),
           270.8567932798904, True,
           (0.04662986986792509, 0.35433230233044216)),
    "TLL": ((8.724646273507387, 1.019764285634389, 0.9999999999999942),
            269.4633018899756, True,
            None),
    "RTLE": ((0.16302225966111034, 0.0026618047540354134, 0.0806764445279042),
             263.2147208623124, True,
             (0.12748646035729047, 0.005096644236785809, 0.7177645519954456)),
    "LE": ((0.15009827767893824, 0.002597200651467297),
           263.21911075524844, True,
           (0.03422659610974889, 0.004695922534137341)),
}
_FULL = load_dataset("embedded").values
TRIMMED = np.delete(_FULL, flag_outliers_iqr(_FULL))


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
    r = fit_many([X], (method,), default_sim_optimizer(TRUE))[0][0]
    assert r.params.as_tuple() + (r.objective, r.iterations) \
        == GOLDEN_SIM[method]


def test_multistart_mle_with_se_matches_golden():
    r = fit(X, EstimationMethod.MLE, OptimizerConfig(n_starts=4))
    assert r.params.as_tuple() + (r.objective, r.iterations) == GOLDEN_MLE_4
    assert r.standard_errors == GOLDEN_MLE_4_SE


@pytest.mark.parametrize("method", list(EstimationMethod))
def test_public_objective_equals_prepared_objective(method):
    # X is in draw order, not sorted
    assert not np.all(np.diff(X) >= 0.0)
    params = [TRUE, RtgleParams(0.3, 0.0, 0.7, 0.0),
              RtgleParams(0.0, 2.0, 2.5, 1.0), RtgleParams(5.0, 3.0, 4.0, 0.5)]
    # a public objective evaluates one row on floats; a fit evaluates the
    # rows of many parameter vectors at once, as (R, 1) columns
    with np.errstate(**_IGNORE):
        values = _row_objective((method,), X[None])(
            np.array([pr.as_tuple() for pr in params]),
            np.zeros(len(params), dtype=int))
    for pr, value in zip(params, values.tolist()):
        assert value == _OBJECTIVES[method](pr, X)
        assert value == _public_formula(method, pr, X)
    assert _OBJECTIVES[method](TRUE, X) == GOLDEN_AT_TRUE[method]


@pytest.mark.parametrize("method", list(EstimationMethod))
def test_fit_objective_is_public_objective_at_estimate(method):
    r = fit_many([X], (method,), default_sim_optimizer(TRUE))[0][0]
    assert r.objective == _OBJECTIVES[method](r.params, X)


@pytest.mark.parametrize("kind", COMPETITOR_KINDS)
def test_competitor_fit_matches_golden(kind):
    cf = fit_competitor(kind, TRIMMED, OptimizerConfig(n_starts=4, seed=1))
    assert (cf.model.params, cf.minus2loglik, cf.converged,
            cf.standard_errors) == GOLDEN_COMPETITOR[kind]


@pytest.mark.parametrize("kind", COMPETITOR_KINDS)
def test_competitor_fit_ignores_rtgle_start(kind):
    # config.start is an RTGLE start; a competitor fit starts at its own
    config = OptimizerConfig(n_starts=4, seed=1)
    with_start = OptimizerConfig(n_starts=4, seed=1,
                                 start=(1.2, 0.5, 1.5, 0.8))
    assert fit_competitor(kind, TRIMMED, with_start) \
        == fit_competitor(kind, TRIMMED, config)
