"""Prepared per-fit objectives: the objective a fit minimizes is built once
from checked, sorted and tabulated data, and must do exactly the arithmetic
of the public objectives.

The objective values at fixed parameters were recorded (numpy 2.4, scipy
1.17, x86-64) from the implementation that re-checked, re-sorted and
re-validated the data on every objective evaluation; the fits were
re-recorded from the bounded Levenberg-Marquardt search, and each must end
at or below the objective the Nelder-Mead search it replaced reached.  They
are compared with ``==``: a change to the order of any floating-point
operation on the fit path fails here.  A numpy build with different ufunc
loops may move their last bits.
"""

import math

import numpy as np
import pytest

from rtgle.compare import COMPETITOR_KINDS, fit_competitor
from rtgle.datasets import flag_outliers_iqr, load_dataset
from rtgle.distribution import RtgleParams, cdf, log_pdf, sf
from rtgle.estimate import (_IGNORE, _OBJECTIVES, _RTGLE, EstimationMethod,
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
# fit_many([X], (method,), default_sim_optimizer(TRUE))[0][0], from the
# bounded Levenberg-Marquardt search on the analytic Hessians, stopped by
# the fitter's one policy; LSE and CME end on the beta = 0 edge
GOLDEN_SIM = {
    EstimationMethod.MLE: (1.216639917040756, 0.08337441658718618,
                           1.7074235491682708, 0.6879221321093355,
                           52.17763539193892, 8),
    EstimationMethod.LSE: (1.3601429932266111, 0.0, 1.632612529072161,
                           0.8316618738191887, 0.03621239379560373, 18),
    EstimationMethod.WLSE: (1.2978496475878487, 0.04141547940228216,
                            1.650273267198409, 0.7733481573842372,
                            21.35333913014083, 13),
    EstimationMethod.ADE: (0.36198140830706554, 2.6467773282893536,
                           0.9294419381992574, 0.8188177480570128,
                           0.2552962971836621, 21),
    EstimationMethod.CME: (1.3669690445818263, 0.0, 1.6463894469979565,
                           0.8481207727300727, 0.036756827817106756, 24),
}

# the goldens above as they were while the study's searches stopped by
# looser rules of their own (a certificate at 1e-9 of the value in place
# of 1e-10, a step tolerance of 1e-6 in place of 1e-8, 1,000 steps at
# most): method -> (alpha, beta, gamma, p, objective, relative bound on
# the move of the parameters).  Under the fitter's policy MLE, LSE, ADE and
# CME take one more step and their objectives fall by 0.8-3.9e-10
# relative; WLSE is unchanged.  A certified point pins the parameters only
# along the curved directions: MLE's beta, the flattest, moved 1.6e-3, and
# every other parameter at most 4.7e-5
PREVIOUS_SIM = {
    EstimationMethod.MLE: (1.2166648439092391, 0.08323966967194106,
                           1.7075554424830726, 0.6878807025279106,
                           52.177635412240654, 2e-3),
    EstimationMethod.LSE: (1.3601489746262934, 0.0, 1.6326052073354247,
                           0.8316689174157063, 0.036212393800122936, 1e-5),
    EstimationMethod.WLSE: (1.2978496475878487, 0.04141547940228216,
                            1.650273267198409, 0.7733481573842372,
                            21.35333913014083, 0.0),
    EstimationMethod.ADE: (0.361964462682951, 2.6468125856259044,
                           0.9294380510826338, 0.818814972972334,
                           0.2552962972044668, 5e-5),
    EstimationMethod.CME: (1.3669743482123096, 0.0, 1.6463828280655513,
                           0.8481270475742944, 0.03675682782060869, 1e-5),
}

# the objective each of these fits reached by the multi-start Nelder-Mead
# that the bounded search replaced; a fit must end at or below it, to 1e-9
# relative
NELDER_MEAD_SIM = {
    EstimationMethod.MLE: 52.1776353919346,
    EstimationMethod.LSE: 0.03621239379559812,
    EstimationMethod.WLSE: 21.353339130105006,
    EstimationMethod.ADE: 0.2552962971836621,
    EstimationMethod.CME: 0.03675682781710605,
}

# the objective of each method at TRUE on X
GOLDEN_AT_TRUE = {
    EstimationMethod.MLE: 53.557121926826596,
    EstimationMethod.LSE: 0.11786177893254199,
    EstimationMethod.WLSE: 64.99078463950949,
    EstimationMethod.ADE: 0.8442115950706608,
    EstimationMethod.CME: 0.11301515850313967,
}

# fit(X, MLE, OptimizerConfig(n_starts=4)): four starts and the standard
# errors; Nelder-Mead reached 52.17763539193459
GOLDEN_MLE_4 = (1.2166396411532483, 0.08337560600978618, 1.7074224225427401,
                0.687922446188708, 52.177635391935354, 16)
GOLDEN_MLE_4_SE = (0.2987673617618069, 0.6924112076587993,
                   0.6859918174200843, 0.34719586678588377)
NELDER_MEAD_MLE_4 = 52.17763539193459

# GOLDEN_MLE_4 and its standard errors as they were before the analytic
# Hessians, with the relative bounds on the move of the parameters and of
# the standard errors: those were the inverse of a central-difference
# Hessian in free coordinates, whose truncation error is some 1e-5 here
# (they moved 1.4e-5), and are now the inverse analytic Hessian
PREVIOUS_MLE_4 = ((1.2166396403447788, 0.0833756228681884,
                   1.7074224039198542, 0.68792245388947, 52.17763539193533),
                  (0.2987687258498516, 0.6924212064671461,
                   0.6860004604802784, 0.3471972663219649), 1e-6, 1e-4)

# kind -> (params, minus2loglik, converged, standard_errors, at_boundary) of
# fit_competitor(kind, TRIMMED, OptimizerConfig(n_starts=4, seed=1)); TLL
# ends on the lambda = 1 edge
GOLDEN_COMPETITOR = {
    "RTW": ((0.3713976231318118, 0.8096048398140292, 0.4900701089353029),
            261.45218791893205, True,
            (0.16504297122534023, 0.1316747921231272, 0.2892992800864285),
            (False, False, False)),
    "W": ((0.8856678839029846, 5.770949687538187), 262.491433080542, True,
          (0.10767235141325333, 0.9937836177805215), (False, False)),
    "TW": ((0.8316399025369273, 4.811937252025206, -0.2897940627429481),
           261.9948428877862, True,
           (0.13202036449891003, 1.4249860965585432, 0.3729354534354243),
           (False, False, False)),
    "TL": ((0.2653162680821854, 0.27392557000248746), 270.85679327989214,
           True, (0.046629891354435626, 0.3543325554779826), (False, False)),
    "TLL": ((8.724646625161585, 1.0197642982776824, 1.0),
            269.46330188997547, True, None, (False, False, True)),
    "RTLE": ((0.16302237007817452, 0.002661805215907655,
              0.08067711739359201), 263.21472086231347, True,
             (0.1274889239182828, 0.005096653699393029, 0.7177789945342833),
             (False, False, False)),
    "LE": ((0.15009826975668766, 0.0025972014230557132), 263.2191107552485,
           True, (0.03422660457940241, 0.004695924928909708), (False, False)),
}

# the goldens above as they were before the analytic Hessians, every one
# re-recorded: kind -> (params, minus2loglik, standard_errors, relative
# bound on the move of params, relative bound on the move of the standard
# errors).  -2logL moved by at most 2.2e-16 relative and the parameters by
# at most 5.5e-8 (RTLE); the standard errors, once the inverse of a
# central-difference Hessian in free coordinates and now the inverse
# analytic Hessian, by at most 2.3e-5 (RTLE)
PREVIOUS_COMPETITOR = {
    "RTW": ((0.3713976225803483, 0.8096048402115114, 0.4900701081467944),
            261.452187918932,
            (0.16504286904938067, 0.13167473103242525, 0.28929913223119275),
            1e-6, 1e-4),
    "W": ((0.8856678839166755, 5.770949687379667), 262.491433080542,
          (0.1076723543918647, 0.9937836286655338), 1e-6, 1e-4),
    "TW": ((0.831639902680774, 4.81193725415203, -0.28979406228125026),
           261.9948428877862,
           (0.13202040184828331, 1.4249866636415691, 0.3729356148338292),
           1e-6, 1e-4),
    "TL": ((0.2653162680985686, 0.27392556991687966), 270.85679327989214,
           (0.046629890411065, 0.3543325289937218), 1e-6, 1e-4),
    "TLL": ((8.724646625710317, 1.0197642983335498, 1.0),
            269.46330188997547, None, 1e-6, 1e-4),
    "RTLE": ((0.16302236928209182, 0.002661805222439381,
              0.08067711295305895), 263.2147208623134,
             (0.12748618635425385, 0.005096649199325115, 0.7177621806948136),
             1e-6, 1e-4),
    "LE": ((0.15009826977501758, 0.002597201421910977), 263.2191107552485,
           (0.0342266022191693, 0.00469592414354023), 1e-6, 1e-4),
}

# the -2 log-likelihood of each competitor fit under Nelder-Mead, recorded
# before the competitors ran through RTGLE's fit routine
NELDER_MEAD_COMPETITOR = {
    "RTW": 261.45218791891944, "W": 262.4914330805419,
    "TW": 261.9948428877825, "TL": 270.8567932798904,
    "TLL": 269.4633018899756, "RTLE": 263.2147208623124,
    "LE": 263.21911075524844,
}


def _at_or_below(value, reference):
    return value <= reference + 1e-9 * abs(reference)


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
    assert r.converged and _at_or_below(r.objective, NELDER_MEAD_SIM[method])
    *params, objective, rel = PREVIOUS_SIM[method]
    assert r.objective == pytest.approx(objective, rel=1e-9, abs=0.0)
    assert r.params.as_tuple() == pytest.approx(params, rel=rel, abs=0.0)


def test_multistart_mle_with_se_matches_golden():
    r = fit(X, EstimationMethod.MLE, OptimizerConfig(n_starts=4))
    assert r.params.as_tuple() + (r.objective, r.iterations) == GOLDEN_MLE_4
    assert r.standard_errors == GOLDEN_MLE_4_SE
    assert r.converged and _at_or_below(r.objective, NELDER_MEAD_MLE_4)
    (*params, objective), se, rel, rel_se = PREVIOUS_MLE_4
    assert r.objective == pytest.approx(objective, rel=1e-9, abs=0.0)
    assert r.params.as_tuple() == pytest.approx(params, rel=rel, abs=0.0)
    assert r.standard_errors == pytest.approx(se, rel=rel_se, abs=0.0)


@pytest.mark.parametrize("method", list(EstimationMethod))
def test_public_objective_equals_prepared_objective(method):
    # X is in draw order, not sorted
    assert not np.all(np.diff(X) >= 0.0)
    params = [TRUE, RtgleParams(0.3, 0.0, 0.7, 0.0),
              RtgleParams(0.0, 2.0, 2.5, 1.0), RtgleParams(5.0, 3.0, 4.0, 0.5)]
    # a public objective evaluates one row on floats; a fit evaluates the
    # rows of many parameter vectors at once, as (R, 1) columns
    with np.errstate(**_IGNORE):
        values = _row_objective(_RTGLE, (method,), X[None])(
            np.array([pr.as_tuple() for pr in params]),
            np.zeros(len(params), dtype=int))[0]
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
            cf.standard_errors, cf.at_boundary) == GOLDEN_COMPETITOR[kind]
    assert cf.converged and _at_or_below(cf.minus2loglik,
                                         NELDER_MEAD_COMPETITOR[kind])
    params, m2ll, se, rel, rel_se = PREVIOUS_COMPETITOR[kind]
    assert cf.minus2loglik == pytest.approx(m2ll, rel=1e-9, abs=0.0)
    assert cf.model.params == pytest.approx(params, rel=rel, abs=0.0)
    assert (cf.standard_errors == se if se is None else
            cf.standard_errors == pytest.approx(se, rel=rel_se, abs=0.0))


@pytest.mark.parametrize("kind", COMPETITOR_KINDS)
def test_competitor_fit_ignores_rtgle_start(kind):
    # config.start is an RTGLE start; a competitor fit starts at its own
    config = OptimizerConfig(n_starts=4, seed=1)
    with_start = OptimizerConfig(n_starts=4, seed=1,
                                 start=(1.2, 0.5, 1.5, 0.8))
    assert fit_competitor(kind, TRIMMED, with_start) \
        == fit_competitor(kind, TRIMMED, config)
