"""Record-based transmuted generalized linear exponential (RTGLE)
distribution: evaluation, exact sampling, moments and entropy, parameter
estimation, goodness of fit, model comparison, and a Monte Carlo study
harness."""

from .distribution import (BothRatesZero, HazardShapeClass, InvalidParams,
                           NegativeRate, NonPositiveGamma, PdfShapeClass,
                           POutOfRange, QuantileOverflow,
                           QuantileUnderflow, RtgleParams,
                           baseline_hazard, cdf, classify_hazard_shape,
                           classify_pdf_shape, exponential, gle, hazard,
                           linear_exponential, log_pdf, pdf, quantile,
                           quantile_vec, rayleigh, rt_exponential,
                           rt_linear_exponential, rt_rayleigh, rt_weibull,
                           sample, sample_via_records, sf, validate, weibull)
from .estimate import (AllStartsFailed, DegenerateData, EstimationMethod,
                       FitResult, HessianNotPD, NonPositiveData,
                       OptimizerConfig, fit, fit_many, neg_log_likelihood,
                       nll_gradient, standard_errors)
from .gof import (GofReport, StatKind, ad_statistic, aic, cvm_statistic,
                  gof_report, ks_statistic, p_value)
from .properties import (MgfDiverged, QuadratureError, QuantileMeasures,
                         cumulative_hazard, gini_mean_difference, kurtosis,
                         l_moment, mgf, moment_quadrature,
                         moment_recurrence_residual, order_statistic_pdf,
                         quantile_measures, record_pdf, renyi_entropy,
                         skewness, variance)
from .special import (NonConvergenceError, SpecialDomainError, gamma_fn,
                      lambert_w0, lambert_wm1, log_beta, log_gamma)

__version__ = "0.1.0"
