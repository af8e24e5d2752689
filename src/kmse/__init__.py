"""Spectral shrinkage estimators of the kernel mean.

Estimate the mean element of a distribution in an RKHS from a sample, with
a family of shrinkage estimators defined by spectral filter functions
(Tikhonov, gradient descent / early stopping, accelerated gradient,
iterated Tikhonov, truncated SVD, uniform shrinkage), parameter selection
by LOOCV/GCV, an analytic-risk Monte-Carlo harness against Gaussian
mixtures, numeric theory checks, and kernel-mean-matching density fits.
"""

from .data import Dataset, load_csv, split_train_test, standardize, standardize_like
from .density import (
    KmmFitConfig,
    MixtureModel,
    kmeans_init,
    kmm_fit,
    kmm_objective,
    kmm_objective_grad,
    nll,
)
from .errors import (
    ConfigurationError,
    ConvergenceError,
    CsvParseError,
    DefinitenessError,
    DegenerateBandwidthError,
    InputError,
    KmseError,
    ReplicationError,
)
from .estimators import (
    EstimatorConfig,
    WeightVector,
    empirical_kme_weights,
    evaluate_estimate,
    iterated_tikhonov_weights,
    landweber_weights,
    nu_method_weights,
    skmse_weights,
    spectral_weights,
    tsvd_weights,
)
from .filters import (
    AdmissibilityReport,
    FilterSpec,
    IteratedTikhonov,
    Landweber,
    NuMethod,
    SKMSE,
    TSVD,
    Tikhonov,
    check_admissibility,
    default_lambda_grid,
    qualification,
    residual,
    scalar_filter,
)
from .kernels import (
    GaussianRBF,
    KernelSpec,
    Linear,
    NormalizedGram,
    gram_matrix,
    kernel_eval,
    median_heuristic_bandwidth,
    normalize_gram,
)
from .linalg import EigenDecomposition, SymMatrix, sym_eigendecompose
from .risk import (
    RiskReport,
    improvement_percent,
    kernel_mean_inner,
    loss,
    mixture_mean_sq_norm,
    replication_losses,
    risk_estimate,
)
from .selection import (
    SelectionResult,
    gcv_select_tsvd,
    loocv_select_iterations,
    loocv_select_lambda,
)
from .synthetic import (
    MixtureParams,
    RngStream,
    draw_mixture_params,
    effective_components,
    sample_mixture,
    wishart_sample,
)
from .theory import (
    RateExperimentConfig,
    RateResult,
    component_risk_difference,
    component_shrinkage_upper,
    rate_experiment,
    risk_ratio_infimum,
    skmse_risk_difference_exact,
    theorem1_admissibility_bound,
    verify_operator_equivalence,
    verify_spectral_equivalence,
)

__version__ = "0.1.0"
