"""Pre-density estimation in a Sobolev RKHS with sampled frequencies.

The estimator fits f = sum_i alpha_i k(x_i, .) by minimizing
-(1/N) sum_i log f(x_i)^2 + ||f||_K^2 and reports f^2 as an unnormalized
density.  The kernel is the inverse of a symmetric differential operator,
evaluated through trigonometric random features; optimization uses a
kernel-scale-covariant (natural) gradient that preserves positivity of f on
the training set, and the smoothness parameter is selected by a Fisher
divergence estimated with Hutchinson probes.
"""

from .baseline_kernels import (
    ClosedFormKernel,
    kernel_gradient_closed_form,
    kernel_matrix_closed_form,
)
from .errors import (
    AllCandidatesFailed,
    DataError,
    NumericsError,
    SolverDivergence,
    SosrepError,
    ValidationError,
    VanishingDensity,
)
from .harness import (
    AD_METHODS,
    AdConfig,
    Dataset,
    ExperimentReport,
    SmoothBumpDensity,
    auc_roc,
    consistency_experiment,
    duplicate_anomalies,
    load_csv,
    negative_fraction_experiment,
    rank_aggregate,
    run_ad,
    split,
    standardize,
)
from .score_fd import (
    FdEntry,
    FdOptions,
    FdProfile,
    FdStat,
    fd_statistic,
    profile_from_csv,
    profile_to_csv,
    score,
    stable_minimum,
    tune,
)
from .sdo_kernel import (
    FrequencySample,
    SdoParams,
    feature_map,
    kernel_matrix,
    radial_density,
    sample_frequencies,
    spectral_mass,
    sphere_area,
)
from .solver import (
    FitBatch,
    FitResult,
    FittedModel,
    SolverOptions,
    fit,
    fit_model,
    model_from_json,
    model_to_json,
)
from .two_block import (
    BlockSpec,
    TwoBlockSolution,
    build_block_kernel,
    exact_system_coefficients,
    kde_ratio,
    solve_two_block,
    sosrep_block_ratio,
    verify_against_solver,
)

__version__ = "0.1.0"

__all__ = [
    "AD_METHODS",
    "AdConfig",
    "AllCandidatesFailed",
    "BlockSpec",
    "ClosedFormKernel",
    "DataError",
    "Dataset",
    "ExperimentReport",
    "FdEntry",
    "FdOptions",
    "FdProfile",
    "FdStat",
    "FitBatch",
    "FitResult",
    "FittedModel",
    "FrequencySample",
    "NumericsError",
    "SdoParams",
    "SmoothBumpDensity",
    "SolverDivergence",
    "SolverOptions",
    "SosrepError",
    "TwoBlockSolution",
    "ValidationError",
    "VanishingDensity",
    "auc_roc",
    "build_block_kernel",
    "consistency_experiment",
    "duplicate_anomalies",
    "exact_system_coefficients",
    "fd_statistic",
    "feature_map",
    "fit",
    "fit_model",
    "kde_ratio",
    "kernel_gradient_closed_form",
    "kernel_matrix",
    "kernel_matrix_closed_form",
    "load_csv",
    "model_from_json",
    "model_to_json",
    "negative_fraction_experiment",
    "profile_from_csv",
    "profile_to_csv",
    "radial_density",
    "rank_aggregate",
    "run_ad",
    "sample_frequencies",
    "score",
    "solve_two_block",
    "sosrep_block_ratio",
    "spectral_mass",
    "sphere_area",
    "split",
    "stable_minimum",
    "standardize",
    "tune",
    "verify_against_solver",
]
