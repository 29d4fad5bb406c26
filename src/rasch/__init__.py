"""Rasch-model item-parameter estimation via random pairing.

Library layout: `model` samples responses, `pairing` compiles them into
item-item comparisons, `solver` minimizes the comparison likelihood,
`estimators` orchestrates the four estimation methods, `laplacian` handles the
comparison-graph spectra, `inference` builds confidence intervals, and
`experiments` / `cli` drive reproducible simulation studies.
"""

from .errors import (
    ConvergenceError,
    DataFormatError,
    DisconnectedGraphError,
    DivergenceError,
    EstimationError,
)
from .estimators import (
    EstimatorConfig,
    ItemEstimate,
    estimate,
    mrp_mle,
    pmle,
    rp_mle,
    top_k,
    top_k_recovery_rate,
    wp_mle,
)
from .inference import (
    InferenceReport,
    PluginCovariance,
    beta_for_point_mass,
    confidence_intervals,
    empirical_coverage,
    normal_quantile,
    plugin_covariance,
    special_case_covariance,
)
from .laplacian import (
    BtlWeights,
    WeightedLaplacian,
    build_count_laplacian,
    build_z_laplacian,
    pseudo_inverse,
    pseudo_inverse_trace,
    spectral_diagnostics,
)
from .model import (
    ConditionNumbers,
    GroundTruth,
    ResponseData,
    condition_numbers,
    rasch_response_prob,
    sample_ground_truth,
    sample_responses,
)
from .pairing import (
    PairedComparisons,
    SplitAssignment,
    btl_win_prob,
    compile_comparisons,
    disagreement_prob,
    random_split,
    split_wins,
)
from .solver import (
    BtlObjective,
    SolveResult,
    SolverOptions,
    gradient,
    hessian,
    nll,
    solve_newton,
    solve_newton_batch,
)

__version__ = "0.1.0"
