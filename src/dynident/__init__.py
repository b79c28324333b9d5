"""Parameter identification for dynamical systems with known or unknown form.

Three layers:

* known-form estimation — closed-form least squares, derivative matching and
  trajectory matching against a catalog of ODE systems (``systems``,
  ``solver``, ``estimators``);
* multiview representation identification — an encoder/decoder trained so a
  designated latent block recovers exactly the parameters shared across
  paired views (``autodiff``, ``multiview``);
* downstream evaluation — partition classification, nonlinear R² probes and
  doubly-robust treatment-effect estimation on learned latents (``causal``).
"""

from .errors import (
    ConfigError,
    DegenerateLabelsError,
    DivergenceError,
    DynidentError,
    EstimationFailureError,
    FileFormatError,
    IllConditionedError,
    InvalidArgumentError,
    NumericDomainError,
    TrainingDivergedError,
    UnsupportedOperationError,
)
from .systems import (
    CATALOG,
    CATALOG_VERSION,
    OdeSystem,
    ParameterDraw,
    basis_matrix,
    eval_vector_field,
    get_system,
    sample_parameters,
)
from .solver import (
    OVERFLOW_GUARD,
    TimeGrid,
    Trajectory,
    dct_truncate,
    default_h_int,
    estimate_derivatives,
    idct_expand,
    integrate,
    integrate_batch,
    load_trajectories,
    save_trajectories,
)
from .estimators import (
    EstimateReport,
    FitResult,
    benchmark_rmse,
    fit_closed_form,
    fit_derivative_matching,
    fit_trajectory_matching,
)
from .autodiff import Tensor, backward, gradient_check, mlp_init, mlp_forward
from .multiview import (
    IdentifierConfig,
    IdentifierModel,
    MultiviewDataset,
    PartitionLayout,
    alignment_ratio,
    build_identifier,
    decode_forecast,
    encode,
    generate_multiview_dataset,
    load_dataset,
    load_identifier,
    multiview_loss,
    save_dataset,
    save_identifier,
    shared_latents,
    train_identifier,
)
from .causal import (
    AteResult,
    aipw_ate,
    ate_trend,
    latent_r2,
    partition_accuracy,
    partition_accuracy_matrix,
    synthetic_causal_dataset,
)

__version__ = "0.1.0"
