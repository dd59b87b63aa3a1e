"""Model-free adaptive LQR via online policy gradients.

The package covers both routes to data-driven LQR: the indirect one
(least-squares identification plus certainty-equivalence policy
gradients) and the direct one (projected gradients over a sample-covariance
parameterization of the gain), together with the shared linear-algebra core,
closed-loop data bookkeeping, adaptive controllers, and a reproducible
experiment harness.
"""

from .controller import (
    ConstantStep,
    ControllerSpec,
    ControllerState,
    InverseNormM,
    InverseSqrtLambda,
    ZeroLambda,
    advance,
    control_input,
    initialize,
    lambda_value,
    stepsize,
)
from .dataflow import (
    DataRecord,
    ModelEstimate,
    SnrReading,
    batch_least_squares,
    rls_update,
    snr_reading,
)
from .direct import (
    natural_direct_step,
    parameterize,
    projected_step,
    regularized_direct_cost,
    regularized_direct_gradient,
    scaling_matrix,
)
from .errors import (
    CertificateViolated,
    ConfigError,
    ConstraintViolated,
    DimensionMismatch,
    InitialGainUnstable,
    NegativeLambda,
    NoConvergence,
    NonFiniteData,
    NonSymmetric,
    NotPD,
    NotPersistentlyExciting,
    NotStable,
    NotStabilizing,
    NotStabilizingForData,
    NotStabilizingForEstimate,
    OracleUnavailable,
    PgacError,
    RankDeficient,
    RuleMismatch,
)
from .harness import (
    ExperimentConfig,
    MonteCarloSummary,
    TrajectoryLog,
    benchmark_plant,
    emit_csv,
    load_config,
    loglog_slope,
    read_trajectory_csv,
    run_monte_carlo,
    run_trial,
)
from .indirect import (
    gauss_newton_step,
    natural_step,
    regularized_cost,
    regularized_gradient,
)
from .linalg import (
    RiccatiSolution,
    hewer_iterates,
    initial_stabilizing_gain,
    lyapunov_solve_count,
    nullspace_projector,
    solve_dlyap_closed,
    solve_riccati_hewer,
    spectral_radius,
    sqrt_spd,
)
from .plant import (
    CostEvaluation,
    LinearQuadraticPlant,
    StabilityCertificate,
    exact_gradient,
    gradient_dominance_gap,
    lqr_cost,
    optimal_gain,
    step,
    strong_stability_certificate,
)

__version__ = "0.1.0"
