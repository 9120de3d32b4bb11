"""Sequential penalty training for finite-sum problems with per-sample constraints."""

from seqpen.problems import (
    FeasibilityStats,
    FiniteSumProblem,
    OracleError,
    epoch_batches,
    feasibility_stats,
    full_objective,
    objective_grad_full,
    constraint_jacobian,
    constraint_values,
    violation_vector,
)
from seqpen.penalties import (
    PenaltySpec,
    multiplier_estimate,
    penalty_grad_full,
    penalty_value_full,
)
from seqpen.inner import (
    InnerReport,
    InnerSolverError,
    SGDConfig,
    grad_norm_estimate,
    iteration_budget,
    sgd_run,
)
from seqpen.outer import (
    OuterAbort,
    OuterRecord,
    OuterTrace,
    Schedule,
    fixed_penalty_train,
    sequential_penalty_train,
)
from seqpen.diagnostics import (
    ElicqReport,
    KKTReport,
    SGCEstimate,
    SmoothnessEstimate,
    elicq_check,
    kkt_residual,
    sgc_estimate,
    smoothness_estimate,
    suggested_stepsize,
)

__version__ = "0.1.0"
