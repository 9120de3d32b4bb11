"""Sequential penalty training for finite-sum problems with per-sample constraints."""

from seqpen.problems import (
    FiniteSumProblem,
    OracleError,
    epoch_batches,
    feasibility_stats,
    full_objective,
    objective_grad_full,
    constraint_jacobian,
    constraint_values,
)
from seqpen.penalties import (
    PenaltySpec,
    multiplier_estimate,
    penalty_grad_full,
    penalty_value_full,
)
from seqpen.inner import (
    InnerSolverError,
    SGDConfig,
    grad_norm_estimate,
    iteration_budget,
    sgd_run,
)
from seqpen.outer import (
    OuterAbort,
    Schedule,
    fixed_penalty_train,
    sequential_penalty_train,
)
from seqpen.diagnostics import (
    elicq_check,
    kkt_residual,
    sgc_estimate,
    smoothness_estimate,
    suggested_stepsize,
)

__version__ = "0.1.0"
