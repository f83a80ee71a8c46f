"""Regularized Walras-type price equilibria.

Supply and demand are optimal strategies of strictly convex quadratic
programs parameterized by price; equilibrium prices are the fixed points
of a nonexpansive projected step of the excess map; and the solver picks
the fixed point nearest a guessed price by minimizing a strongly convex
anchor objective over that fixed-point set.
"""

__version__ = "0.1.0"

from .gen import GenConfig, GeneratedInstance, GenerationFailed, generate, pd_from_factor, random_instance
from .maps import ExcessEvaluator, InnerSolveFailed, MapEvaluation
from .model import (
    AgentCosts,
    FeasibleSet,
    InstanceFormatError,
    ModelConstants,
    ModelInstance,
    NotPositiveDefinite,
    PriceDomain,
    ValidationIssue,
    compute_constants,
    has_errors,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
    validate_instance,
)
from .qp import (
    FeasiblePointResult,
    QpProblem,
    QpSolution,
    QpStatus,
    check_kkt,
    feasible_point,
    solve_qp,
)
from .solver import (
    IterationLimitError,
    IterationState,
    Objective,
    SolveReport,
    StepSchedule,
    Termination,
    TraceRow,
    bilevel_solve,
    gamma_k,
    gradient_step,
    km_fixed_point,
    schedule_default,
)

__all__ = [
    "AgentCosts",
    "ExcessEvaluator",
    "FeasiblePointResult",
    "FeasibleSet",
    "GenConfig",
    "GeneratedInstance",
    "GenerationFailed",
    "InnerSolveFailed",
    "InstanceFormatError",
    "IterationLimitError",
    "IterationState",
    "MapEvaluation",
    "ModelConstants",
    "ModelInstance",
    "NotPositiveDefinite",
    "Objective",
    "PriceDomain",
    "QpProblem",
    "QpSolution",
    "QpStatus",
    "SolveReport",
    "StepSchedule",
    "Termination",
    "TraceRow",
    "ValidationIssue",
    "bilevel_solve",
    "check_kkt",
    "compute_constants",
    "feasible_point",
    "gamma_k",
    "generate",
    "gradient_step",
    "has_errors",
    "instance_from_json",
    "instance_to_json",
    "km_fixed_point",
    "load_instance",
    "pd_from_factor",
    "random_instance",
    "save_instance",
    "schedule_default",
    "solve_qp",
    "validate_instance",
]
