"""Robust pole assignment for descriptor systems via PD state feedback.

Given E*x' = A*x + B*u and a self-conjugate multiset of n poles (possibly
infinite ones), construct u = F*x - G*x' so that the closed-loop pencil
(A + B*F, E + B*G) is regular, has nilpotency index at most one, carries
exactly the requested spectrum, and stays close to a normal pair so the
assigned poles are insensitive to perturbations.
"""

from .assign import (
    AssignState,
    Solution,
    StepRecord,
    assign_complex_pair,
    assign_infinite_block,
    assign_real_pole,
    complete_X,
    extract_feedback,
    run_pipeline,
)
from .bench import BenchConfig, TrialResult, generate_random_instance, run_sweep, run_trial, write_csv
from .errors import DegenerateStepError, ParseError, SchurPoleError, SingularPencilError
from .metrics import (
    IndexReport,
    Report,
    departure_measure,
    eigenvector_condition,
    frobenius_condition,
    generalized_eig_oracle,
    index_and_regularity_check,
    precs_metric,
    verify_feedback,
    verify_solution,
)
from .poles import PoleKind, PolePair
from .problem import (
    Problem,
    ValidationReport,
    parse_problem,
    parse_solution,
    serialize_problem,
    serialize_solution,
    validate_problem,
)

__version__ = "0.1.0"

__all__ = [
    "AssignState",
    "BenchConfig",
    "DegenerateStepError",
    "IndexReport",
    "ParseError",
    "PoleKind",
    "PolePair",
    "Problem",
    "Report",
    "SchurPoleError",
    "SingularPencilError",
    "Solution",
    "StepRecord",
    "TrialResult",
    "ValidationReport",
    "assign_complex_pair",
    "assign_infinite_block",
    "assign_real_pole",
    "complete_X",
    "departure_measure",
    "eigenvector_condition",
    "extract_feedback",
    "frobenius_condition",
    "generalized_eig_oracle",
    "generate_random_instance",
    "index_and_regularity_check",
    "parse_problem",
    "parse_solution",
    "precs_metric",
    "run_pipeline",
    "run_sweep",
    "run_trial",
    "serialize_problem",
    "serialize_solution",
    "validate_problem",
    "verify_feedback",
    "verify_solution",
    "write_csv",
]
