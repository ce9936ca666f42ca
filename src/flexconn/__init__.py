"""Flexible graph connectivity solver.

Find a cheap edge set that stays p-edge-connected after any q unsafe edges
fail, via a knapsack-cover LP relaxation with cutting-plane separation and
O(log n)-factor randomized rounding, plus brute-force baselines that verify
each piece at small scale.
"""

from .errors import (
    FieldRangeError,
    FlexconnError,
    GenerationError,
    GraphStructureError,
    InvalidInstanceError,
    IterationLimitError,
    LpSolveError,
    ParseError,
    RoundingFailedError,
    TooLargeError,
)
from .exact import (
    ExactResult,
    all_cut_capacities,
    count_cuts_at_most,
    exact_opt,
    separate_bruteforce,
)
from .graph import Cut, Multigraph, cut_edges, enumerate_cuts_below, min_cut
from .instance_io import (
    gen_random,
    instance_from_json,
    instance_to_json,
    load_instance,
    parse_instance,
    save_instance,
    serialize_instance,
)
from .model import (
    FeasibilityVerdict,
    FgcInstance,
    capacities,
    is_feasible,
    is_feasible_direct,
    validate_instance,
)
from .relaxation import (
    ConstraintRow,
    RelaxationResult,
    candidate_j_sets,
    constraint_row,
    lp_solve,
    separate,
    solve_relaxation,
    violation,
)
from .rounding import RoundingConfig, RoundingOutcome, inclusion_probabilities, round_once, solve

__version__ = "0.1.0"

__all__ = [
    "ConstraintRow",
    "Cut",
    "ExactResult",
    "FeasibilityVerdict",
    "FgcInstance",
    "FieldRangeError",
    "FlexconnError",
    "GenerationError",
    "GraphStructureError",
    "InvalidInstanceError",
    "IterationLimitError",
    "LpSolveError",
    "Multigraph",
    "ParseError",
    "RelaxationResult",
    "RoundingConfig",
    "RoundingFailedError",
    "RoundingOutcome",
    "TooLargeError",
    "all_cut_capacities",
    "candidate_j_sets",
    "capacities",
    "constraint_row",
    "count_cuts_at_most",
    "cut_edges",
    "enumerate_cuts_below",
    "exact_opt",
    "gen_random",
    "inclusion_probabilities",
    "instance_from_json",
    "instance_to_json",
    "is_feasible",
    "is_feasible_direct",
    "load_instance",
    "lp_solve",
    "min_cut",
    "parse_instance",
    "round_once",
    "save_instance",
    "separate",
    "separate_bruteforce",
    "serialize_instance",
    "solve",
    "solve_relaxation",
    "validate_instance",
    "violation",
]
