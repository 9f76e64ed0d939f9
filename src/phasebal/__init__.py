"""Fuzzy-logic load balancing for three-phase distribution feeders.

A Mamdani controller reads each phase's total load and suggests a signed
kW change; a zero-sum correction repairs the suggestions so moving load
never alters the system total; a combinatorial planner picks the actual
load points to reassign. The balance() loop iterates until the average
phase unbalance falls below a threshold.
"""

from .balancing import (
    ALREADY_BALANCED,
    BALANCED,
    INFEASIBLE,
    ITERATION_CAP,
    OVER_CAPACITY,
    BalanceReport,
    BalancerConfig,
    IterationRecord,
    apply_plan,
    balance,
    error_correct,
)
from .fuzzy import (
    ControllerFormatError,
    FuzzyController,
    LinguisticVariable,
    TriangularMF,
    UniverseError,
    default_controller,
    infer_change,
    membership_at,
    parse_controller,
    reference_controller_text,
    response_samples,
    suggest_changes,
    write_controller,
)
from .io import (
    FeederFormatError,
    load_reference_feeder,
    parse_feeder_csv,
    reference_feeder_text,
    write_feeder_csv,
    write_moves_csv,
    write_report,
)
from .model import (
    FeederSnapshot,
    avg_unbalance,
    phase_totals,
    round_half_away,
    system_total,
)
from .planner import (
    BalancePlan,
    ChangeEntry,
    ChangeSuggestion,
    ChangeVector,
    Move,
    SubsetSelection,
    determine,
    distribute,
    feasibility_check,
    points_to_move,
    select_subset,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "FeederSnapshot",
    "phase_totals",
    "system_total",
    "avg_unbalance",
    "round_half_away",
    # fuzzy
    "TriangularMF",
    "LinguisticVariable",
    "FuzzyController",
    "UniverseError",
    "ControllerFormatError",
    "membership_at",
    "infer_change",
    "suggest_changes",
    "response_samples",
    "parse_controller",
    "write_controller",
    "reference_controller_text",
    "default_controller",
    # planner
    "ChangeSuggestion",
    "ChangeEntry",
    "ChangeVector",
    "Move",
    "BalancePlan",
    "SubsetSelection",
    "feasibility_check",
    "points_to_move",
    "select_subset",
    "determine",
    "distribute",
    # balancing
    "BalancerConfig",
    "IterationRecord",
    "BalanceReport",
    "error_correct",
    "apply_plan",
    "balance",
    "BALANCED",
    "ALREADY_BALANCED",
    "INFEASIBLE",
    "ITERATION_CAP",
    "OVER_CAPACITY",
    # io
    "FeederFormatError",
    "parse_feeder_csv",
    "write_feeder_csv",
    "write_report",
    "write_moves_csv",
    "load_reference_feeder",
    "reference_feeder_text",
]
