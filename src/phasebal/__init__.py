"""Fuzzy-logic load balancing for three-phase distribution feeders.

A Mamdani controller reads each phase's total load and suggests a signed
kW change; a zero-sum correction repairs the suggestions so moving load
never alters the system total; a combinatorial planner picks the actual
load points to reassign. The balance() loop iterates until the average
phase unbalance falls below a threshold.
"""

from .balancing import BalancerConfig, apply_plan, balance, error_correct
from .fuzzy import default_controller, infer_change, membership_at, response_samples, suggest_changes
from .io import load_reference_feeder, write_report
from .model import FeederSnapshot, avg_unbalance, phase_totals, system_total
from .planner import (
    ChangeSuggestion,
    determine,
    distribute,
    feasibility_check,
    points_to_move,
    select_subset,
)

__version__ = "0.1.0"

# The names the demos and the README use; everything else is imported
# from its submodule (phasebal.model, .fuzzy, .planner, .balancing, .io).
__all__ = [
    "__version__",
    # model
    "FeederSnapshot",
    "phase_totals",
    "system_total",
    "avg_unbalance",
    # fuzzy
    "membership_at",
    "infer_change",
    "suggest_changes",
    "response_samples",
    "default_controller",
    # planner
    "ChangeSuggestion",
    "feasibility_check",
    "points_to_move",
    "select_subset",
    "determine",
    "distribute",
    # balancing
    "BalancerConfig",
    "error_correct",
    "apply_plan",
    "balance",
    # io
    "write_report",
    "load_reference_feeder",
]
