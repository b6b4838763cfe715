"""Deterministic binary linear-threshold dynamics on finite graphs.

Simulation, exhaustive limit-structure enumeration, structure-preserving
expansion transforms, counting-reduction gadgets, and a resilience
measure over type allocations.

The package is lazy (PEP 562): ``from threshold_lab import X`` imports
the submodule that defines X on first use, so importing the package
loads no submodule until one of its names is used.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "errors": (
        "BadParameterError",
        "DEFAULT_GUARD_N",
        "GuardExceededError",
        "InvariantViolationError",
        "NotBipartiteError",
        "ThresholdLabError",
    ),
    "graph_core": (
        "ACTION_B",
        "ACTION_W",
        "Graph",
        "TwoPartition",
        "build_graph",
        "convergence_time_bound",
        "default_guard",
        "format_profile",
        "instance_from_dict",
        "instance_to_dict",
        "is_bipartite",
        "is_valid_node",
        "load_instance",
        "make_step",
        "parse_profile",
        "two_partition",
        "types_to_thresholds",
        "validate_profile",
        "validate_thresholds",
        "validate_types",
    ),
    "dynamics": (
        "LimitReport",
        "Rule",
        "conflict_links",
        "convergence_time",
        "limit_cycle",
        "ring_two_step",
        "step",
        "step_restricted",
        "step_types",
        "step_weighted",
        "strong_assignments",
    ),
    "expansions": (
        "ComponentInstance",
        "ExpansionResult",
        "ProfileLift",
        "bipartite_expansion",
        "commutation_check",
        "compose_lifts",
        "identity_lift",
        "instances_isomorphic",
        "integer_weights_to_unit",
        "inverted_to_primary",
        "is_symmetric_model",
        "one_step_symmetric_expansion",
        "remove_constant_node",
        "remove_self_loops",
        "signed_to_primary",
        "symmetric_expansion",
    ),
    "enumeration": (
        "LimitCensus",
        "bipartite_cycle_identity",
        "build_extremal_cycle_instance",
        "count_fixed_points_backtracking",
        "count_predecessors",
        "enumerate_limits",
        "fixed_points",
        "is_reachable",
        "predecessors",
    ),
    "reductions": (
        "CPRED_DISCREPANCY_NOTE",
        "MONOTONE_2CNF",
        "MONOTONE_2DNF",
        "THREE_CNF",
        "Formula",
        "GadgetInstance",
        "count_sat",
        "fix_reduction",
        "formula_from_dict",
        "pred_reduction",
        "reachable_pred_reduction",
        "recover_sat_count",
    ),
    "resilience": (
        "ResilienceResult",
        "check_recovery",
        "greedy_upper_bound_q",
        "resilience_bruteforce",
        "resilience_closed_form",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
