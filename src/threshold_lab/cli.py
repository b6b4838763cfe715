"""Command-line entry point.

Subcommands: simulate, enumerate, expand, reduce, resilience, verify.
All output is canonical JSON (sorted keys, exact rationals as
[numerator, denominator]), so identical inputs and seeds produce
byte-identical results. Exit codes: 0 success, 2 invalid input, 3 guard
exceeded, 4 invariant violation (a failed verify suite, or a
failed energy certificate in simulate).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import verify as verify_mod
from .dynamics import Rule, default_guard, limit_cycle
from .enumeration import (
    DEFAULT_GUARD_N,
    MAX_SCAN_N,
    census_to_dict,
    enumerate_limits,
)
from .errors import (
    InputError,
    InvariantViolationError,
    ResourceLimitError,
    ThresholdLabError,
)
from .expansions import (
    bipartite_expansion,
    integer_weights_to_unit,
    remove_constant_node,
    remove_self_loops,
    symmetric_expansion,
)
from .graph_core import (
    format_profile,
    instance_from_dict,
    instance_to_dict,
    parse_profile,
    types_to_thresholds,
)
from .instances import classify_family
from .reductions import (
    count_sat,
    fix_reduction,
    formula_from_dict,
    pred_reduction,
    reachable_pred_reduction,
    recover_sat_count,
    CPRED_DISCREPANCY_NOTE,
)
from .enumeration import count_fixed_points_backtracking, is_reachable
from .resilience import (
    greedy_upper_bound_q,
    resilience_bruteforce,
    resilience_closed_form,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GUARD = 3
EXIT_INVARIANT = 4


def _default_guard_n() -> int:
    env = os.environ.get("THRESHOLD_LAB_GUARD_N")
    if not env:
        return DEFAULT_GUARD_N
    try:
        return int(env)
    except ValueError:
        raise InputError(f"THRESHOLD_LAB_GUARD_N must be an integer, got {env!r}") from None


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _frac(f: Fraction) -> list[int]:
    return [f.numerator, f.denominator]


def _load_instance(path: str):
    """(Graph, thresholds) from an instance file of either format, with
    types converted to thresholds."""
    with open(path, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    g, vec = instance_from_dict(d)
    if g.weights is None and "thresholds" not in d:
        return g, types_to_thresholds(g, vec)
    return g, vec


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_simulate(args) -> int:
    if args.max_states is not None and args.max_states < 1:
        raise InputError(f"--max-states must be >= 1, got {args.max_states}")
    g, k = _load_instance(args.input)
    rule = Rule.from_graph(g, k)
    a = parse_profile(args.initial, g.n)
    report = limit_cycle(rule, a, args.max_states or default_guard(g))
    _emit(
        {
            "transient": report.transient,
            "cycle": [format_profile(s, g.n) for s in report.cycle],
            "cycle_length": len(report.cycle),
            "trajectory_length": report.trajectory_length,
        }
    )
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    g, k = _load_instance(args.input)
    census = enumerate_limits(g, k, guard_n=args.guard_n, witnesses=False)
    _emit(census_to_dict(census, g.n))
    return EXIT_OK


def _cmd_expand(args) -> int:
    g, k = _load_instance(args.input)
    if args.kind == "bipartite":
        res = bipartite_expansion(g, k)
    elif args.kind == "symmetric":
        res = symmetric_expansion(g, k)
    elif args.kind == "unit-weights":
        res = integer_weights_to_unit(g, k)
    elif args.kind == "drop-self-loops":
        res = remove_self_loops(g, k)
    elif args.kind == "remove-node":
        if args.node is None or args.pin is None:
            raise InputError("--kind remove-node needs --node and --pin")
        comps = remove_constant_node(g, k, args.node, args.pin)
        _emit(
            {
                "components": [
                    dict(instance_to_dict(c.graph, c.thresholds), nodes=list(c.nodes))
                    for c in comps
                ]
            }
        )
        return EXIT_OK
    else:
        raise InputError(f"unknown expansion kind {args.kind!r}")
    _emit(res.to_dict())
    return EXIT_OK


def _cmd_reduce(args) -> int:
    with open(args.formula, "r", encoding="utf-8") as fh:
        f = formula_from_dict(json.load(fh))
    if args.kind == "fix":
        gadget = fix_reduction(f)
        out = instance_to_dict(gadget.graph, gadget.thresholds)
        out["labels"] = list(gadget.labels)
        if args.verify:
            fcount = count_fixed_points_backtracking(gadget.graph, gadget.thresholds)
            sat, nsat = recover_sat_count(fcount, f.num_vars)
            oracle = count_sat(f)
            out["verification"] = {
                "fixed_points": fcount,
                "recovered_sat": sat,
                "recovered_nsat": nsat,
                "oracle_sat": oracle,
                "match": sat == oracle,
            }
    elif args.kind == "pred":
        gadget = pred_reduction(f)
        out = instance_to_dict(gadget.graph, gadget.thresholds)
        out["labels"] = list(gadget.labels)
        out["target"] = format_profile(gadget.target, gadget.graph.n)
        if args.verify:
            reach = is_reachable(
                gadget.graph, gadget.thresholds, gadget.target, guard_n=args.guard_n
            )
            # brute-force satisfiability oracle
            sat = count_sat(f) > 0
            out["verification"] = {"reachable": reach, "satisfiable": sat, "match": reach == sat}
    elif args.kind == "reachable-pred":
        gadget = reachable_pred_reduction(f, measure=args.verify, guard_n=args.guard_n)
        out = instance_to_dict(gadget.graph, gadget.thresholds)
        out["labels"] = list(gadget.labels)
        out["target"] = format_profile(gadget.target, gadget.graph.n)
        out["claimed_predecessors"] = gadget.claimed_count
        if args.verify:
            out["measured_predecessors"] = gadget.measured_count
            if gadget.measured_count != gadget.claimed_count:
                out["discrepancy"] = CPRED_DISCREPANCY_NOTE
    else:
        raise InputError(f"unknown reduction kind {args.kind!r}")
    _emit(out)
    return EXIT_OK


def _cmd_resilience(args) -> int:
    g, _k = _load_instance(args.input)
    if args.K is None:
        raise InputError("resilience needs --K")
    if args.mode == "brute":
        res = resilience_bruteforce(g, args.K)
        _emit(
            {
                "mode": "brute",
                "mu": _frac(res.mu),
                "witness_q": [_frac(x) for x in res.witness_q],
                "evaluations": res.evaluations,
            }
        )
    elif args.mode == "greedy":
        q = greedy_upper_bound_q(g)
        _emit(
            {
                "mode": "greedy",
                "q": [_frac(x) for x in q],
                "l1": _frac(sum(q, Fraction(0))),
            }
        )
    elif args.mode == "closed-form":
        family = classify_family(g)
        if family is None:
            raise InputError("closed-form mode needs a star, path, cycle, or complete graph")
        mu = resilience_closed_form(family, g.n, args.K)
        _emit({"mode": "closed-form", "family": family, "mu": _frac(mu)})
    else:
        raise InputError(f"unknown resilience mode {args.mode!r}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = verify_mod.run_all(seed=args.seed, guard_n=args.guard_n)
    failures = 0
    for name, ok, detail in results:
        line = f"{'PASS' if ok else 'FAIL'}  {name}"
        if detail and not ok:
            line += f"  ({detail})"
        print(line)
        failures += 0 if ok else 1
    print(f"{len(results) - failures}/{len(results)} invariant suites passed")
    return EXIT_OK if failures == 0 else EXIT_INVARIANT


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threshold-lab",
        description="Deterministic binary linear-threshold dynamics on finite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_guard_n(p):
        p.add_argument("--guard-n", type=int, default=None,
                       help=f"max node count for 2^n scans (default: $THRESHOLD_LAB_GUARD_N "
                            f"or {DEFAULT_GUARD_N}; never above {MAX_SCAN_N})")

    p = sub.add_parser("simulate", help="iterate an instance to its limit cycle")
    p.add_argument("--input", required=True, help="instance JSON path")
    p.add_argument("--initial", required=True, help="initial profile as a B/W string")
    p.add_argument("--max-states", type=int, default=None,
                   help="trajectory guard override")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("enumerate", help="census of fixed points and 2-cycles")
    p.add_argument("--input", required=True)
    add_guard_n(p)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("expand", help="apply a structure-preserving transform")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--kind",
        required=True,
        choices=["bipartite", "symmetric", "unit-weights", "drop-self-loops", "remove-node"],
    )
    p.add_argument("--node", type=int, default=None, help="node to remove (remove-node)")
    p.add_argument("--pin", choices=["B", "W"], default=None,
                   help="action the removed node is pinned to (remove-node)")
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("reduce", help="build a formula gadget instance")
    p.add_argument("--formula", required=True, help="formula JSON path")
    p.add_argument("--kind", required=True, choices=["fix", "pred", "reachable-pred"])
    p.add_argument("--verify", action="store_true",
                   help="cross-check the gadget against brute-force oracles")
    add_guard_n(p)
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("resilience", help="resilience measure of an instance")
    p.add_argument("--input", required=True)
    p.add_argument("--K", type=int, default=None, help="perturbation budget")
    p.add_argument("--mode", default="brute", choices=["brute", "greedy", "closed-form"])
    p.set_defaults(fn=_cmd_resilience)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    add_guard_n(p)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "guard_n" in args:
            if args.guard_n is None:
                args.guard_n = _default_guard_n()
            if args.guard_n <= 0:
                raise InputError(f"--guard-n must be positive, got {args.guard_n}")
        return args.fn(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except InvariantViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (InputError, ThresholdLabError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
