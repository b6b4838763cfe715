"""Command-line entry point.

Subcommands: simulate, enumerate, expand, reduce, resilience, verify.
All output is canonical JSON (sorted keys, exact rationals as
[numerator, denominator]), so identical inputs and seeds produce
byte-identical results. Exit codes, one per class in ``errors``:

  0  success
  1  stdout closed by its reader (``threshold_lab.__main__.main``)
  2  invalid input (BadParameterError), a file that cannot be read, or
     an expansion whose output would not load (the doubling of a
     bipartite or loop-free instance is two copies of it)
  3  guard exceeded (GuardExceededError)
  4  invariant violation (InvariantViolationError): a failed verify
     suite, a failed energy certificate in simulate, the census checks
     in enumerate, a fixed-point count with no #sat preimage in
     reduce --kind fix --verify, or the greedy or exhausted-heap
     invariant of the resilience search

Start-up loads only what every subcommand shares: ``errors`` and
``graph_core``, with argparse and json. Each subcommand imports the rest
of what it runs:

  simulate     dynamics
  enumerate    enumeration
  expand       expansions, with the dynamics it builds on
  reduce       reductions, with the enumeration it builds on
  resilience   resilience
  verify       verify, which loads every module

No subcommand loads numpy, and ``fractions`` is loaded only to decode
a types file and by resilience. The names that dynamics, enumeration,
reductions and resilience export (the package table
``threshold_lab._EXPORTS``) are bound in this module when one of them
is first looked up here (PEP 562) or when its subcommand runs. Binding
never replaces a name already set, so a wrapper set on this module
beforehand is the function the subcommand calls: ``reduce`` looks its
builder and oracles up here when it runs. It checks the size of each
2^n scan before the build, writes the gadget's instance, labels and
target in one place, and then runs the checks of its kind.

``main`` serves in-process callers. A ``BrokenPipeError`` from writing
to a closed stdout passes through it, since the input was fine; the
process entry point, ``threshold_lab.__main__.main``, turns it into
exit 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import re
import sys

from . import _EXPORTS, _OWNER
from .errors import (
    DEFAULT_GUARD_N,
    MAX_SCAN_N,
    BadParameterError,
    GuardExceededError,
    InvariantViolationError,
    ThresholdLabError,
    check_scan_size,
)
from .graph_core import (
    default_guard,
    format_profile,
    instance_from_dict,
    instance_to_dict,
    parse_profile,
    read_json,
)

def _bind(*modules: str) -> None:
    """Import the modules and bind their exported names here, keeping
    any name already set."""
    scope = globals()
    for module in modules:
        mod = importlib.import_module(f"{__package__}.{module}")
        for name in _EXPORTS[module]:
            scope.setdefault(name, getattr(mod, name))


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module in ("dynamics", "enumeration", "reductions", "resilience"):
        _bind(module)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GUARD = 3
EXIT_INVARIANT = 4


def _is_decimal(text: str) -> bool:
    """An optional minus sign and ASCII digits only: int() would also
    read spaces, underscores, a plus sign and non-ASCII digits."""
    return re.fullmatch(r"-?[0-9]+", text) is not None


def _int_arg(text: str) -> int:
    if not _is_decimal(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _default_guard_n() -> int:
    env = os.environ.get("THRESHOLD_LAB_GUARD_N")
    if not env:
        return DEFAULT_GUARD_N
    if not _is_decimal(env):
        raise BadParameterError(f"THRESHOLD_LAB_GUARD_N must be an integer, got {env!r}")
    guard_n = int(env)
    if guard_n <= 0:
        raise BadParameterError(f"THRESHOLD_LAB_GUARD_N must be positive, got {guard_n}")
    return guard_n


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _frac(f) -> list[int]:
    """A Fraction as [numerator, denominator]."""
    return [f.numerator, f.denominator]


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_simulate(args) -> int:
    _bind("dynamics")
    if args.max_states is not None and args.max_states < 1:
        raise BadParameterError(f"--max-states must be >= 1, got {args.max_states}")
    g, k = instance_from_dict(read_json(args.input))
    rule = Rule.from_graph(g, k)
    text = args.initial
    if text.startswith("@"):
        # one argument holds at most 131,072 bytes (MAX_ARG_STRLEN)
        with open(text[1:], encoding="utf-8") as fh:
            text = fh.read().removesuffix("\n")
    a = parse_profile(text, g.n)
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
    _bind("enumeration")
    g, k = instance_from_dict(read_json(args.input))
    _emit(enumerate_limits(g, k, guard_n=args.guard_n)._asdict())
    return EXIT_OK


# expand --kind: the expansions function each kind runs, in the order
# --help lists the kinds
_EXPANSIONS = {
    "bipartite": "bipartite_expansion",
    "symmetric": "symmetric_expansion",
    "unit-weights": "integer_weights_to_unit",
    "drop-self-loops": "remove_self_loops",
    "remove-node": "remove_constant_node",
}


def _cmd_expand(args) -> int:
    from . import expansions

    if args.kind != "remove-node" and (args.node is not None or args.pin is not None):
        raise BadParameterError("--node and --pin apply only to --kind remove-node")
    g, k = instance_from_dict(read_json(args.input))
    transform = getattr(expansions, _EXPANSIONS[args.kind])
    if args.kind == "remove-node":
        if args.node is None or args.pin is None:
            raise BadParameterError("--kind remove-node needs --node and --pin")
        comps = transform(g, k, args.node, args.pin)
        _emit(
            {
                "components": [
                    dict(instance_to_dict(c.graph, c.thresholds), nodes=list(c.nodes))
                    for c in comps
                ]
            }
        )
        return EXIT_OK
    out = transform(g, k).to_dict()
    # the doubling of a bipartite or loop-free instance is two copies of
    # it, which an instance file cannot hold: every written file must load
    try:
        instance_from_dict(out)
    except BadParameterError as exc:
        raise BadParameterError(
            f"the {args.kind} expansion of this instance splits into two components ({exc})"
        ) from exc
    _emit(out)
    return EXIT_OK


def _cmd_reduce(args) -> int:
    _bind("enumeration", "reductions")
    f = formula_from_dict(read_json(args.formula))
    if args.kind == "fix":
        if args.verify and f.variant == MONOTONE_2DNF:
            # the model-count oracle below scans 2^num_vars; refuse it
            # before the build
            check_scan_size(f.num_vars, args.guard_n)
        gadget = fix_reduction(f)
    elif args.kind == "pred":
        if args.verify and f.variant == THREE_CNF:
            # the scan below needs the whole gadget; refuse it before the build
            check_scan_size(4 * f.num_vars + len(f.clauses) + 1, args.guard_n)
        gadget = pred_reduction(f)
    else:  # reachable-pred; argparse choices admit no other kind
        if f.variant == MONOTONE_2CNF:
            # the model count, and with --verify the scan of the whole
            # gadget, are refused before the build
            check_scan_size(f.num_vars, args.guard_n)
            if args.verify:
                check_scan_size(f.num_vars + len(f.clauses) + 1, args.guard_n)
        gadget = reachable_pred_reduction(f)
    g, k, target = gadget.graph, gadget.thresholds, gadget.target
    out = instance_to_dict(g, k)
    out["labels"] = list(gadget.labels)
    if target is not None:
        out["target"] = format_profile(target, g.n)
    if args.kind == "fix" and args.verify:
        fcount = count_fixed_points_backtracking(g, k)
        sat, nsat = recover_sat_count(fcount, f.num_vars)
        oracle = count_sat(f, guard_n=args.guard_n)
        out["verification"] = {
            "fixed_points": fcount,
            "recovered_sat": sat,
            "recovered_nsat": nsat,
            "oracle_sat": oracle,
            "match": sat == oracle,
        }
    elif args.kind == "pred" and args.verify:
        reach = is_reachable(g, k, target, guard_n=args.guard_n)
        # brute-force satisfiability oracle
        sat = count_sat(f, guard_n=args.guard_n) > 0
        out["verification"] = {"reachable": reach, "satisfiable": sat, "match": reach == sat}
    elif args.kind == "reachable-pred":
        claimed = out["claimed_predecessors"] = count_sat(f, guard_n=args.guard_n)
        if args.verify:
            measured = out["measured_predecessors"] = count_predecessors(
                g, k, target, guard_n=args.guard_n
            )
            if measured != claimed:
                out["discrepancy"] = CPRED_DISCREPANCY_NOTE
    _emit(out)
    return EXIT_OK


def _cmd_resilience(args) -> int:
    _bind("resilience")
    g, _k = instance_from_dict(read_json(args.input))
    if args.K is None:
        raise BadParameterError("resilience needs --K")
    if args.K < 1:
        raise BadParameterError(f"budget K must be >= 1, got {args.K}")
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
                "l1": _frac(sum(q)),
            }
        )
    else:  # closed-form; argparse choices admit no other mode
        from .resilience import classify_family

        family = classify_family(g)
        if family is None:
            raise BadParameterError("closed-form mode needs a star, path, cycle, or complete graph")
        mu = resilience_closed_form(family, g.n, args.K)
        _emit({"mode": "closed-form", "family": family, "mu": _frac(mu)})
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import run_all

    results = run_all(seed=args.seed)
    failures = 0
    for name, ok, detail in results:
        line = f"{'PASS' if ok else 'FAIL'}  {name}"
        if detail:
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
        p.add_argument("--guard-n", type=_int_arg, default=None,
                       help=f"max node count for 2^n scans (default: $THRESHOLD_LAB_GUARD_N "
                            f"or {DEFAULT_GUARD_N}; never above {MAX_SCAN_N})")

    p = sub.add_parser("simulate", help="iterate an instance to its limit cycle")
    p.add_argument("--input", required=True, help="instance JSON path")
    p.add_argument("--initial", required=True,
                   help="initial profile as a B/W string, or @PATH to read it from a file")
    p.add_argument("--max-states", type=_int_arg, default=None,
                   help="trajectory guard override")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("enumerate", help="census of fixed points and 2-cycles")
    p.add_argument("--input", required=True)
    add_guard_n(p)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("expand", help="apply a structure-preserving transform")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", required=True, choices=list(_EXPANSIONS))
    p.add_argument("--node", type=_int_arg, default=None, help="node to remove (remove-node)")
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
    p.add_argument("--K", type=_int_arg, default=None, help="perturbation budget")
    p.add_argument("--mode", default="brute", choices=["brute", "greedy", "closed-form"])
    p.set_defaults(fn=_cmd_resilience)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--seed", type=_int_arg, default=0, help="seed for randomized suites")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "guard_n" in args:
            if args.guard_n is None:
                args.guard_n = _default_guard_n()
            elif args.guard_n <= 0:
                raise BadParameterError(f"--guard-n must be positive, got {args.guard_n}")
        return args.fn(args)
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except InvariantViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except BrokenPipeError:
        raise  # stdout was closed: not an input error
    except (ThresholdLabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
