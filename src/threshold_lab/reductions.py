"""Boolean formulas, brute-force counting oracles, and gadget builders.

Three reductions map formulas to dynamics instances whose limit
structure encodes satisfying assignments:

  fix_reduction            monotone 2-DNF -> fixed-point counting
  pred_reduction           3-CNF -> reachability of a target profile
  reachable_pred_reduction monotone 2-CNF -> predecessor counting

Node ids are assigned in a documented, byte-reproducible order and each
builder returns a human-readable label per node. Literals are DIMACS
style: +-(variable index + 1), negation only in 3-CNF.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .enumeration import DEFAULT_GUARD_N, _chunks, check_scan_size, predecessors
from .errors import (
    BadParameterError,
    InconsistentCountError,
    VariableMissingError,
)
from .graph_core import Graph, build_graph, check_int_list

MONOTONE_2DNF = "monotone-2dnf"
THREE_CNF = "3cnf"
MONOTONE_2CNF = "monotone-2cnf"

_ARITY = {MONOTONE_2DNF: 2, THREE_CNF: 3, MONOTONE_2CNF: 2}


@dataclass(frozen=True)
class Formula:
    """A Boolean formula in one of the three reduction dialects.

    DNF formulas are disjunctions of conjunction clauses, CNF formulas
    conjunctions of disjunction clauses. Monotone variants carry no
    negations. For monotone 2-DNF every variable must appear somewhere
    (the counting reduction presumes it).
    """

    variant: str
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.variant not in _ARITY:
            raise BadParameterError(f"unknown formula variant {self.variant!r}")
        if self.num_vars < 1:
            raise BadParameterError("formula needs at least one variable")
        if not self.clauses:
            raise BadParameterError("formula needs at least one clause")
        arity = _ARITY[self.variant]
        seen_vars = set()
        for clause in self.clauses:
            if not clause:
                raise BadParameterError("empty clause")
            if len(clause) > arity:
                raise BadParameterError(
                    f"clause {clause} exceeds arity {arity} for {self.variant}"
                )
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise BadParameterError(f"literal {lit} out of range")
                if lit < 0 and self.variant != THREE_CNF:
                    raise BadParameterError(f"negative literal {lit} in monotone formula")
                seen_vars.add(abs(lit) - 1)
        if self.variant == MONOTONE_2DNF and len(seen_vars) != self.num_vars:
            missing = sorted(set(range(self.num_vars)) - seen_vars)
            raise VariableMissingError(
                f"variables {[v + 1 for v in missing]} never appear in the 2-DNF formula"
            )

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "n": self.num_vars,
            "clauses": [list(c) for c in self.clauses],
        }


def formula_from_dict(d: dict) -> Formula:
    """Decode a formula; n and every literal must be JSON integers."""
    try:
        variant, n, clauses = d["variant"], d["n"], d["clauses"]
    except (KeyError, TypeError) as exc:
        raise BadParameterError(f"malformed formula: {exc}") from exc
    if type(n) is not int:
        raise BadParameterError(f"n must be an integer, got {n!r}")
    if type(clauses) is not list:
        raise BadParameterError(f"clauses must be a list, got {clauses!r}")
    for c in clauses:
        check_int_list(c, "each clause")
    return Formula(
        variant=str(variant).lower(),
        num_vars=n,
        clauses=tuple(tuple(c) for c in clauses),
    )


def count_sat(f: Formula, *, guard_n: int = DEFAULT_GUARD_N) -> int:
    """Exact model count by scanning all 2^n assignments, one chunk of
    consecutive assignments at a time."""
    n = f.num_vars
    check_scan_size(n, guard_n)
    is_dnf = f.variant == MONOTONE_2DNF

    def clause_value(assigns, clause):
        lits = []
        for lit in clause:
            bit = ((assigns >> np.uint32(abs(lit) - 1)) & 1).astype(bool)
            lits.append(bit if lit > 0 else ~bit)
        acc = lits[0]
        for other in lits[1:]:
            acc = (acc & other) if is_dnf else (acc | other)
        return acc

    count = 0
    for lo, hi in _chunks(1 << n):
        assigns = np.arange(lo, hi, dtype=np.uint32)
        total = clause_value(assigns, f.clauses[0])
        for clause in f.clauses[1:]:
            cv = clause_value(assigns, clause)
            total = (total | cv) if is_dnf else (total & cv)
        count += int(np.count_nonzero(total))
    return count


# ---------------------------------------------------------------------------
# Fixed-point counting gadget (monotone 2-DNF)


@dataclass(frozen=True)
class GadgetInstance:
    graph: Graph
    thresholds: tuple[int, ...]
    labels: tuple[str, ...]


def fix_reduction(f: Formula) -> GadgetInstance:
    """Gadget whose fixed-point count F satisfies
    F = #sat + 8*(#nsat - 1) + 1 for a monotone 2-DNF formula.

    Node order (3 copies of everything, level l in {1,2,3}): s-triples
    per variable, then y/z triples per clause, then b triples per
    clause, then the three d nodes. Thresholds are 2 except at the d
    nodes, where they are 1. A single-literal clause x is treated as
    x AND x. The graph is connected and bipartite with parts {s, b} and
    {y, z, d}.
    """
    if f.variant != MONOTONE_2DNF:
        raise BadParameterError(f"fix_reduction needs a {MONOTONE_2DNF} formula")
    n, m = f.num_vars, len(f.clauses)
    # y_c/z_c: the clause's two variable occurrences (0-based)
    occ = []
    for clause in f.clauses:
        ys = [lit - 1 for lit in clause]
        if len(ys) == 1:
            ys = ys * 2
        occ.append((ys[0], ys[1]))

    def s_node(p, l):
        return 3 * p + l

    def y_node(c, l):
        return 3 * n + 6 * c + l

    def z_node(c, l):
        return 3 * n + 6 * c + 3 + l

    def b_node(c, l):
        return 3 * n + 6 * m + 3 * c + l

    def d_node(l):
        return 3 * n + 9 * m + l

    size = 3 * (n + 3 * m + 1)
    labels = [""] * size
    for p in range(n):
        for l in range(3):
            labels[s_node(p, l)] = f"s{l + 1}_x{p + 1}"
    for c in range(m):
        for l in range(3):
            labels[y_node(c, l)] = f"y{l + 1}_c{c + 1}"
            labels[z_node(c, l)] = f"z{l + 1}_c{c + 1}"
            labels[b_node(c, l)] = f"b{l + 1}_c{c + 1}"
    for l in range(3):
        labels[d_node(l)] = f"d{l + 1}"

    edges = []
    for c in range(m):
        yc, zc = occ[c]
        for l in range(3):
            edges.append((b_node(c, l), y_node(c, l)))
            edges.append((b_node(c, l), z_node(c, l)))
            edges.append((d_node(l), b_node(c, l)))
            for l2 in range(3):
                edges.append((s_node(yc, l), y_node(c, l2)))
                edges.append((s_node(zc, l), z_node(c, l2)))
    g = build_graph(size, edges)
    k = tuple(1 if v >= d_node(0) else 2 for v in range(size))
    return GadgetInstance(graph=g, thresholds=k, labels=tuple(labels))


def recover_sat_count(fixed_point_count: int, num_vars: int) -> tuple[int, int]:
    """Invert the fixed-point count back to (#sat, #nsat).

    Solves #sat + #nsat = 2^n and #sat + 8*(#nsat - 1) + 1 = F exactly;
    raises InconsistentCountError when no non-negative integer solution
    exists (which signals a gadget or counting bug).
    """
    total = 1 << num_vars
    numerator = fixed_point_count + 7 - total
    if numerator % 7 != 0:
        raise InconsistentCountError(
            f"F = {fixed_point_count} has no integral solution for n = {num_vars}"
        )
    nsat = numerator // 7
    sat = total - nsat
    if nsat < 0 or sat < 0:
        raise InconsistentCountError(
            f"F = {fixed_point_count} yields negative counts for n = {num_vars}"
        )
    return sat, nsat


# ---------------------------------------------------------------------------
# Reachability gadget (3-CNF)


@dataclass(frozen=True)
class PredGadget:
    graph: Graph
    thresholds: tuple[int, ...]
    target: int
    labels: tuple[str, ...]


def pred_reduction(f: Formula) -> PredGadget:
    """Instance whose target profile is reachable iff the 3-CNF formula
    is satisfiable.

    Nodes: v_p, v'_p, o_p, t_p per variable, s_c per clause, plus a hub
    u (ids in that order: v block, v' block, o block, t block, s block,
    u). Thresholds are 1 except 2 at each t_p; the target profile is B
    everywhere except W at each t_p. A predecessor must color exactly
    one of v_p / v'_p black, i.e. pick a truth value, and each s_c being
    B forces its clause to hold.
    """
    if f.variant != THREE_CNF:
        raise BadParameterError(f"pred_reduction needs a {THREE_CNF} formula")
    n, m = f.num_vars, len(f.clauses)
    v = lambda p: p
    v_neg = lambda p: n + p
    o = lambda p: 2 * n + p
    t = lambda p: 3 * n + p
    s = lambda c: 4 * n + c
    u = 4 * n + m
    size = 4 * n + m + 1
    labels = (
        [f"v_x{p + 1}" for p in range(n)]
        + [f"v'_x{p + 1}" for p in range(n)]
        + [f"o_x{p + 1}" for p in range(n)]
        + [f"t_x{p + 1}" for p in range(n)]
        + [f"s_c{c + 1}" for c in range(m)]
        + ["u"]
    )
    edges = []
    for p in range(n):
        edges += [(o(p), v(p)), (o(p), v_neg(p)), (t(p), v(p)), (t(p), v_neg(p))]
        edges += [(u, v(p)), (u, v_neg(p))]
    for c, clause in enumerate(f.clauses):
        for lit in set(clause):
            node = v(lit - 1) if lit > 0 else v_neg(-lit - 1)
            edges.append((s(c), node))
    g = build_graph(size, edges)
    k = tuple(2 if 3 * n <= node < 4 * n else 1 for node in range(size))
    target = sum(1 << node for node in range(size) if not 3 * n <= node < 4 * n)
    return PredGadget(graph=g, thresholds=k, target=target, labels=tuple(labels))


# ---------------------------------------------------------------------------
# Predecessor-counting gadget (monotone 2-CNF)

CPRED_DISCREPANCY_NOTE = (
    "measured predecessor count differs from the intended identity with "
    "#sat: the clause/hub coordinates of a predecessor are not forced to B, "
    "so the count factorizes as #sat times the number of hub colorings "
    "covering every variable node"
)


@dataclass(frozen=True)
class ReachablePredGadget:
    graph: Graph
    thresholds: tuple[int, ...]
    target: int
    labels: tuple[str, ...]
    claimed_count: int
    measured_count: int | None

    @property
    def matches_claim(self) -> bool | None:
        if self.measured_count is None:
            return None
        return self.measured_count == self.claimed_count


def reachable_pred_reduction(
    f: Formula, *, measure: bool = True, guard_n: int = DEFAULT_GUARD_N
) -> ReachablePredGadget:
    """Build the predecessor-counting gadget verbatim and measure it.

    Nodes v_p per variable, u_c per clause, and a hub d; u_c is adjacent
    to the variables of clause c and d to every v_p; all thresholds 1;
    target all-B (a fixed point, hence reachable). The construction is
    intended to have exactly #sat predecessors, but the measured count
    generally disagrees (e.g. 9 vs 3 on x1 OR x2), so both numbers are
    returned and never silently reconciled.
    """
    if f.variant != MONOTONE_2CNF:
        raise BadParameterError(f"reachable_pred_reduction needs a {MONOTONE_2CNF} formula")
    n, m = f.num_vars, len(f.clauses)
    size = n + m + 1
    d = n + m
    labels = (
        [f"v_x{p + 1}" for p in range(n)] + [f"u_c{c + 1}" for c in range(m)] + ["d"]
    )
    edges = []
    for c, clause in enumerate(f.clauses):
        for lit in set(clause):
            edges.append((n + c, lit - 1))
    for p in range(n):
        edges.append((d, p))
    g = build_graph(size, edges)
    k = (1,) * size
    target = (1 << size) - 1
    claimed = count_sat(f, guard_n=guard_n)
    measured = None
    if measure:
        measured = len(predecessors(g, k, target, guard_n=guard_n))
    return ReachablePredGadget(
        graph=g,
        thresholds=k,
        target=target,
        labels=tuple(labels),
        claimed_count=claimed,
        measured_count=measured,
    )
