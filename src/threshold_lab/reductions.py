"""Boolean formulas, brute-force counting oracles, and gadget builders.

Three reductions map formulas to dynamics instances whose limit
structure encodes satisfying assignments:

  fix_reduction            monotone 2-DNF -> fixed-point counting
  pred_reduction           3-CNF -> reachability of a target profile
  reachable_pred_reduction monotone 2-CNF -> predecessor counting

Each builder hands out node ids as it labels the nodes (``_take``), so
ids follow the documented, byte-reproducible label order. A builder
only builds and returns one ``GadgetInstance`` with a human-readable
label per node; the oracles that check a gadget are run by its callers.
The fixed-point gadget grows with the formula's text, as a 2-DNF
formula uses every variable; the reachability and predecessor gadgets
grow with the declared variable count, so each is refused past
``_MAX_PRED_NODES`` nodes before any node is built. Literals are
DIMACS style: +-(variable index + 1), negation only in 3-CNF.
``count_sat`` counts on Python-int truth tables and never loads numpy.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, NamedTuple

from .errors import (
    DEFAULT_GUARD_N,
    BadParameterError,
    GuardExceededError,
    InvariantViolationError,
    check_scan_size,
)
from .graph_core import WRITTEN_KEYS, Graph, as_int, build_graph, check_keys

MONOTONE_2DNF = "monotone-2dnf"
THREE_CNF = "3cnf"
MONOTONE_2CNF = "monotone-2cnf"

_ARITY = {MONOTONE_2DNF: 2, THREE_CNF: 3, MONOTONE_2CNF: 2}
# nodes of a reachability or predecessor gadget: their 4n + m + 1 and
# n + m + 1 nodes grow with a declared n that no clause needs to use
_MAX_PRED_NODES = 100_000
_NAMED_UNSEEN = 10  # unused variables named in the 2-DNF error


class _FormulaFields(NamedTuple):
    variant: str
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]


class Formula(_FormulaFields):
    """A Boolean formula in one of the three reduction dialects.

    DNF formulas are disjunctions of conjunction clauses, CNF formulas
    conjunctions of disjunction clauses. Monotone variants carry no
    negations. For monotone 2-DNF every variable must appear somewhere
    (the counting reduction presumes it). Construction validates all
    of this and the shapes (a string variant, clauses a list or tuple of
    lists or tuples), and takes every number through ``as_int``.
    """

    __slots__ = ()

    def __new__(cls, variant: str, num_vars: int, clauses: tuple[tuple[int, ...], ...]):
        if type(variant) is not str:
            raise BadParameterError(f"formula variant must be a string, got {variant!r}")
        if type(clauses) not in (list, tuple):
            raise BadParameterError(f"clauses must be a list, got {clauses!r}")
        for c in clauses:
            if type(c) not in (list, tuple):
                raise BadParameterError(f"each clause must be a list of integers, got {c!r}")
        if variant not in _ARITY:
            raise BadParameterError(f"unknown formula variant {variant!r}")
        num_vars = as_int(num_vars, "variable count")
        if num_vars < 1:
            raise BadParameterError("formula needs at least one variable")
        if not clauses:
            raise BadParameterError("formula needs at least one clause")
        arity = _ARITY[variant]
        seen_vars = set()
        clauses = tuple(tuple(as_int(lit, "literal") for lit in clause) for clause in clauses)
        for clause in clauses:
            if not clause:
                raise BadParameterError("empty clause")
            if len(clause) > arity:
                raise BadParameterError(f"clause {clause} exceeds arity {arity} for {variant}")
            for lit in clause:
                if lit == 0 or abs(lit) > num_vars:
                    raise BadParameterError(f"literal {lit} out of range")
                if lit < 0 and variant != THREE_CNF:
                    raise BadParameterError(f"negative literal {lit} in monotone formula")
                seen_vars.add(abs(lit) - 1)
        if variant == MONOTONE_2DNF and len(seen_vars) != num_vars:
            # name the first few: the declared count can dwarf the file
            unseen = (v + 1 for v in range(num_vars) if v not in seen_vars)
            named = list(islice(unseen, _NAMED_UNSEEN))
            more = num_vars - len(seen_vars) - len(named)
            raise BadParameterError(
                f"variables {named}{f' and {more} more' if more else ''} never appear in the "
                "2-DNF formula"
            )
        return super().__new__(cls, variant, num_vars, clauses)

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "n": self.num_vars,
            "clauses": [list(c) for c in self.clauses],
        }


_FORMULA_KEYS = WRITTEN_KEYS | {"variant", "n", "clauses"}


def formula_from_dict(d: dict) -> Formula:
    """Decode a formula. This checks the keys only; ``Formula`` checks
    the variant, which is not case-folded, the clause shapes and every
    number."""
    try:
        variant, n, clauses = d["variant"], d["n"], d["clauses"]
    except (KeyError, TypeError) as exc:
        raise BadParameterError(f"malformed formula: {exc}") from exc
    check_keys(d, _FORMULA_KEYS, "formula")
    return Formula(variant, n, clauses)


def count_sat(f: Formula, *, guard_n: int = DEFAULT_GUARD_N) -> int:
    """Exact model count over all 2^n assignments, on bit-sliced truth
    tables.

    Assignments run in the blocks of ``enumeration.column_blocks``, with
    variable j as column j. Clauses combine columns with & and |,
    negation is ^ full, and each block's models are counted with
    int.bit_count.
    """
    from .enumeration import column_blocks  # not loaded to decode a formula

    n = f.num_vars
    check_scan_size(n, guard_n)
    is_dnf = f.variant == MONOTONE_2DNF
    count = 0
    for _, full, cols in column_blocks(n):
        total = 0 if is_dnf else full
        for clause in f.clauses:
            acc = full if is_dnf else 0
            for lit in clause:
                col = cols[lit - 1] if lit > 0 else cols[-lit - 1] ^ full
                acc = (acc & col) if is_dnf else (acc | col)
            total = (total | acc) if is_dnf else (total & acc)
        count += total.bit_count()
    return count


def _take(labels: list[str], names: Iterable[str]) -> range:
    """The next node ids, one per name, labelled as they are handed out."""
    first = len(labels)
    labels.extend(names)
    return range(first, len(labels))


class GadgetInstance(NamedTuple):
    """What every builder returns: the instance, a label per node, and
    the target profile of the reachability and predecessor gadgets
    (None for the fixed-point gadget)."""

    graph: Graph
    thresholds: tuple[int, ...]
    labels: tuple[str, ...]
    target: int | None = None


# ---------------------------------------------------------------------------
# Fixed-point counting gadget (monotone 2-DNF)


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
    labels: list[str] = []

    def triple(name: str, owner: str = "") -> range:
        return _take(labels, (f"{name}{l}{owner}" for l in (1, 2, 3)))

    s = [triple("s", f"_x{p + 1}") for p in range(f.num_vars)]
    yz = [(triple("y", f"_c{c}"), triple("z", f"_c{c}")) for c in range(1, len(f.clauses) + 1)]
    b = [triple("b", f"_c{c}") for c in range(1, len(f.clauses) + 1)]
    d = triple("d")
    edges = []
    for clause, (y, z), bc in zip(f.clauses, yz, b):
        # y and z read the clause's two variables; a single x reads twice
        sy, sz = s[clause[0] - 1], s[clause[-1] - 1]
        for l in range(3):
            edges += [(bc[l], y[l]), (bc[l], z[l]), (d[l], bc[l])]
            edges += [(sy[l], v) for v in y] + [(sz[l], v) for v in z]
    g = build_graph(len(labels), edges)
    k = (2,) * d.start + (1, 1, 1)
    return GadgetInstance(graph=g, thresholds=k, labels=tuple(labels))


def recover_sat_count(fixed_point_count: int, num_vars: int) -> tuple[int, int]:
    """Invert the fixed-point count back to (#sat, #nsat).

    Solves #sat + #nsat = 2^n and #sat + 8*(#nsat - 1) + 1 = F exactly;
    raises InvariantViolationError when no non-negative integer solution
    exists (which signals a gadget or counting bug).
    """
    total = 1 << num_vars
    numerator = fixed_point_count + 7 - total
    if numerator % 7 != 0:
        raise InvariantViolationError(
            f"F = {fixed_point_count} has no integral solution for n = {num_vars}"
        )
    nsat = numerator // 7
    sat = total - nsat
    if nsat < 0 or sat < 0:
        raise InvariantViolationError(
            f"F = {fixed_point_count} yields negative counts for n = {num_vars}"
        )
    return sat, nsat


# ---------------------------------------------------------------------------
# Reachability gadget (3-CNF)


def pred_reduction(f: Formula) -> GadgetInstance:
    """Instance whose target profile is reachable iff the 3-CNF formula
    is satisfiable.

    Nodes: v_p, v'_p, o_p, t_p per variable, s_c per clause, plus a hub
    u (ids in that order: v block, v' block, o block, t block, s block,
    u). Thresholds are 1 except 2 at each t_p; the target profile is B
    everywhere except W at each t_p. A predecessor must color exactly
    one of v_p / v'_p black, i.e. pick a truth value, and each s_c being
    B forces its clause to hold. A gadget past ``_MAX_PRED_NODES`` nodes
    raises GuardExceededError before any node is built.
    """
    if f.variant != THREE_CNF:
        raise BadParameterError(f"pred_reduction needs a {THREE_CNF} formula")
    n = f.num_vars
    size = 4 * n + len(f.clauses) + 1
    if size > _MAX_PRED_NODES:
        raise GuardExceededError(f"pred gadget needs {size} nodes, guard is {_MAX_PRED_NODES}")
    labels: list[str] = []
    v = _take(labels, (f"v_x{p + 1}" for p in range(n)))
    v_neg = _take(labels, (f"v'_x{p + 1}" for p in range(n)))
    o = _take(labels, (f"o_x{p + 1}" for p in range(n)))
    t = _take(labels, (f"t_x{p + 1}" for p in range(n)))
    s = _take(labels, (f"s_c{c + 1}" for c in range(len(f.clauses))))
    (u,) = _take(labels, ["u"])
    edges = []
    for p in range(n):
        edges += [(o[p], v[p]), (o[p], v_neg[p]), (t[p], v[p]), (t[p], v_neg[p])]
        edges += [(u, v[p]), (u, v_neg[p])]
    for c, clause in enumerate(f.clauses):
        for lit in set(clause):
            edges.append((s[c], v[lit - 1] if lit > 0 else v_neg[-lit - 1]))
    g = build_graph(size, edges)
    k = (1,) * t.start + (2,) * n + (1,) * (size - t.stop)
    target = ((1 << size) - 1) ^ (((1 << n) - 1) << t.start)
    return GadgetInstance(g, k, tuple(labels), target=target)


# ---------------------------------------------------------------------------
# Predecessor-counting gadget (monotone 2-CNF)

CPRED_DISCREPANCY_NOTE = (
    "measured predecessor count differs from the intended identity with "
    "#sat: the clause/hub coordinates of a predecessor are not forced to B, "
    "so the count factorizes as #sat times the number of hub colorings "
    "covering every variable node"
)


def reachable_pred_reduction(f: Formula) -> GadgetInstance:
    """Build the predecessor-counting gadget verbatim.

    Nodes v_p per variable, u_c per clause, and a hub d; u_c is adjacent
    to the variables of clause c and d to every v_p; all thresholds 1;
    target all-B (a fixed point, hence reachable). The construction is
    intended to have exactly #sat predecessors (``count_sat``), but the
    count that ``enumeration.count_predecessors`` measures generally
    disagrees (e.g. 9 vs 3 on x1 OR x2); callers report both numbers
    and never silently reconcile them. A gadget past ``_MAX_PRED_NODES``
    nodes raises GuardExceededError before any node is built.
    """
    if f.variant != MONOTONE_2CNF:
        raise BadParameterError(f"reachable_pred_reduction needs a {MONOTONE_2CNF} formula")
    size = f.num_vars + len(f.clauses) + 1
    if size > _MAX_PRED_NODES:
        raise GuardExceededError(
            f"reachable-pred gadget needs {size} nodes, guard is {_MAX_PRED_NODES}"
        )
    labels: list[str] = []
    v = _take(labels, (f"v_x{p + 1}" for p in range(f.num_vars)))
    u = _take(labels, (f"u_c{c + 1}" for c in range(len(f.clauses))))
    (d,) = _take(labels, ["d"])
    edges = []
    for c, clause in enumerate(f.clauses):
        for lit in set(clause):
            edges.append((u[c], v[lit - 1]))
    for p in v:
        edges.append((d, p))
    g = build_graph(size, edges)
    return GadgetInstance(g, (1,) * size, tuple(labels), target=(1 << size) - 1)
