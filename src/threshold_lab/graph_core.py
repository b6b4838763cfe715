"""Graphs, thresholds, types, profiles, and the instance JSON format.

Action profiles are plain ints: bit ``i`` set means node ``i`` plays B,
clear means W. The textual form is a string of 'B'/'W' characters indexed
by node id, so ``"BWB"`` is the profile with nodes 0 and 2 playing B.
Profiles compare and sort by their integer value.

Types (fractions of neighbors) are ``fractions.Fraction`` values in
[0, 1] and are never stored as floats: threshold boundaries depend on
deciding ``q_i * d_i`` equalities exactly.
"""

from __future__ import annotations

import json
import operator
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    BadParameterError,
    DisconnectedError,
    DuplicateEdgeError,
    LengthMismatchError,
    NodeOutOfRangeError,
    NotBipartiteError,
    SelfLoopError,
    WeightOutOfRangeError,
)

ACTION_B = "B"
ACTION_W = "W"


@dataclass(frozen=True)
class Graph:
    """Undirected graph on nodes 0..n-1, unweighted or integer-weighted.

    ``edges`` is the canonical sorted list of pairs (i, j) with i < j,
    ``adjacency`` holds sorted neighbor tuples, and ``neighbor_masks[i]``
    is the bitmask of node i's neighborhood for bit-count updates.
    ``weights`` is None for an unweighted graph; otherwise it holds the
    nonzero integer weight of each edge, aligned with ``edges``, and
    ``loops`` the (node, nonzero weight) self-loops sorted by node.
    Thresholds are not part of the graph. Instances are immutable.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]
    neighbor_masks: tuple[int, ...]
    degrees: tuple[int, ...]
    weights: tuple[int, ...] | None = None
    loops: tuple[tuple[int, int], ...] = ()

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, i: int) -> int:
        return self.degrees[i]

    def weighted_edges(self) -> list[tuple[int, int, int]]:
        """(i, j, w) per edge; w is 1 throughout on an unweighted graph."""
        if self.weights is None:
            return [(i, j, 1) for i, j in self.edges]
        return [(i, j, w) for (i, j), w in zip(self.edges, self.weights)]


@dataclass(frozen=True)
class TwoPartition:
    """Bipartition of a graph's nodes: no edge runs inside either part.

    ``p_even`` holds the nodes at even BFS distance from node 0 (so it
    contains node 0) and ``p_odd`` the rest; both are sorted tuples.
    """

    p_odd: tuple[int, ...]
    p_even: tuple[int, ...]


def build_graph(
    n: int,
    edges: Iterable[Sequence[int]],
    loops: Iterable[Sequence[int]] = (),
    *,
    weighted: bool = False,
    require_connected: bool = True,
) -> Graph:
    """Validate and build a Graph from (i, j) or (i, j, w) edge rows and
    (i, w) self-loop rows.

    Every number must be an integer (see ``as_int``). The graph is
    weighted when ``weighted`` is set, a row carries a weight or a
    self-loop is given; a pair row then has weight 1. Rejects zero
    weights, self-loops among the edges, duplicate edges or loops,
    out-of-range nodes, and (unless ``require_connected=False``, used by
    expansion transforms whose doubling constructions may legitimately
    split in two) disconnected graphs.
    """
    n = as_int(n, "node count")
    if n < 1:
        raise BadParameterError(f"node count must be positive, got {n}")
    weight_of: dict[tuple[int, int], int] = {}
    for row in edges:
        fields = _fields(row, (2, 3), "edge row")
        i = as_int(fields[0], "edge endpoint")
        j = as_int(fields[1], "edge endpoint")
        w = 1
        if len(fields) == 3:
            w = as_int(fields[2], "edge weight")
            weighted = True
        if not (0 <= i < n) or not (0 <= j < n):
            raise NodeOutOfRangeError(f"edge ({i},{j}) references a node outside 0..{n - 1}")
        if i == j:
            raise SelfLoopError(f"self-loop at node {i}: self-loops go in the loops argument")
        if w == 0:
            raise WeightOutOfRangeError(f"edge ({i},{j}) has zero weight")
        e = (i, j) if i < j else (j, i)
        if e in weight_of:
            raise DuplicateEdgeError(f"duplicate edge ({e[0]},{e[1]})")
        weight_of[e] = w
    loop_of: dict[int, int] = {}
    for row in loops:
        i, w = _fields(row, (2,), "self-loop row")
        i = as_int(i, "self-loop node")
        w = as_int(w, "self-loop weight")
        weighted = True
        if not 0 <= i < n:
            raise NodeOutOfRangeError(f"self-loop at node {i} outside 0..{n - 1}")
        if w == 0:
            raise WeightOutOfRangeError(f"self-loop at node {i} has zero weight")
        if i in loop_of:
            raise DuplicateEdgeError(f"duplicate self-loop at node {i}")
        loop_of[i] = w
    canon = sorted(weight_of)
    adj = [[] for _ in range(n)]
    for i, j in canon:
        adj[i].append(j)
        adj[j].append(i)
    adjacency = tuple(tuple(sorted(a)) for a in adj)
    if require_connected:
        unreached = _first_unreached(n, adjacency)
        if unreached is not None:
            raise DisconnectedError(f"graph is not connected: node {unreached} unreachable from node 0")
    masks = tuple(sum(1 << j for j in nbrs) for nbrs in adjacency)
    degrees = tuple(len(nbrs) for nbrs in adjacency)
    return Graph(
        n=n,
        edges=tuple(canon),
        adjacency=adjacency,
        neighbor_masks=masks,
        degrees=degrees,
        weights=tuple(weight_of[e] for e in canon) if weighted else None,
        loops=tuple(sorted(loop_of.items())),
    )


def _fields(row, widths: tuple[int, ...], what: str) -> list:
    try:
        fields = list(row)
    except TypeError:
        fields = None
    if fields is None or len(fields) not in widths:
        raise BadParameterError(f"{what} {row!r} must have {' or '.join(map(str, widths))} entries")
    return fields


def _first_unreached(n: int, adjacency) -> int | None:
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if not seen[v]:
                seen[v] = True
                queue.append(v)
    for v in range(n):
        if not seen[v]:
            return v
    return None


def as_int(x, what: str) -> int:
    """x as an int, never coerced: bools, floats and strings are rejected,
    and any other value with ``__index__`` (a numpy integer, say) is
    accepted."""
    if type(x) is int:
        return x
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise BadParameterError(f"{what} must be an integer, got {x!r}")


def require_unweighted(g: Graph) -> None:
    """Reject a weighted graph where only the unit-weight rule is defined."""
    if g.weights is not None:
        raise BadParameterError("this needs an unweighted instance, not a weighted one")


def as_thresholds(g: Graph, k: Sequence[int]) -> tuple[int, ...]:
    """k as a tuple of g.n ints, of any sign."""
    k = tuple(as_int(x, "threshold") for x in k)
    if len(k) != g.n:
        raise LengthMismatchError(f"threshold vector has length {len(k)}, expected {g.n}")
    return k


def validate_thresholds(g: Graph, k: Sequence[int]) -> tuple[int, ...]:
    """Return k as a tuple of ints for the unit-weight rule on g, checking
    that g is unweighted, the length and non-negativity.

    Values 0 and > d_i are allowed; they mark non-valid nodes pinned to
    one action.
    """
    require_unweighted(g)
    k = as_thresholds(g, k)
    for i, ki in enumerate(k):
        if ki < 0:
            raise BadParameterError(f"threshold k_{i} = {ki} is negative")
    return k


def as_types(values: Iterable) -> tuple[Fraction, ...]:
    """Coerce an iterable of rationals into exact Fractions in [0, 1].

    Accepts Fraction, int, or (numerator, denominator) pairs of ints.
    Floats are rejected: they cannot represent type boundaries exactly.
    Bools, strings and other non-int parts are rejected, never coerced.
    """
    out = []
    for v in values:
        if isinstance(v, float):
            raise BadParameterError(f"type value {v!r} is a float; pass an exact rational")
        if isinstance(v, Fraction):
            f = v
        elif type(v) is int:
            f = Fraction(v)
        elif (
            isinstance(v, (list, tuple))
            and len(v) == 2
            and type(v[0]) is int
            and type(v[1]) is int
            and v[1] != 0
        ):
            f = Fraction(v[0], v[1])
        else:
            raise BadParameterError(
                f"type value {v!r} must be a Fraction, an int, or an integer pair "
                "(numerator, nonzero denominator)"
            )
        if not (0 <= f <= 1):
            raise BadParameterError(f"type value {f} outside [0, 1]")
        out.append(f)
    return tuple(out)


def validate_types(g: Graph, q: Sequence) -> tuple[Fraction, ...]:
    require_unweighted(g)
    q = as_types(q)
    if len(q) != g.n:
        raise LengthMismatchError(f"type vector has length {len(q)}, expected {g.n}")
    return q


def is_valid_node(g: Graph, k: Sequence[int], i: int) -> bool:
    """A node is valid iff 1 <= k_i <= d_i; otherwise its action is pinned."""
    if not (0 <= i < g.n):
        raise NodeOutOfRangeError(f"node {i} outside 0..{g.n - 1}")
    return 1 <= k[i] <= g.degrees[i]


def two_partition(g: Graph) -> TwoPartition:
    """2-color g by breadth-first search from node 0.

    Deterministic: p_even is the set of nodes at even distance from
    node 0. Raises NotBipartiteError carrying an odd-cycle witness.
    """
    color = [-1] * g.n
    parent = [-1] * g.n
    color[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            if color[v] == -1:
                color[v] = color[u] ^ 1
                parent[v] = u
                queue.append(v)
            elif color[v] == color[u]:
                witness = _odd_cycle_witness(parent, u, v)
                raise NotBipartiteError(
                    f"graph is not bipartite: odd cycle {witness}", witness=witness
                )
    p_even = tuple(i for i in range(g.n) if color[i] == 0)
    p_odd = tuple(i for i in range(g.n) if color[i] == 1)
    return TwoPartition(p_odd=p_odd, p_even=p_even)


def _odd_cycle_witness(parent, u, v) -> tuple[int, ...]:
    # Walk both endpoints up to their lowest common ancestor in the BFS tree.
    path_u, path_v = [u], [v]
    su, sv = {u}, {v}
    while True:
        if path_u[-1] in sv:
            meet = path_u[-1]
            break
        if path_v[-1] in su:
            meet = path_v[-1]
            break
        pu, pv = parent[path_u[-1]], parent[path_v[-1]]
        if pu != -1:
            path_u.append(pu)
            su.add(pu)
        if pv != -1:
            path_v.append(pv)
            sv.add(pv)
    cyc_u = path_u[: path_u.index(meet) + 1]
    cyc_v = path_v[: path_v.index(meet)]
    cycle = cyc_u + list(reversed(cyc_v))
    # Canonical rotation: smallest node first, smaller second element.
    m = cycle.index(min(cycle))
    cycle = cycle[m:] + cycle[:m]
    if len(cycle) > 2 and cycle[-1] < cycle[1]:
        cycle = [cycle[0]] + list(reversed(cycle[1:]))
    return tuple(cycle)


def is_bipartite(g: Graph) -> bool:
    try:
        two_partition(g)
        return True
    except NotBipartiteError:
        return False


def types_to_thresholds(g: Graph, q: Sequence) -> tuple[int, ...]:
    """Convert fractional types to the equivalent integer thresholds.

    k_i = floor(q_i * d_i) + 1 is the least integer with
    (count >= k_i) <=> (count > q_i * d_i) for integer counts, so the
    strict type rule and the non-strict threshold rule trace identical
    dynamics. Computed exactly; a type of 1 yields k_i = d_i + 1, a
    non-valid node that always plays W.
    """
    q = validate_types(g, q)
    return tuple(int(qi * g.degrees[i]) + 1 for i, qi in enumerate(q))


# ---------------------------------------------------------------------------
# Profiles


def parse_profile(text: str, n: int | None = None) -> int:
    """Parse a 'B'/'W' string into a profile int (bit i = node i)."""
    if n is not None and len(text) != n:
        raise LengthMismatchError(f"profile string has length {len(text)}, expected {n}")
    a = 0
    for i, ch in enumerate(text):
        if ch == ACTION_B:
            a |= 1 << i
        elif ch != ACTION_W:
            raise BadParameterError(f"profile character {ch!r} at position {i} is not 'B' or 'W'")
    return a


def format_profile(a: int, n: int) -> str:
    if not 0 <= a < (1 << n):
        raise LengthMismatchError(f"profile {a} does not fit in {n} bits")
    return "".join(ACTION_B if (a >> i) & 1 else ACTION_W for i in range(n))


def validate_profile(a: int, n: int) -> int:
    a = as_int(a, "profile")
    if not 0 <= a < (1 << n):
        raise LengthMismatchError(f"profile {a} does not fit in {n} bits")
    return a


# ---------------------------------------------------------------------------
# Instance JSON format
#
# Unweighted: {"n": int, "edges": [[i, j], ...],
#              "thresholds": [int, ...] | "types": [[num, den], ...]}
# Weighted:   {"n": int, "weighted_edges": [[i, j, w], ...],
#              "self_loops": [[i, w], ...], "thresholds": [int, ...]}


def instance_to_dict(g: Graph, k: Sequence[int] | None = None, q: Sequence | None = None) -> dict:
    """The JSON form of g with thresholds k or types q; a weighted graph
    keeps the weighted format."""
    if g.weights is None:
        d: dict = {"n": g.n, "edges": [list(e) for e in g.edges]}
    else:
        d = {
            "n": g.n,
            "weighted_edges": [list(e) for e in g.weighted_edges()],
            "self_loops": [list(s) for s in g.loops],
        }
    if k is not None:
        d["thresholds"] = list(k)
    if q is not None:
        d["types"] = [[f.numerator, f.denominator] for f in as_types(q)]
    return d


# Loaders use exact type checks: JSON true/false decode to bool, an int
# subclass, and a float or numeric string must not be truncated into range.


def check_int_list(values, what: str) -> None:
    """Reject anything but a list of JSON integers."""
    if not (type(values) is list and all(type(x) is int for x in values)):
        raise BadParameterError(f"{what} must be a list of integers, got {values!r}")


def check_int_rows(rows, width: int, what: str) -> None:
    """Reject anything but a list of length-``width`` lists of JSON integers."""
    if type(rows) is not list:
        raise BadParameterError(f"{what} must be a list, got {rows!r}")
    for r in rows:
        if not (type(r) is list and len(r) == width and all(type(x) is int for x in r)):
            raise BadParameterError(
                f"each entry of {what} must be a list of {width} integers, got {r!r}"
            )


def instance_from_dict(d: dict):
    """Decode an instance dict of either format.

    Returns (Graph, thresholds), or (Graph, types) for an unweighted
    instance with types and no thresholds. A weighted instance without
    thresholds gets all-zero ones. Every number must be a JSON integer:
    floats, booleans and strings are rejected, never coerced.
    """
    weighted = isinstance(d, dict) and "weighted_edges" in d
    try:
        n = d["n"]
        edges = d["weighted_edges" if weighted else "edges"]
    except (KeyError, TypeError) as exc:
        raise BadParameterError(f"malformed instance: {exc}") from exc
    if type(n) is not int:
        raise BadParameterError(f"n must be an integer, got {n!r}")
    if weighted:
        loops = d.get("self_loops", [])
        check_int_rows(edges, 3, "weighted_edges")
        check_int_rows(loops, 2, "self_loops")
        g = build_graph(n, edges, loops, weighted=True)
        k = d.get("thresholds")
        if k is None:
            k = [0] * n
        check_int_list(k, "thresholds")
        return g, as_thresholds(g, k)
    check_int_rows(edges, 2, "edges")
    g = build_graph(n, edges)
    if "thresholds" in d:
        k = d["thresholds"]
        check_int_list(k, "thresholds")
        return g, validate_thresholds(g, k)
    if "types" in d:
        return g, validate_types(g, d["types"])
    raise BadParameterError("instance has neither 'thresholds' nor 'types'")


def load_instance(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))
