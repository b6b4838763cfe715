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
)

ACTION_B = "B"
ACTION_W = "W"


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..n-1.

    ``edges`` is the canonical sorted list of pairs (i, j) with i < j,
    ``adjacency`` holds sorted neighbor tuples, and ``neighbor_masks[i]``
    is the bitmask of node i's neighborhood for popcount-style counting.
    Instances are immutable and safe to share across workers.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]
    neighbor_masks: tuple[int, ...]
    degrees: tuple[int, ...]

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, i: int) -> int:
        return self.degrees[i]


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
    edge_list: Iterable[Sequence[int]],
    *,
    require_connected: bool = True,
) -> Graph:
    """Validate and build a Graph from an edge list.

    Rejects self-loops, duplicate edges, out-of-range endpoints, and
    (unless ``require_connected=False``, used by expansion transforms
    whose doubling constructions may legitimately split in two)
    disconnected graphs.
    """
    if n < 1:
        raise BadParameterError(f"node count must be positive, got {n}")
    seen = set()
    canon = []
    for pair in edge_list:
        i, j = pair
        if not (0 <= i < n) or not (0 <= j < n):
            raise NodeOutOfRangeError(f"edge ({i},{j}) references a node outside 0..{n - 1}")
        if i == j:
            raise SelfLoopError(f"self-loop at node {i}")
        e = (i, j) if i < j else (j, i)
        if e in seen:
            raise DuplicateEdgeError(f"duplicate edge ({e[0]},{e[1]})")
        seen.add(e)
        canon.append(e)
    canon.sort()
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
    return Graph(n=n, edges=tuple(canon), adjacency=adjacency, neighbor_masks=masks, degrees=degrees)


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


def is_connected(g: Graph) -> bool:
    return _first_unreached(g.n, g.adjacency) is None


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


def validate_thresholds(g: Graph, k: Sequence[int]) -> tuple[int, ...]:
    """Return k as a tuple of ints, checking length and non-negativity.

    Values 0 and > d_i are allowed; they mark non-valid nodes pinned to
    one action.
    """
    k = tuple(as_int(x, "threshold") for x in k)
    if len(k) != g.n:
        raise LengthMismatchError(f"threshold vector has length {len(k)}, expected {g.n}")
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
    a = int(a)
    if not 0 <= a < (1 << n):
        raise LengthMismatchError(f"profile {a} does not fit in {n} bits")
    return a


def popcount(a: int) -> int:
    return a.bit_count()


# ---------------------------------------------------------------------------
# Instance JSON format
#
# Unweighted: {"n": int, "edges": [[i, j], ...],
#              "thresholds": [int, ...] | "types": [[num, den], ...]}
# Weighted:   {"n": int, "weighted_edges": [[i, j, w], ...],
#              "self_loops": [[i, w], ...], "thresholds": [int, ...]}


def instance_to_dict(g: Graph, k: Sequence[int] | None = None, q: Sequence | None = None) -> dict:
    d: dict = {"n": g.n, "edges": [list(e) for e in g.edges]}
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
    """Decode an instance dict.

    Returns (Graph, thresholds) or (Graph, types) for the primary model;
    weighted instances are decoded by dynamics.weighted_graph_from_dict.
    n, edge endpoints and thresholds must be JSON integers: floats,
    booleans and strings are rejected, never coerced.
    """
    try:
        n = d["n"]
        edges = d["edges"]
    except (KeyError, TypeError) as exc:
        raise BadParameterError(f"malformed instance: {exc}") from exc
    if type(n) is not int:
        raise BadParameterError(f"n must be an integer, got {n!r}")
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
