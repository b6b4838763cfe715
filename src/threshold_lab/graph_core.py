"""Graphs, thresholds, types, profiles, and the instance JSON format.

Action profiles are plain ints: bit ``i`` set means node ``i`` plays B,
clear means W. The textual form is a string of 'B'/'W' characters indexed
by node id, so ``"BWB"`` is the profile with nodes 0 and 2 playing B.
Profiles compare and sort by their integer value.

Every instance is a graph with integer thresholds k. Types (fractions
of neighbors) are exact ``fractions.Fraction`` values in [0, 1], never
floats, and become thresholds once, through ``types_to_thresholds``:
threshold boundaries depend on deciding ``q_i * d_i`` equalities exactly.

The unit-weight step (node i plays B iff at least k_i neighbors played
B) lives here as ``make_step``, with its unchecked form
``_bitcount_step``, and so does the transient envelope
``convergence_time_bound`` and the trajectory guard ``default_guard``
built on it: the census, the resilience search and ``simulate`` all use
them, and only ``simulate`` needs the trajectory engine of ``dynamics``.
"""

from __future__ import annotations

import json
import operator
from collections import defaultdict, deque
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import BadParameterError, NotBipartiteError

ACTION_B = "B"
ACTION_W = "W"

StepMap = Callable[[int], int]


class _GraphFields(NamedTuple):
    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]
    degrees: tuple[int, ...]
    weights: tuple[int, ...] | None = None
    loops: tuple[tuple[int, int], ...] = ()


class Graph(_GraphFields):
    """Undirected graph on nodes 0..n-1, unweighted or integer-weighted.

    ``edges`` is the canonical sorted list of pairs (i, j) with i < j,
    ``adjacency`` holds sorted neighbor tuples, and ``neighbor_masks[i]``
    is the bitmask of node i's neighborhood for bit-count updates,
    computed on first use (n masks of n bits each).
    ``weights`` is None for an unweighted graph; otherwise it holds the
    nonzero integer weight of each edge, aligned with ``edges``, and
    ``loops`` the (node, nonzero weight) self-loops sorted by node.
    Thresholds are not part of the graph. Instances are immutable and
    equal when their fields are.

    No ``__slots__``: ``neighbor_masks`` is cached in the instance
    ``__dict__``, which ``cached_property`` writes directly, past
    ``__setattr__``.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: Graph is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: Graph is immutable")

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        return tuple(sum(1 << j for j in nbrs) for nbrs in self.adjacency)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def weighted_edges(self) -> list[tuple[int, int, int]]:
        """(i, j, w) per edge; w is 1 throughout on an unweighted graph."""
        if self.weights is None:
            return [(i, j, 1) for i, j in self.edges]
        return [(i, j, w) for (i, j), w in zip(self.edges, self.weights)]


class TwoPartition(NamedTuple):
    """Bipartition of a graph's nodes: no edge runs inside either part.

    ``p_even`` holds the nodes at even BFS distance from the smallest
    node of their component (so it contains node 0) and ``p_odd`` the
    rest; both are sorted tuples.
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

    This is the one place that checks a graph's numbers: each must be an
    integer (see ``as_int``), checked once, row by row. The graph is
    weighted when ``weighted`` is set, a row carries a weight or a
    self-loop is given; a pair row then has weight 1. Rejects rows of the
    wrong width, zero weights, self-loops among the edges, duplicate
    edges or loops, out-of-range nodes, and (unless
    ``require_connected=False``, used by expansion transforms whose
    doubling constructions may legitimately split in two) disconnected
    graphs.

    Nothing is allocated per node before the distinct edges number at
    least n - 1: fewer cannot connect n nodes, so connectivity is then
    refused on neighbor lists of the nodes on some edge only, and a huge
    n with few rows costs time and memory linear in the rows.
    """
    n = as_int(n, "node count")
    if n < 1:
        raise BadParameterError(f"node count must be positive, got {n}")
    weight_of: dict[tuple[int, int], int] = {}
    for row in as_iter(edges, "edges"):
        fields = row if type(row) is list or type(row) is tuple else _as_list(row)
        if len(fields) == 2:
            i, j = fields
            w = 1
        elif len(fields) == 3:
            i, j, w = fields
            weighted = True
        else:
            raise BadParameterError(f"edge row {row!r} must have 2 or 3 entries")
        if type(i) is not int:
            i = as_int(i, "edge endpoint")
        if type(j) is not int:
            j = as_int(j, "edge endpoint")
        if type(w) is not int:
            w = as_int(w, "edge weight")
        if not (0 <= i < n and 0 <= j < n):
            raise BadParameterError(f"edge ({i},{j}) references a node outside 0..{n - 1}")
        if i == j:
            raise BadParameterError(f"self-loop at node {i}: self-loops go in the loops argument")
        if w == 0:
            raise BadParameterError(f"edge ({i},{j}) has zero weight")
        e = (i, j) if i < j else (j, i)
        if e in weight_of:
            raise BadParameterError(f"duplicate edge ({e[0]},{e[1]})")
        weight_of[e] = w
    loop_of: dict[int, int] = {}
    for row in as_iter(loops, "loops"):
        fields = row if type(row) is list or type(row) is tuple else _as_list(row)
        if len(fields) != 2:
            raise BadParameterError(f"self-loop row {row!r} must have 2 entries")
        i, w = fields
        i = as_int(i, "self-loop node")
        w = as_int(w, "self-loop weight")
        weighted = True
        if not 0 <= i < n:
            raise BadParameterError(f"self-loop at node {i} outside 0..{n - 1}")
        if w == 0:
            raise BadParameterError(f"self-loop at node {i} has zero weight")
        if i in loop_of:
            raise BadParameterError(f"duplicate self-loop at node {i}")
        loop_of[i] = w
    canon = sorted(weight_of)
    if require_connected and len(canon) < n - 1:
        # disconnected for certain: _check_connected raises on these
        nbrs, seen = defaultdict(list), defaultdict(int)
    else:
        nbrs, seen = [[] for _ in range(n)], bytearray(n)
    # canon is sorted, so every neighbor list is built in ascending order
    for i, j in canon:
        nbrs[i].append(j)
        nbrs[j].append(i)
    if require_connected:
        _check_connected(n, nbrs, seen)
    adjacency = tuple(map(tuple, nbrs))
    return Graph(
        n=n,
        edges=tuple(canon),
        adjacency=adjacency,
        degrees=tuple(map(len, adjacency)),
        weights=tuple(map(weight_of.__getitem__, canon)) if weighted else None,
        loops=tuple(sorted(loop_of.items())),
    )


def _as_list(row) -> list:
    """row as a list, empty if row is not iterable."""
    try:
        return list(row)
    except TypeError:
        return []


def reach(nbrs, start: int, seen) -> list[int]:
    """The nodes that start reaches through nodes not marked in seen,
    start first, in breadth-first order; marks each in seen.
    ``nbrs[u]`` is node u's neighbor list and ``seen[u]`` is 0 for an
    unmarked u: lists and a bytearray, or defaultdicts, which keep work
    and memory linear in the nodes reached and their edges."""
    seen[start] = 1
    queue = [start]
    for u in queue:
        for v in nbrs[u]:
            if not seen[v]:
                seen[v] = 1
                queue.append(v)
    return queue


def induced_subgraph(g: Graph, nodes: Sequence[int]) -> Graph:
    """The subgraph of the unweighted g on ``nodes``, which must be
    connected in it; node j of the subgraph is nodes[j]."""
    index = {old: new for new, old in enumerate(nodes)}
    adjacency = g.adjacency
    return build_graph(len(nodes), [(index[u], index[v]) for u in nodes
                                    for v in adjacency[u] if u < v and v in index])


def _check_connected(n: int, nbrs, seen) -> None:
    """Raise BadParameterError naming the smallest node that node 0 does
    not reach; ``nbrs`` and the all-0 ``seen`` are as ``reach`` takes them."""
    reached = len(reach(nbrs, 0, seen))
    if reached < n:
        # the smallest unreached node is at most reached
        unreached = next(v for v in range(n) if not seen[v])
        raise BadParameterError(f"graph is not connected: node {unreached} unreachable from node 0")


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


def as_node(g: Graph, i) -> int:
    """i as a node id of g: an integer, as ``as_int`` takes it, in 0..n-1."""
    i = as_int(i, "node")
    if not 0 <= i < g.n:
        raise BadParameterError(f"node {i} outside 0..{g.n - 1}")
    return i


def as_iter(values, what: str):
    """An iterator over values, which must be iterable."""
    try:
        return iter(values)
    except TypeError:
        raise BadParameterError(f"{what} must be iterable, got {values!r}") from None


def require_unweighted(g: Graph) -> None:
    """Reject a weighted graph where only the unit-weight rule is defined."""
    if g.weights is not None:
        raise BadParameterError("this needs an unweighted instance, not a weighted one")


def as_thresholds(g: Graph, k: Sequence[int]) -> tuple[int, ...]:
    """k as a tuple of g.n ints: non-negative on an unweighted g, of any
    sign on a weighted one. Values 0 and > d_i are allowed; they mark
    non-valid nodes pinned to one action."""
    k = tuple(as_iter(k, "threshold vector"))
    if not {int}.issuperset(map(type, k)):
        k = tuple(as_int(x, "threshold") for x in k)
    if len(k) != g.n:
        raise BadParameterError(f"threshold vector has length {len(k)}, expected {g.n}")
    if g.weights is None and min(k, default=0) < 0:
        i = next(i for i, ki in enumerate(k) if ki < 0)
        raise BadParameterError(f"threshold k_{i} = {k[i]} is negative")
    return k


def validate_thresholds(g: Graph, k: Sequence[int]) -> tuple[int, ...]:
    """k as thresholds of the unit-weight rule, which needs an unweighted g."""
    require_unweighted(g)
    return as_thresholds(g, k)


def validate_types(g: Graph, q: Iterable) -> tuple[Fraction, ...]:
    """q as exact Fractions in [0, 1], one per node of the unweighted g.

    Accepts Fraction, int, or (numerator, denominator) pairs of ints.
    Floats are rejected: they cannot represent type boundaries exactly.
    Bools, strings and other non-int parts are rejected, never coerced.
    The range is checked on numerator and denominator, in integers.
    """
    from fractions import Fraction

    require_unweighted(g)
    out = []
    made: dict[tuple[int, int], Fraction] = {}  # one Fraction per distinct pair
    for v in as_iter(q, "type vector"):
        if (isinstance(v, (list, tuple)) and len(v) == 2
                and type(v[0]) is type(v[1]) is int and v[1]):
            key = (v[0], v[1])
            f = made.get(key)
            if f is not None:  # checked when it was made
                out.append(f)
                continue
            f = made[key] = Fraction(*key)
        elif type(v) is int:
            f = Fraction(v)
        elif isinstance(v, Fraction):
            f = v
        elif isinstance(v, float):
            raise BadParameterError(f"type value {v!r} is a float; pass an exact rational")
        else:
            raise BadParameterError(
                f"type value {v!r} must be a Fraction, an int, or an integer pair "
                "(numerator, nonzero denominator)"
            )
        # a Fraction's denominator is positive
        if not 0 <= f.numerator <= f.denominator:
            raise BadParameterError(f"type value {f} outside [0, 1]")
        out.append(f)
    if len(out) != g.n:
        raise BadParameterError(f"type vector has length {len(out)}, expected {g.n}")
    return tuple(out)


def is_valid_node(g: Graph, k: Sequence[int], i: int) -> bool:
    """A node is valid iff 1 <= k_i <= d_i; otherwise its action is pinned."""
    k = validate_thresholds(g, k)
    i = as_node(g, i)
    return 1 <= k[i] <= g.degrees[i]


def two_partition(g: Graph) -> TwoPartition:
    """2-color g by breadth-first search, one search per component.

    Deterministic: each search starts at the smallest node not yet
    colored, and p_even is the set of nodes at even distance from the
    start of their component. Raises NotBipartiteError carrying an
    odd-cycle witness.
    """
    color = [-1] * g.n
    parent = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
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
    # u and v are adjacent with one color, so BFS put them at one depth:
    # walk both up in lockstep to their lowest common ancestor.
    path_u, path_v = [u], [v]
    while path_u[-1] != path_v[-1]:
        path_u.append(parent[path_u[-1]])
        path_v.append(parent[path_v[-1]])
    cycle = path_u + path_v[-2::-1]
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


def cross_edges(g: Graph) -> list[tuple[int, int]]:
    """The edges of the bipartite double cover of g, on originals
    0..n-1 and mirrors n..2n-1: edge {i, j} of g as the two cross edges
    {i, n+j} and {j, n+i}."""
    n = g.n
    return [e for i, j in g.edges for e in ((i, n + j), (j, n + i))]


def types_to_thresholds(g: Graph, q: Sequence) -> tuple[int, ...]:
    """Convert fractional types to the equivalent integer thresholds.

    k_i = floor(q_i * d_i) + 1 is the least integer with
    (count >= k_i) <=> (count > q_i * d_i) for integer counts, so the
    strict type rule and the non-strict threshold rule trace identical
    dynamics. Computed exactly; a type of 1 yields k_i = d_i + 1, a
    non-valid node that always plays W.
    """
    q = validate_types(g, q)
    return tuple(f.numerator * d // f.denominator + 1 for f, d in zip(q, g.degrees))


# ---------------------------------------------------------------------------
# The unit-weight step and the transient envelope


def make_step(g: Graph, k: Sequence[int]) -> StepMap:
    """The unit-weight step map: out_i = B iff >= k_i neighbors of i play B."""
    return _bitcount_step(g, validate_thresholds(g, k))


def _bitcount_step(g: Graph, k: Sequence[int]) -> StepMap:
    """make_step without validation, for thresholds the caller built as
    non-negative ints of length g.n on an unweighted g."""
    masks, n = g.neighbor_masks, g.n

    def fn(a: int) -> int:
        out = 0
        for i in range(n):
            if (a & masks[i]).bit_count() >= k[i]:
                out |= 1 << i
        return out

    return fn


def convergence_time_bound(g: Graph) -> int:
    """Upper envelope 14|E| + 6n on the convergence time, from chaining
    the expansion edge counts (|E''| <= 2|E'| <= 2[|E| + 3(2|E| + n)])."""
    return 14 * g.num_edges + 6 * g.n


def default_guard(g: Graph) -> int:
    return 10 * convergence_time_bound(g) + 4


# ---------------------------------------------------------------------------
# Profiles


# B/W strings and binary digits, both in node order (node 0 first)
_TO_DIGITS = str.maketrans(ACTION_B + ACTION_W, "10")
_TO_ACTIONS = str.maketrans("10", ACTION_B + ACTION_W)


def parse_profile(text: str, n: int | None = None) -> int:
    """Parse a 'B'/'W' string into a profile int (bit i = node i)."""
    if n is not None and len(text) != n:
        raise BadParameterError(f"profile string has length {len(text)}, expected {n}")
    if text.count(ACTION_B) + text.count(ACTION_W) != len(text):
        i, ch = next((i, ch) for i, ch in enumerate(text) if ch not in (ACTION_B, ACTION_W))
        raise BadParameterError(f"profile character {ch!r} at position {i} is not 'B' or 'W'")
    return int(text[::-1].translate(_TO_DIGITS), 2) if text else 0


def format_profile(a: int, n: int) -> str:
    a = validate_profile(a, n)
    # a sentinel bit above node n - 1 pins the digit count at n
    return bin(a | 1 << n)[:2:-1].translate(_TO_ACTIONS)


def validate_profile(a: int, n: int) -> int:
    a = as_int(a, "profile")
    if not 0 <= a < (1 << n):
        raise BadParameterError(f"profile {a} does not fit in {n} bits")
    return a


# ---------------------------------------------------------------------------
# Instance JSON format
#
# Unweighted: {"n": int, "edges": [[i, j], ...],
#              "thresholds": [int, ...] | "types": [[num, den], ...]}
# Weighted:   {"n": int, "weighted_edges": [[i, j, w], ...],
#              "self_loops": [[i, w], ...], "thresholds": [int, ...]}
#
# Both decode to (Graph, thresholds); types become thresholds on the way.


def instance_to_dict(g: Graph, k: Sequence[int]) -> dict:
    """The JSON form of g with thresholds k; a weighted graph keeps the
    weighted format."""
    if g.weights is None:
        d: dict = {"n": g.n, "edges": [list(e) for e in g.edges]}
    else:
        d = {
            "n": g.n,
            "weighted_edges": [list(e) for e in g.weighted_edges()],
            "self_loops": [list(s) for s in g.loops],
        }
    d["thresholds"] = list(k)
    return d


def _list(values, what: str, width: int | None = None) -> list:
    """values, which must be a list, of length-``width`` lists if given."""
    if type(values) is not list:
        raise BadParameterError(f"{what} must be a list, got {values!r}")
    if width is not None:
        for r in values:
            if type(r) is not list or len(r) != width:
                raise BadParameterError(
                    f"each entry of {what} must be a list of {width} integers, got {r!r}"
                )
    return values


# keys the package writes beside an instance or a formula: expand's
# node_map, each remove-node component's nodes, and reduce's labels,
# target and checks
WRITTEN_KEYS = frozenset(("node_map", "nodes", "labels", "target", "verification",
                          "claimed_predecessors", "measured_predecessors", "discrepancy"))
_UNWEIGHTED_KEYS = WRITTEN_KEYS | {"n", "edges", "thresholds", "types"}
_WEIGHTED_KEYS = WRITTEN_KEYS | {"n", "weighted_edges", "self_loops", "thresholds"}
# pairs of keys the decoder would read one of, dropping the other
_RIVAL_KEYS = (("edges", "weighted_edges"), ("thresholds", "types"),
               ("weighted_edges", "types"), ("edges", "self_loops"))


def check_keys(d: dict, known: frozenset, what: str) -> None:
    """Reject the first key of d outside ``known``, naming it."""
    for key in d:
        if key not in known:
            raise BadParameterError(f"{what} has unknown key {key!r}")


def instance_from_dict(d: dict):
    """Decode an instance dict of either format to (Graph, thresholds).

    Types, given instead of thresholds on an unweighted instance, are
    converted by ``types_to_thresholds``. A weighted instance without a
    ``thresholds`` key gets all-zero thresholds. Each format reads its
    own keys only, and accepts the ``WRITTEN_KEYS`` beside them: a pair
    in ``_RIVAL_KEYS`` is rejected naming both keys, and any other key
    naming it. This checks the JSON shape only: keys, lists, and row
    widths per format (2 for ``edges`` and ``self_loops``, 3 for
    ``weighted_edges``). Each number is checked once, where it is taken:
    n, edges and self-loops in ``build_graph``, thresholds in
    ``as_thresholds`` and types in ``validate_types``. Floats, booleans
    and strings are rejected there, never coerced.
    """
    weighted = False
    if isinstance(d, dict):
        for a, b in _RIVAL_KEYS:
            if a in d and b in d:
                raise BadParameterError(f"instance has both {a!r} and {b!r}")
        weighted = "weighted_edges" in d
        check_keys(d, _WEIGHTED_KEYS if weighted else _UNWEIGHTED_KEYS, "instance")
    try:
        n = d["n"]
        edges = d["weighted_edges" if weighted else "edges"]
    except (KeyError, TypeError) as exc:
        raise BadParameterError(f"malformed instance: {exc}") from exc
    if weighted:
        edges = _list(edges, "weighted_edges", 3)
        loops = _list(d.get("self_loops", []), "self_loops", 2)
        g = build_graph(n, edges, loops, weighted=True)
        k = d["thresholds"] if "thresholds" in d else [0] * g.n
        return g, as_thresholds(g, _list(k, "thresholds"))
    g = build_graph(n, _list(edges, "edges", 2))
    if "thresholds" in d:
        return g, as_thresholds(g, _list(d["thresholds"], "thresholds"))
    if "types" in d:
        return g, types_to_thresholds(g, _list(d["types"], "types"))
    raise BadParameterError("instance has neither 'thresholds' nor 'types'")


def read_json(path: str):
    """The JSON value in the file at ``path``: every loader's decode-error
    policy. Text that is not JSON or UTF-8, or nests deeper than the
    decoder recurses, raises BadParameterError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise BadParameterError(f"cannot decode {path} as JSON: {exc}") from exc


def load_instance(path: str):
    return instance_from_dict(read_json(path))
