"""Structure-preserving instance transforms with profile lifts.

Each transform produces a larger instance together with an injective
lift from source profiles to target profiles that commutes with the
respective step maps: lift(source_step(a)) == target_step(lift(a)).
commutation_check verifies that square on sample profiles.

Constructions favor transparency over size; outputs are not minimized.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .dynamics import StepMap, step_weighted
from .errors import BadParameterError, GuardExceededError
from .graph_core import (
    ACTION_B,
    ACTION_W,
    Graph,
    as_node,
    as_thresholds,
    build_graph,
    cross_edges,
    induced_subgraph,
    instance_to_dict,
    reach,
    validate_profile,
    validate_thresholds,
)

_MAX_SYMMETRIC_NODES = 100_000  # nodes of a symmetric expansion
_MAX_BLOWUP_NODES = 4096  # nodes of a unit-weight blowup


class ProfileLift(NamedTuple):
    """Injective map from source profiles to target profiles.

    ``ops[t] = (src, flip)``: target bit t is source bit src XOR flip.
    A constant reads bit ``source_n``, which is clear in every source
    profile, so the constant is flip. Closed under composition, which
    is all the constructions in this module need.
    """

    source_n: int
    target_n: int
    ops: tuple[tuple[int, int], ...]

    def apply(self, a: int) -> int:
        a = validate_profile(a, self.source_n)
        out = 0
        for t, (src, flip) in enumerate(self.ops):
            out |= ((a >> src & 1) ^ flip) << t
        return out

    __call__ = apply


def identity_lift(n: int) -> ProfileLift:
    return ProfileLift(n, n, tuple((i, 0) for i in range(n)))


def compose_lifts(outer: ProfileLift, inner: ProfileLift) -> ProfileLift:
    """Lift equal to outer(inner(a))."""
    if inner.target_n != outer.source_n:
        raise BadParameterError("lift composition size mismatch")
    # outer's constants read bit inner.target_n: map it to inner's constant 0
    inner_ops = inner.ops + ((inner.source_n, 0),)
    ops = []
    for src, flip in outer.ops:
        isrc, iflip = inner_ops[src]
        ops.append((isrc, flip ^ iflip))
    return ProfileLift(inner.source_n, outer.target_n, tuple(ops))


class ExpansionResult(NamedTuple):
    """Produced instance, profile lift, and per-node provenance.

    The instance is (graph, thresholds), stepped by the weighted rule:
    the threshold rule on an unweighted graph. node_map has one dict
    per target node describing where it came from (original, mirror,
    gadget role, or copy block).
    """

    graph: Graph
    thresholds: tuple[int, ...]
    lift: ProfileLift
    node_map: tuple[dict, ...]

    def target_step(self) -> StepMap:
        return lambda a: step_weighted(self.graph, self.thresholds, a)

    def to_dict(self) -> dict:
        d = instance_to_dict(self.graph, self.thresholds)
        d["node_map"] = list(self.node_map)
        return d


def commutation_check(
    source_step: StepMap,
    target_step: StepMap,
    lift: ProfileLift,
    profiles: Iterable[int],
) -> tuple[bool, int | None]:
    """True iff lift(source_step(a)) == target_step(lift(a)) on every
    sampled profile; otherwise False plus the first counterexample."""
    for a in profiles:
        if lift.apply(source_step(a)) != target_step(lift.apply(a)):
            return False, a
    return True, None


# ---------------------------------------------------------------------------
# Mirror doublings


def _doubled(
    n: int, edges: list, thresholds: tuple[int, ...], flip: int, *, weighted: bool = False
) -> ExpansionResult:
    """Instance on originals 0..n-1 and mirrors n..2n-1, n + i mirroring
    i. The lift copies every original and copies (flip 0) or negates
    (flip 1) it onto its mirror. Doublings may split in two, so the
    graph skips the connectivity check."""
    g2 = build_graph(2 * n, edges, weighted=weighted, require_connected=False)
    ops = tuple((i, 0) for i in range(n)) + tuple((i, flip) for i in range(n))
    node_map = tuple(
        [{"role": "original", "source": i} for i in range(n)]
        + [{"role": "mirror", "source": i} for i in range(n)]
    )
    return ExpansionResult(g2, thresholds, ProfileLift(n, 2 * n, ops), node_map)


def bipartite_expansion(g: Graph, k: Sequence[int]) -> ExpansionResult:
    """Double (g, k) into a bipartite instance on 2n nodes.

    Original i keeps its id; its mirror is n + i. Edge {i, j} becomes
    the two cross edges {i, n+j} and {j, n+i}; thresholds are duplicated
    on the mirror side. Lift: mirrors copy their originals. Applied
    uniformly to bipartite inputs as well, where the doubling splits
    into two components.
    """
    k = validate_thresholds(g, k)
    return _doubled(g.n, cross_edges(g), k + k, 0)


# ---------------------------------------------------------------------------
# Symmetric-expansion


def _eligible_pivots(g: Graph, k: tuple[int, ...]) -> list[int]:
    """Nodes that are not a majority vote: even degree, or a threshold
    other than (d_i + 1) / 2."""
    return [i for i, d in enumerate(g.degrees) if d % 2 == 0 or 2 * k[i] != d + 1]


def is_symmetric_model(g: Graph, k: Sequence[int]) -> bool:
    """True iff every node has odd degree and the majority threshold
    (d_i + 1) / 2, so the update is an unweighted majority vote."""
    return not _eligible_pivots(g, validate_thresholds(g, k))


def one_step_symmetric_expansion(
    g: Graph, k: Sequence[int], pivot: int | None = None
) -> ExpansionResult:
    """Attach d_p + 1 three-node Y gadgets to one pivot node, by default
    the lowest eligible one (see ``_attach_y_gadgets``)."""
    k = validate_thresholds(g, k)
    eligible = _eligible_pivots(g, k)
    if not eligible:
        raise BadParameterError("instance is already a symmetric model")
    pivot = eligible[0] if pivot is None else as_node(g, pivot)
    if pivot not in eligible:
        raise BadParameterError(f"node {pivot} is not an eligible pivot")
    return _attach_y_gadgets(g, k, [pivot])


def symmetric_expansion(g: Graph, k: Sequence[int]) -> ExpansionResult:
    """Iterate one-step expansions, pivot = lowest eligible node, until
    every node has odd degree and the majority threshold.

    Gadget nodes and expanded pivots are symmetric from the start, so
    the iteration expands the initially eligible pivots in increasing
    order; that is built in one pass. The result is unique up to
    isomorphism regardless of pivot order; the lowest-index rule makes
    the output canonical. Already-symmetric inputs come back unchanged
    with the identity lift.
    """
    k = validate_thresholds(g, k)
    pivots = _eligible_pivots(g, k)
    if not pivots:
        node_map = tuple({"role": "original", "source": i} for i in range(g.n))
        return ExpansionResult(graph=g, thresholds=k, lift=identity_lift(g.n), node_map=node_map)
    size = g.n + sum(3 * (g.degrees[p] + 1) for p in pivots)
    if size > _MAX_SYMMETRIC_NODES:
        raise GuardExceededError(f"symmetric expansion exceeded {_MAX_SYMMETRIC_NODES} nodes")
    return _attach_y_gadgets(g, k, pivots)


def _attach_y_gadgets(g: Graph, k: tuple[int, ...], pivots: list[int]) -> ExpansionResult:
    """Attach d_p + 1 three-node Y gadgets to each pivot p, in order.

    Each pivot's threshold becomes d_p + 1, half of its new odd degree
    2*d_p + 1 rounded up; Y centers get threshold 2 and leaves 1. The
    lift freezes min(k_p, d_p + 1) of p's gadget blocks at W and the
    remaining d_p - k_p + 1 at B, which replays the pivot's original
    rule. Gadgets hang off their pivot and join no two components, so a
    disconnected input (a doubling) gives a disconnected output.
    """
    n = g.n
    edges = list(g.edges)
    node_map = [{"role": "original", "source": i} for i in range(n)]
    ops = list(identity_lift(n).ops)
    k2 = list(k)
    for pivot in pivots:
        d = g.degrees[pivot]
        blocks = d + 1
        frozen_w = min(k[pivot], blocks)  # clamp: thresholds above d+1 act like d+1
        k2[pivot] = d + 1
        for m in range(blocks):
            center = len(k2)
            frozen = ACTION_W if m < frozen_w else ACTION_B
            bit = 0 if m < frozen_w else 1
            edges += [(pivot, center), (center, center + 1), (center, center + 2)]
            k2 += [2, 1, 1]
            for role in ("y_center", "y_leaf", "y_leaf"):
                node_map.append({"role": role, "pivot": pivot, "block": m, "frozen": frozen})
                ops.append((n, bit))
    g2 = build_graph(len(k2), edges, require_connected=False)
    return ExpansionResult(
        graph=g2,
        thresholds=tuple(k2),
        lift=ProfileLift(n, g2.n, tuple(ops)),
        node_map=tuple(node_map),
    )


# ---------------------------------------------------------------------------
# Inverted-rule simulation


def inverted_to_primary(g: Graph, k: Sequence[int]) -> ExpansionResult:
    """Primary instance on 2n nodes whose step map simulates the
    inverted rule of (g, k).

    Same doubled graph as bipartite_expansion; originals get threshold
    max(0, d_i - k_i + 1), mirrors keep k_i. Lift: copy originals,
    negate mirrors. One target step yields (inverted step of a, step of
    a on mirrors), which is exactly the lift of the inverted step.
    """
    k = validate_thresholds(g, k)
    k2 = tuple(max(0, d - ki + 1) for d, ki in zip(g.degrees, k)) + k
    return _doubled(g.n, cross_edges(g), k2, 1)


# ---------------------------------------------------------------------------
# Signed weights to the primary model


def signed_to_primary(g: Graph, k: Sequence[int]) -> ExpansionResult:
    """Simulate a +-1-weighted loop-free instance with an unweighted one.

    Positive edges are duplicated on both sides; negative edges become
    the two cross edges. Originals get threshold k_i + d_i^-, mirrors
    d_i^+ - k_i + 1; the lift copies originals and negates mirrors.
    Requires every node valid: -d_i^- <= k_i <= d_i^+.
    """
    k = as_thresholds(g, k)
    if g.loops:
        raise BadParameterError("signed simulation requires a loop-free instance")
    rows = g.weighted_edges()
    for i, j, wt in rows:
        if wt not in (-1, 1):
            raise BadParameterError(f"edge ({i},{j}) has weight {wt}, expected -1 or +1")
    n = g.n
    d_plus = [0] * n
    d_minus = [0] * n
    edges = []
    for i, j, wt in rows:
        if wt > 0:
            d_plus[i] += 1
            d_plus[j] += 1
            edges += [(i, j), (n + i, n + j)]
        else:
            d_minus[i] += 1
            d_minus[j] += 1
            edges += [(i, n + j), (j, n + i)]
    for i in range(n):
        if not (-d_minus[i] <= k[i] <= d_plus[i]):
            raise BadParameterError(
                f"node {i}: threshold {k[i]} outside [-d^-, d^+] = "
                f"[{-d_minus[i]}, {d_plus[i]}]"
            )
    k2 = tuple(k[i] + d_minus[i] for i in range(n)) + tuple(
        d_plus[i] - k[i] + 1 for i in range(n)
    )
    return _doubled(n, edges, k2, 1)


def _weighted_input(g: Graph, k: Sequence[int], what: str) -> tuple[int, ...]:
    if g.weights is None:
        raise BadParameterError(f"{what} needs a weighted instance")
    return as_thresholds(g, k)


# ---------------------------------------------------------------------------
# Integer weights to unit weights


def integer_weights_to_unit(g: Graph, k: Sequence[int]) -> ExpansionResult:
    """Blow a loop-free integer-weighted instance up to unit weights.

    With N = product of |w_e| over all edges, the target has N * n nodes
    in N blocks indexed by one coordinate per edge. A copy of node i is
    adjacent to exactly |w_ij| copies of each neighbor j (all values of
    the ij coordinate, other coordinates fixed), with the edge's sign.
    Every copy inherits its original's threshold, and the lift colors
    all copies of i like i.
    """
    k = _weighted_input(g, k, "the unit-weight blowup")
    if g.loops:
        raise BadParameterError("unit-weight blowup requires a loop-free instance")
    n = g.n
    rows = g.weighted_edges()
    radii = [abs(wt) for _, _, wt in rows]
    strides = list(accumulate(radii, mul, initial=1))  # products of the radii before each
    total_blocks = strides.pop()
    if total_blocks * n > _MAX_BLOWUP_NODES:
        raise GuardExceededError(
            f"blowup needs {total_blocks * n} nodes, guard is {_MAX_BLOWUP_NODES}"
        )
    edges2 = []
    for t, (i, j, wt) in enumerate(rows):
        r, stride = radii[t], strides[t]
        sign = 1 if wt > 0 else -1
        for beta in range(total_blocks):
            if (beta // stride) % r != 0:
                continue
            for m in range(r):
                for m2 in range(r):
                    u = (beta + m * stride) * n + i
                    v = (beta + m2 * stride) * n + j
                    edges2.append((u, v, sign))
    g2 = build_graph(total_blocks * n, edges2, weighted=True)
    ops = identity_lift(n).ops * total_blocks
    node_map = tuple(
        {"role": "copy", "source": i, "block": beta}
        for beta in range(total_blocks)
        for i in range(n)
    )
    return ExpansionResult(
        graph=g2,
        thresholds=k * total_blocks,
        lift=ProfileLift(n, total_blocks * n, ops),
        node_map=node_map,
    )


# ---------------------------------------------------------------------------
# Self-loop removal


def remove_self_loops(g: Graph, k: Sequence[int]) -> ExpansionResult:
    """Double a weighted instance into a loop-free one.

    Both sides carry copies of every non-loop edge; a self-loop of
    weight w_ii becomes the cross edge {i, n+i} with the same weight.
    Mirrors copy their originals under the lift. With no loops present
    this is a plain doubling into two mirrored copies.
    """
    k = _weighted_input(g, k, "self-loop removal")
    n = g.n
    edges = []
    for i, j, wt in g.weighted_edges():
        edges.append((i, j, wt))
        edges.append((n + i, n + j, wt))
    for i, lw in g.loops:
        edges.append((i, n + i, lw))
    return _doubled(n, edges, k * 2, 0, weighted=True)


# ---------------------------------------------------------------------------
# Constant-node removal


class ComponentInstance(NamedTuple):
    """One connected component of g minus a pinned node.

    ``nodes[new_id] = old_id`` records the relabeling back into g.
    """

    graph: Graph
    thresholds: tuple[int, ...]
    nodes: tuple[int, ...]


def remove_constant_node(
    g: Graph, k: Sequence[int], i: int, c
) -> tuple[ComponentInstance, ...]:
    """Delete node i, pinning its action at c for its neighbors.

    Neighbor thresholds drop by one (floored at zero) iff c is B; the
    dynamics on each returned component equal the original dynamics
    restricted to that component with node i frozen at c.
    """
    k = validate_thresholds(g, k)
    i = as_node(g, i)
    if type(c) not in (str, int) or c not in (ACTION_B, ACTION_W, 1, 0):
        raise BadParameterError(f"action {c!r} is not 'B', 'W', 1 or 0")
    drop = set(g.adjacency[i]) if c in (ACTION_B, 1) else set()  # thresholds one lower
    seen = bytearray(g.n)
    seen[i] = 1
    components = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = sorted(reach(g.adjacency, start, seen))
        sub_k = tuple(max(k[old] - 1, 0) if old in drop else k[old] for old in comp)
        components.append(ComponentInstance(induced_subgraph(g, comp), sub_k, tuple(comp)))
    return tuple(components)


# ---------------------------------------------------------------------------
# Isomorphism of (graph, thresholds) instances


def instances_isomorphic(
    g1: Graph, k1: Sequence[int], g2: Graph, k2: Sequence[int]
) -> bool:
    """Threshold-preserving isomorphism of two unweighted instances.

    Color refinement runs on the disjoint union (g2's nodes shifted by
    n) from the thresholds as colors. While a cell holds more than one
    node per side, its first side-1 node x is individualized against one
    side-2 node y of each twin class in the cell, depth first on an
    explicit stack. Twins have the same open or the same closed
    neighborhood, and swapping two is an automorphism that keeps every
    color, so x's whole twin class in the cell goes against y's, paired
    in node order. An equitable partition with one node per side in
    every cell is an isomorphism, as no edge crosses the sides.
    """
    k1, k2 = validate_thresholds(g1, k1), validate_thresholds(g2, k2)
    n = g1.n
    if n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    adj = g1.adjacency + tuple(tuple(v + n for v in nbrs) for nbrs in g2.adjacency)
    # twin class key: the open neighborhood if another node shares it,
    # else the closed one. No node has twins of both kinds, and no open
    # key equals a closed key; the sides share only the empty open key,
    # and the search compares keys within one side.
    opened = [frozenset(nbrs) for nbrs in adj]
    shared = Counter(opened)
    twin = [s if shared[s] > 1 else s | {v} for v, s in enumerate(opened)]
    stack = [(list(k1 + k2), ())]  # (colors, (x, y) pairs that get new cells)
    while stack:
        colors, pairs = stack.pop()
        colors = colors.copy()
        for c, (x, y) in enumerate(pairs, 2 * n):
            colors[x] = colors[y] = c
        colors = _refine(adj, colors, n)
        if colors is None:
            continue
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        cell = next((c for c in cells.values() if len(c) > 2), None)
        if cell is None:
            return True
        # a cell lists its side-1 nodes, then as many side-2 nodes
        half = len(cell) // 2
        xs = [v for v in cell[:half] if twin[v] == twin[cell[0]]]
        classes: dict[frozenset, list[int]] = {}
        for y in cell[half:]:
            classes.setdefault(twin[y], []).append(y)
        stack += [(colors, tuple(zip(xs, ys)))
                  for ys in reversed(classes.values()) if len(ys) == len(xs)]
    return False


def _refine(adj: tuple[tuple[int, ...], ...], colors: list[int], n: int) -> list[int] | None:
    """The coarsest equitable partition finer than colors, or None if the
    sides count some color differently. Each round renames every node by
    the rank of its color and its neighbors' sorted colors: below 2n, and
    alike on both sides."""
    while True:
        sigs = [(colors[v], tuple(sorted([colors[u] for u in nbrs])))
                for v, nbrs in enumerate(adj)]
        rank = {s: r for r, s in enumerate(sorted(set(sigs)))}
        split = len(rank) > len(set(colors))
        colors = [rank[s] for s in sigs]
        if not split:  # a color counted unequally splits into one that still is
            return colors if sorted(colors[:n]) == sorted(colors[n:]) else None
