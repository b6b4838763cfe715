"""Structure-preserving instance transforms with profile lifts.

Each transform produces a larger instance together with an injective
lift from source profiles to target profiles that commutes with the
respective step maps: lift(source_step(a)) == target_step(lift(a)).
commutation_check verifies that square on sample profiles.

Constructions favor transparency over size; outputs are not minimized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .dynamics import StepMap, make_step, step_weighted
from .errors import (
    AlreadySymmetricError,
    BadParameterError,
    GuardExceededError,
    NodeOutOfRangeError,
    ValidityViolatedError,
    WeightOutOfRangeError,
)
from .graph_core import (
    ACTION_B,
    ACTION_W,
    Graph,
    as_thresholds,
    build_graph,
    instance_to_dict,
    validate_profile,
    validate_thresholds,
)

_COPY = "copy"
_NEGATE = "negate"
_CONST = "const"


@dataclass(frozen=True)
class ProfileLift:
    """Injective map from source profiles to target profiles.

    Per-target-node instructions: ("copy", src), ("negate", src), or
    ("const", bit). Closed under composition, which is all the
    constructions in this module need.
    """

    source_n: int
    target_n: int
    ops: tuple[tuple[str, int], ...]

    def apply(self, a: int) -> int:
        a = validate_profile(a, self.source_n)
        out = 0
        for t, (op, arg) in enumerate(self.ops):
            if op == _COPY:
                bit = (a >> arg) & 1
            elif op == _NEGATE:
                bit = 1 ^ ((a >> arg) & 1)
            else:
                bit = arg
            out |= bit << t
        return out

    __call__ = apply


def identity_lift(n: int) -> ProfileLift:
    return ProfileLift(n, n, tuple((_COPY, i) for i in range(n)))


def compose_lifts(outer: ProfileLift, inner: ProfileLift) -> ProfileLift:
    """Lift equal to outer(inner(a))."""
    if inner.target_n != outer.source_n:
        raise BadParameterError("lift composition size mismatch")
    ops = []
    for op, arg in outer.ops:
        if op == _CONST:
            ops.append((op, arg))
        elif op == _COPY:
            ops.append(inner.ops[arg])
        else:
            iop, iarg = inner.ops[arg]
            if iop == _COPY:
                ops.append((_NEGATE, iarg))
            elif iop == _NEGATE:
                ops.append((_COPY, iarg))
            else:
                ops.append((_CONST, 1 ^ iarg))
    return ProfileLift(inner.source_n, outer.target_n, tuple(ops))


@dataclass(frozen=True)
class ExpansionResult:
    """Produced instance, profile lift, and per-node provenance.

    The instance is (graph, thresholds); a weighted graph is stepped by
    the weighted rule. node_map has one dict per target node describing
    where it came from (original, mirror, gadget role, or copy block).
    """

    graph: Graph
    thresholds: tuple[int, ...]
    lift: ProfileLift
    node_map: tuple[dict, ...]

    def target_step(self) -> StepMap:
        if self.graph.weights is None:
            return make_step(self.graph, self.thresholds)
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
# Bipartite-expansion


def bipartite_expansion(g: Graph, k: Sequence[int]) -> ExpansionResult:
    """Double (g, k) into a bipartite instance on 2n nodes.

    Original i keeps its id; its mirror is n + i. Edge {i, j} becomes
    the two cross edges {i, n+j} and {j, n+i}; thresholds are duplicated
    on the mirror side. Lift: mirrors copy their originals. Applied
    uniformly to bipartite inputs as well, where the doubling splits
    into two components.
    """
    k = validate_thresholds(g, k)
    n = g.n
    edges = []
    for i, j in g.edges:
        edges.append((i, n + j))
        edges.append((j, n + i))
    g2 = build_graph(2 * n, edges, require_connected=False)
    k2 = k + k
    lift = ProfileLift(n, 2 * n, tuple((_COPY, i) for i in range(n)) * 2)
    node_map = tuple(
        [{"role": "original", "source": i} for i in range(n)]
        + [{"role": "mirror", "source": i} for i in range(n)]
    )
    return ExpansionResult(graph=g2, thresholds=k2, lift=lift, node_map=node_map)


# ---------------------------------------------------------------------------
# Symmetric-expansion


def is_symmetric_model(g: Graph, k: Sequence[int]) -> bool:
    """True iff every node has odd degree and the majority threshold
    (d_i + 1) / 2, so the update is an unweighted majority vote."""
    k = validate_thresholds(g, k)
    return all(d % 2 == 1 and 2 * k[i] == d + 1 for i, d in enumerate(g.degrees))


def _eligible_pivots(g: Graph, k: Sequence[int]) -> list[int]:
    out = []
    for i, d in enumerate(g.degrees):
        if d % 2 == 0 or 2 * k[i] != d + 1:
            out.append(i)
    return out


def one_step_symmetric_expansion(
    g: Graph, k: Sequence[int], pivot: int | None = None
) -> ExpansionResult:
    """Attach d_p + 1 three-node Y gadgets to one pivot node.

    The pivot's threshold becomes d_p + 1, half of its new odd degree
    2*d_p + 1 rounded up; Y centers get threshold 2 and leaves 1. The
    lift freezes min(k_p, d_p + 1) gadget blocks at W and the remaining
    d_p - k_p + 1 at B, which replays the pivot's original rule.
    """
    k = validate_thresholds(g, k)
    if is_symmetric_model(g, k):
        raise AlreadySymmetricError("instance is already a symmetric model")
    eligible = _eligible_pivots(g, k)
    if pivot is None:
        pivot = eligible[0]
    elif pivot not in eligible:
        raise BadParameterError(f"node {pivot} is not an eligible pivot")
    n, d = g.n, g.degrees[pivot]
    blocks = d + 1
    frozen_w = min(k[pivot], blocks)  # clamp: thresholds above d+1 act like d+1
    edges = list(g.edges)
    node_map = [{"role": "original", "source": i} for i in range(n)]
    ops = [(_COPY, i) for i in range(n)]
    k2 = list(k)
    k2[pivot] = d + 1
    for m in range(blocks):
        center = n + 3 * m
        frozen = ACTION_W if m < frozen_w else ACTION_B
        bit = 0 if m < frozen_w else 1
        edges += [(pivot, center), (center, center + 1), (center, center + 2)]
        k2 += [2, 1, 1]
        for role in ("y_center", "y_leaf", "y_leaf"):
            node_map.append({"role": role, "pivot": pivot, "block": m, "frozen": frozen})
            ops.append((_CONST, bit))
    g2 = build_graph(n + 3 * blocks, edges)
    lift = ProfileLift(n, g2.n, tuple(ops))
    return ExpansionResult(
        graph=g2, thresholds=tuple(k2), lift=lift, node_map=tuple(node_map)
    )


def symmetric_expansion(
    g: Graph, k: Sequence[int], *, max_nodes: int = 100_000
) -> ExpansionResult:
    """Iterate one-step expansions, pivot = lowest eligible node, until
    every node has odd degree and the majority threshold.

    The result is unique up to isomorphism regardless of pivot order;
    the lowest-index rule makes the output canonical. Already-symmetric
    inputs come back unchanged with the identity lift.
    """
    k = validate_thresholds(g, k)
    cur_g, cur_k = g, k
    lift = identity_lift(g.n)
    node_map = [{"role": "original", "source": i} for i in range(g.n)]
    while not is_symmetric_model(cur_g, cur_k):
        step_res = one_step_symmetric_expansion(cur_g, cur_k)
        if step_res.graph.n > max_nodes:
            raise GuardExceededError(
                f"symmetric expansion exceeded {max_nodes} nodes"
            )
        lift = compose_lifts(step_res.lift, lift)
        node_map = [
            node_map[entry["source"]] if entry["role"] == "original" else entry
            for entry in step_res.node_map
        ]
        cur_g, cur_k = step_res.graph, step_res.thresholds
    return ExpansionResult(
        graph=cur_g, thresholds=cur_k, lift=lift, node_map=tuple(node_map)
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
    base = bipartite_expansion(g, k)
    n = g.n
    k2 = tuple(max(0, g.degrees[i] - k[i] + 1) for i in range(n)) + k
    ops = tuple((_COPY, i) for i in range(n)) + tuple((_NEGATE, i) for i in range(n))
    return ExpansionResult(
        graph=base.graph,
        thresholds=k2,
        lift=ProfileLift(n, 2 * n, ops),
        node_map=base.node_map,
    )


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
            raise WeightOutOfRangeError(f"edge ({i},{j}) has weight {wt}, expected -1 or +1")
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
            raise ValidityViolatedError(
                f"node {i}: threshold {k[i]} outside [-d^-, d^+] = "
                f"[{-d_minus[i]}, {d_plus[i]}]"
            )
    g2 = build_graph(2 * n, edges, require_connected=False)
    k2 = tuple(k[i] + d_minus[i] for i in range(n)) + tuple(
        d_plus[i] - k[i] + 1 for i in range(n)
    )
    ops = tuple((_COPY, i) for i in range(n)) + tuple((_NEGATE, i) for i in range(n))
    node_map = tuple(
        [{"role": "original", "source": i} for i in range(n)]
        + [{"role": "mirror", "source": i} for i in range(n)]
    )
    return ExpansionResult(
        graph=g2, thresholds=k2, lift=ProfileLift(n, 2 * n, ops), node_map=node_map
    )


def _weighted_input(g: Graph, k: Sequence[int], what: str) -> tuple[int, ...]:
    if g.weights is None:
        raise BadParameterError(f"{what} needs a weighted instance")
    return as_thresholds(g, k)


# ---------------------------------------------------------------------------
# Integer weights to unit weights


def integer_weights_to_unit(
    g: Graph, k: Sequence[int], *, max_nodes: int = 4096
) -> ExpansionResult:
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
    total_blocks = 1
    for r in radii:
        total_blocks *= r
    if total_blocks * n > max_nodes:
        raise GuardExceededError(
            f"blowup needs {total_blocks * n} nodes, guard is {max_nodes}"
        )
    strides = []
    acc = 1
    for r in radii:
        strides.append(acc)
        acc *= r
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
    ops = tuple((_COPY, i) for _ in range(total_blocks) for i in range(n))
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
    g2 = build_graph(2 * n, edges, weighted=True, require_connected=False)
    ops = tuple((_COPY, i) for i in range(n)) * 2
    node_map = tuple(
        [{"role": "original", "source": i} for i in range(n)]
        + [{"role": "mirror", "source": i} for i in range(n)]
    )
    return ExpansionResult(
        graph=g2, thresholds=k * 2, lift=ProfileLift(n, 2 * n, ops), node_map=node_map
    )


# ---------------------------------------------------------------------------
# Constant-node removal


@dataclass(frozen=True)
class ComponentInstance:
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
    if not 0 <= i < g.n:
        raise NodeOutOfRangeError(f"node {i} outside 0..{g.n - 1}")
    pin_b = c in (ACTION_B, 1)
    if not pin_b and c not in (ACTION_W, 0):
        raise BadParameterError(f"action {c!r} is not 'B' or 'W'")
    remaining = [v for v in range(g.n) if v != i]
    seen: set[int] = set()
    components = []
    for start in remaining:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            u = stack.pop()
            for v in g.adjacency[u]:
                if v != i and v not in seen:
                    seen.add(v)
                    comp.append(v)
                    stack.append(v)
        comp.sort()
        index = {old: new for new, old in enumerate(comp)}
        edges = [
            (index[u], index[v]) for u, v in g.edges if u in index and v in index
        ]
        sub = build_graph(len(comp), edges)
        nbrs = set(g.adjacency[i])
        sub_k = tuple(
            max(k[old] - 1, 0) if (pin_b and old in nbrs) else k[old] for old in comp
        )
        components.append(ComponentInstance(graph=sub, thresholds=sub_k, nodes=tuple(comp)))
    return tuple(components)


# ---------------------------------------------------------------------------
# Isomorphism of (graph, thresholds) instances


def instances_isomorphic(
    g1: Graph, k1: Sequence[int], g2: Graph, k2: Sequence[int]
) -> bool:
    """Threshold-preserving graph isomorphism (VF2 with node attributes)."""
    import networkx as nx

    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    if sorted(zip(g1.degrees, k1)) != sorted(zip(g2.degrees, k2)):
        return False
    h1, h2 = nx.Graph(), nx.Graph()
    for h, g, k in ((h1, g1, k1), (h2, g2, k2)):
        h.add_nodes_from((i, {"k": k[i]}) for i in range(g.n))
        h.add_edges_from(g.edges)
    return nx.is_isomorphic(h1, h2, node_match=lambda x, y: x["k"] == y["k"])
