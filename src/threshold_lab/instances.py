"""Instance generators for verification suites and experiments.

Exhaustive families (all connected graphs up to isomorphism for n <= 7,
all trees) are grown one node at a time, with duplicates dropped; named
families and seeded random instances are built directly. All randomness
flows through an explicit random.Random so runs are reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import BadParameterError
from .graph_core import Graph, build_graph


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise BadParameterError("cycle graph needs n >= 3")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise BadParameterError("path graph needs n >= 1")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int) -> Graph:
    """Star on n nodes with node 0 as the center."""
    if n < 2:
        raise BadParameterError("star graph needs n >= 2")
    return build_graph(n, [(0, i) for i in range(1, n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise BadParameterError("complete graph needs n >= 1")
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def connected_graphs(n: int) -> list[Graph]:
    """All connected graphs on n <= 7 nodes, one per isomorphism class:
    the first of each class among the graphs on n - 1 nodes with node
    n - 1 joined to a nonempty set of their nodes (deleting a leaf of a
    spanning tree leaves a connected graph). A graph is tested only
    against kept graphs with its degrees and sorted neighbor degrees."""
    if not 1 <= n <= 7:
        raise BadParameterError(f"connected graphs are generated for 1 <= n <= 7, got {n}")
    from .expansions import instances_isomorphic

    level = [build_graph(1, [])]
    for m in range(2, n + 1):
        zeros = (0,) * m
        buckets: dict[tuple, list[Graph]] = {}
        for base in level:
            for s in range(1, 1 << (m - 1)):
                g = build_graph(m, base.edges + tuple((j, m - 1) for j in range(m - 1) if s >> j & 1))
                key = tuple(sorted((d, tuple(sorted(g.degrees[u] for u in nbrs)))
                                   for d, nbrs in zip(g.degrees, g.adjacency)))
                same = buckets.setdefault(key, [])
                if not any(instances_isomorphic(h, zeros, g, zeros) for h in same):
                    same.append(g)
        level = [g for same in buckets.values() for g in same]
    return level


def trees(n: int) -> list[Graph]:
    """All trees on n nodes, one per isomorphism class: the first of each
    class among the trees on n - 1 nodes with a leaf n - 1 hung on one of
    their nodes, told apart by ``_tree_code``."""
    if n < 1:
        raise BadParameterError("trees need n >= 1")
    level: list[tuple[tuple[int, int], ...]] = [()]
    for m in range(2, n + 1):
        kept: dict[str, tuple[tuple[int, int], ...]] = {}
        for edges in level:
            for j in range(m - 1):
                kept.setdefault(_tree_code(m, edges + ((j, m - 1),)), edges + ((j, m - 1),))
        level = list(kept.values())
    return [build_graph(n, edges) for edges in level]


def _tree_code(n: int, edges: Iterable[tuple[int, int]]) -> str:
    """The AHU code (Aho, Hopcroft & Ullman 1974) of the tree rooted at
    its center, or at the edge joining its two centers: a node's code is
    its children's codes, sorted, in parentheses. Two trees share a code
    exactly when they are isomorphic."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    degree = [len(nbrs) for nbrs in adj]
    kids: list[list[str]] = [[] for _ in range(n)]
    layer, left = [v for v in range(n) if degree[v] <= 1], n
    while left > 2:  # peel off the leaves, layer by layer, down to the centers
        left -= len(layer)
        peeled = []
        for v in layer:
            degree[v] = 0
            u = next(u for u in adj[v] if degree[u])  # v's one neighbor left in the tree
            kids[u].append("(" + "".join(sorted(kids[v])) + ")")
            degree[u] -= 1
            if degree[u] == 1:
                peeled.append(u)
        layer = peeled
    return "".join(sorted("(" + "".join(sorted(kids[v])) + ")" for v in layer))


def all_threshold_vectors(g: Graph) -> Iterator[tuple[int, ...]]:
    """Every k with k_i in 0..d_i+1; values above d_i+1 behave like d_i+1."""
    from itertools import product

    return product(*(range(d + 2) for d in g.degrees))


# ---------------------------------------------------------------------------
# Seeded random instances


def random_connected_graph(n: int, rng: random.Random, extra_edge_prob: float = 0.3) -> Graph:
    """Random spanning tree plus a coin flip on every remaining pair."""
    if n < 1:
        raise BadParameterError("graph needs n >= 1")
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < extra_edge_prob:
                edges.add((i, j))
    return build_graph(n, sorted(edges))


def random_thresholds(g: Graph, rng: random.Random) -> tuple[int, ...]:
    """Uniform k_i in 0..d_i+1, covering pinned nodes on both sides."""
    return tuple(rng.randint(0, d + 1) for d in g.degrees)


def random_types(g: Graph, rng: random.Random) -> tuple[Fraction, ...]:
    """Uniform grid types m/d_i (degree-0 nodes get 0 or 1)."""
    out = []
    for d in g.degrees:
        out.append(Fraction(rng.randint(0, d), d) if d else Fraction(rng.randint(0, 1)))
    return tuple(out)


def random_weighted_instance(n: int, rng: random.Random) -> tuple[Graph, tuple[int, ...]]:
    """(Graph, thresholds) with random weights in {-2, -1, 1, 2}, a
    self-loop on each node with probability 0.3, and thresholds in
    -4..4."""
    g = random_connected_graph(n, rng)
    weights = (-2, -1, 1, 2)
    edges = [(i, j, rng.choice(weights)) for i, j in g.edges]
    loops = [(i, rng.choice(weights)) for i in range(n) if rng.random() < 0.3]
    k = tuple(rng.randint(-4, 4) for _ in range(n))
    return build_graph(n, edges, loops, weighted=True), k


def random_signed_instance(n: int, rng: random.Random) -> tuple[Graph, tuple[int, ...]]:
    """Connected +-1-weighted loop-free instance with every node valid
    (-d_i^- <= k_i <= d_i^+), as the signed simulation requires."""
    g = random_connected_graph(n, rng)
    edges = [(i, j, rng.choice((-1, 1))) for i, j in g.edges]
    d_plus = [0] * n
    d_minus = [0] * n
    for i, j, w in edges:
        if w > 0:
            d_plus[i] += 1
            d_plus[j] += 1
        else:
            d_minus[i] += 1
            d_minus[j] += 1
    k = tuple(rng.randint(-d_minus[i], d_plus[i]) for i in range(n))
    return build_graph(n, edges, weighted=True), k


def random_small_blowup_instance(n: int, rng: random.Random) -> tuple[Graph, tuple[int, ...]]:
    """Loop-free integer-weighted instance whose |w| product stays at
    most 64, within the unit-weight blowup guard."""
    g = random_connected_graph(n, rng)
    edges = []
    blocks = 1
    for i, j in g.edges:
        mag = rng.choice((1, 1, 2)) if blocks <= 32 else 1
        blocks *= mag
        edges.append((i, j, mag * rng.choice((-1, 1))))
    k = tuple(rng.randint(-2, 3) for _ in range(n))
    return build_graph(n, edges, weighted=True), k
