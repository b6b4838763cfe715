"""Instance generators for verification suites and experiments.

Exhaustive families (all connected graphs up to isomorphism for n <= 7,
all trees) come from networkx's graph atlas; named families and seeded
random instances are built directly. All randomness flows through an
explicit random.Random so runs are reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator

from .errors import BadParameterError
from .graph_core import Graph, build_graph, require_unweighted


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
    """All connected graphs on n <= 7 nodes, one per isomorphism class."""
    if not 1 <= n <= 7:
        raise BadParameterError("the graph atlas covers 1 <= n <= 7")
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    out = []
    for h in graph_atlas_g():
        if h.number_of_nodes() != n:
            continue
        if nx.is_connected(h):
            out.append(build_graph(n, list(h.edges())))
    return out


def trees(n: int) -> list[Graph]:
    """All trees on n nodes, one per isomorphism class."""
    if n < 1:
        raise BadParameterError("trees need n >= 1")
    if n == 1:
        return [build_graph(1, [])]
    if n == 2:
        return [path_graph(2)]
    import networkx as nx

    return [build_graph(n, list(t.edges())) for t in nx.nonisomorphic_trees(n)]


def all_threshold_vectors(g: Graph) -> Iterator[tuple[int, ...]]:
    """Every k with k_i in 0..d_i+1; values above d_i+1 behave like d_i+1."""
    from itertools import product

    return product(*(range(d + 2) for d in g.degrees))


def classify_family(g: Graph) -> str | None:
    """Name g's family among star/complete/cycle/path, if any.

    Overlapping cases (an edge is both a star and complete, a triangle
    both a cycle and complete) resolve in the order star, complete,
    cycle, path; the closed-form resilience values agree on overlaps.
    The families are unweighted, so a weighted graph is rejected.
    """
    require_unweighted(g)
    n = g.n
    degs = sorted(g.degrees)
    if n >= 2 and degs == [1] * (n - 1) + [n - 1]:
        return "star"
    if degs == [n - 1] * n:
        return "complete"
    if n >= 3 and degs == [2] * n:
        return "cycle"
    if n >= 2 and degs == [1, 1] + [2] * (n - 2):
        return "path"
    if n == 1:
        return "path"
    return None


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


def random_weighted_instance(
    n: int,
    rng: random.Random,
    *,
    weight_choices: tuple[int, ...] = (-2, -1, 1, 2),
    self_loop_prob: float = 0.3,
    threshold_range: tuple[int, int] = (-4, 4),
    extra_edge_prob: float = 0.3,
) -> tuple[Graph, tuple[int, ...]]:
    """(Graph, thresholds) with random signed weights, self-loops and
    thresholds of either sign."""
    g = random_connected_graph(n, rng, extra_edge_prob)
    edges = [(i, j, rng.choice(weight_choices)) for i, j in g.edges]
    loops = [
        (i, rng.choice(weight_choices)) for i in range(n) if rng.random() < self_loop_prob
    ]
    lo, hi = threshold_range
    k = tuple(rng.randint(lo, hi) for _ in range(n))
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


def random_small_blowup_instance(
    n: int, rng: random.Random, *, max_blocks: int = 64
) -> tuple[Graph, tuple[int, ...]]:
    """Loop-free integer-weighted instance whose |w| product stays small
    enough for the unit-weight blowup guard."""
    g = random_connected_graph(n, rng)
    edges = []
    blocks = 1
    for i, j in g.edges:
        mag = rng.choice((1, 1, 2)) if blocks * 2 <= max_blocks else 1
        blocks *= mag
        edges.append((i, j, mag * rng.choice((-1, 1))))
    k = tuple(rng.randint(-2, 3) for _ in range(n))
    return build_graph(n, edges, weighted=True), k
