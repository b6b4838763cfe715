"""Shared fixtures and the independent brute-force oracles.

The oracles here re-implement the update rule and limit classification
from scratch on adjacency lists, without touching the library's step
functions or the vectorized scan, so census/backtracking/scan results
are checked against genuinely independent code. ``cycle_census`` and
``tree_census`` count fixed points and 2-cycles exactly, far past the
scan, on the two families they cover.
"""

from __future__ import annotations

import random

import pytest

from threshold_lab import build_graph


def slow_step(adjacency, thresholds, profile):
    """Reference update rule on a tuple-of-bools profile."""
    out = []
    for i, nbrs in enumerate(adjacency):
        count = sum(1 for j in nbrs if profile[j])
        out.append(count >= thresholds[i])
    return tuple(out)


def slow_census(adjacency, thresholds):
    """Classify every profile by walking its trajectory to the limit.

    Returns (set of fixed points, set of 2-cycle pairs, max transient,
    max cycle length) with profiles as bool tuples.
    """
    n = len(adjacency)
    fixed = set()
    two_cycles = set()
    max_transient = 0
    max_cycle = 0
    for idx in range(1 << n):
        start = tuple(bool((idx >> i) & 1) for i in range(n))
        seen = {start: 0}
        seq = [start]
        cur = start
        while True:
            cur = slow_step(adjacency, thresholds, cur)
            if cur in seen:
                s = seen[cur]
                cycle = seq[s:]
                max_transient = max(max_transient, s)
                max_cycle = max(max_cycle, len(cycle))
                if len(cycle) == 1:
                    fixed.add(cycle[0])
                elif len(cycle) == 2:
                    two_cycles.add(frozenset(cycle))
                break
            seen[cur] = len(seq)
            seq.append(cur)
    return fixed, two_cycles, max_transient, max_cycle


def _cycle_fixed_points(k):
    """Fixed points of the cycle v_0 v_1 ... v_{n-1} v_0 (n >= 3) with
    thresholds k, by a transfer matrix over (a_{i-1}, a_i): the move
    from (x, y) to (y, z) at v_i is allowed iff y = [x + z >= k_i]. The
    count is the trace of the product, one start state at a time."""
    n = len(k)
    total = 0
    for start in ((0, 0), (0, 1), (1, 0), (1, 1)):  # (a_{n-1}, a_0)
        ways = {start: 1}
        for i in range(n):
            moved = {}
            for (x, y), w in ways.items():
                for z in (0, 1):
                    if y == (x + z >= k[i]):
                        moved[y, z] = moved.get((y, z), 0) + w
            ways = moved
        total += ways.get(start, 0)
    return total


def cycle_census(k):
    """(F, T) on the cycle v_0 v_1 ... v_{n-1} v_0 with thresholds k.
    The double cover of an odd n-cycle is the 2n-cycle with thresholds
    k + k, and that of an even one is two n-cycles, so its D = F + 2T
    fixed points are counted by the same transfer matrix."""
    f = _cycle_fixed_points(k)
    d = _cycle_fixed_points(k + k) if len(k) % 2 else f * f
    return f, (d - f) // 2


def tree_census(n, edges, k):
    """(F, T) on the tree with nodes 0..n-1, the given edges and
    thresholds k, by a DP over (a_v, a_parent) from the leaves up to
    node 0. For each a_v, a polynomial in z counts the children's
    subtrees by their number c of B children (the coefficient of z^c);
    v's rule keeps the c with [c + a_parent >= k_v] = a_v. Trees are
    bipartite, so the double cover is two copies and D = F^2."""
    adjacency = [[] for _ in range(n)]
    for i, j in edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    parent, order = [None] * n, [0]
    for v in order:
        for u in adjacency[v]:
            if u != parent[v] and u != 0:
                parent[u] = v
                order.append(u)
    ways = [None] * n  # ways[v][a_v][a_parent]
    for v in reversed(order):
        ways[v] = [[0, 0], [0, 0]]
        for a in (0, 1):
            poly = [1]
            for u in adjacency[v]:
                if u != parent[v]:
                    w, b = ways[u][0][a], ways[u][1][a]
                    poly = [x * w + y * b for x, y in zip(poly + [0], [0] + poly)]
            for p in (0, 1):
                ways[v][a][p] = sum(x for c, x in enumerate(poly) if (c + p >= k[v]) == a)
    f = ways[0][0][0] + ways[0][1][0]
    return f, (f * f - f) // 2


def inverted_step(g, k):
    """The inverted rule by its definition, B iff at most k_i - 1
    neighbors play B: the complement of the threshold step."""
    from threshold_lab import step

    full = (1 << g.n) - 1
    return lambda a: step(g, k, a) ^ full


def load_tool(name: str):
    """tools/<name>.py as a module: the tools are scripts, not a package."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def as_int(profile_tuple) -> int:
    return sum(1 << i for i, b in enumerate(profile_tuple) if b)


@pytest.fixture
def triangle():
    return build_graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def four_cycle():
    return build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


@pytest.fixture
def rng():
    return random.Random(12345)
