"""Shared fixtures and the independent brute-force oracles.

The oracles here re-implement the update rule and limit classification
from scratch on adjacency lists, without touching the library's step
functions or the vectorized scan, so census/backtracking/scan results
are checked against genuinely independent code.
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


def inverted_step(g, k):
    """The inverted rule by its definition, B iff at most k_i - 1
    neighbors play B: the complement of the threshold step."""
    from threshold_lab import step

    full = (1 << g.n) - 1
    return lambda a: step(g, k, a) ^ full


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
