"""Network resilience: the minimal type budget that recovers from
bounded perturbations.

A type distribution q recovers (g, K) when every initial profile with
at most K nodes playing B converges to the all-W fixed point under the
strict type rule. The resilience measure is the minimum l1 norm of a
recovering q; candidate types can be restricted to the quantized grid
q_i in {0, 1/d_i, ..., d_i/d_i} without loss.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from typing import NamedTuple, Sequence

from .errors import BadParameterError, GuardExceededError, InvariantViolationError
from .graph_core import Graph, _bitcount_step, as_int, require_unweighted, types_to_thresholds

_MAX_SEEDS = 2_000_000  # seed profiles per recovery check
_MAX_GRID = 1 << 24  # digit vectors on the quantized grid


def _budget(K) -> int:
    """K as a perturbation budget: an integer, at least 1."""
    K = as_int(K, "budget K")
    if K < 1:
        raise BadParameterError(f"budget K must be >= 1, got {K}")
    return K


def _seed_list(n: int, K: int) -> list[int]:
    """Every profile with at most K B-nodes, after the seed-count guard.

    Weight-ascending, then lexicographic by node set: deterministic, so
    "first failing seed" is well defined.
    """
    K = min(_budget(K), n)
    seed_count = sum(comb(n, j) for j in range(K + 1))
    if seed_count > _MAX_SEEDS:
        raise GuardExceededError(f"{seed_count} seed profiles exceed guard {_MAX_SEEDS}")
    return [
        sum(1 << i for i in nodes)
        for size in range(K + 1)
        for nodes in combinations(range(n), size)
    ]


def check_recovery(g: Graph, q: Sequence, K: int) -> tuple[bool, int | None]:
    """Does q pull every profile with <= K B-nodes back to all-W?

    All-W is always a fixed point of the type rule (zero B-neighbors
    never strictly exceed q_i * d_i >= 0), so recovery from a seed means
    its trajectory reaches exactly the all-W limit set. Returns the
    first failing seed, if any, in weight-then-value order.
    """
    k = types_to_thresholds(g, q)
    seeds = _seed_list(g.n, K)
    ok, walk, _ = _check_recovery_counted(g, k, seeds)
    return ok, walk[0] if walk else None


def _check_recovery_counted(
    g: Graph, k: Sequence[int], seeds: Sequence[int]
) -> tuple[bool, list[int] | None, int]:
    """Recovery under integer thresholds k, all >= 1 so that all-W is a
    fixed point; also returns how many seeds were checked. The search
    builds k itself, so it skips threshold validation.

    The check stops at the first failing seed, so every profile cached
    before it recovers. A walk that reaches the cache recovers; one that
    revisits itself has found a new cycle, which cannot hold the fixed
    point all-W, so its seed fails. On failure the second value is that
    walk, up to and including its first repeated profile.
    """
    step = _bitcount_step(g, k)
    recovers = {0}
    for checked, seed in enumerate(seeds, 1):
        if seed in recovers:
            continue
        path: list[int] = []
        on_path: set[int] = set()
        cur = seed
        while cur not in recovers and cur not in on_path:
            path.append(cur)
            on_path.add(cur)
            cur = step(cur)
        if cur not in recovers:
            return False, path + [cur], checked
        recovers.update(path)
    return True, None, len(seeds)


class ResilienceResult(NamedTuple):
    """Exact resilience value with an optimal witness allocation.

    ``evaluations`` counts the (candidate q, seed) recovery checks made
    during the search: the greedy allocation's, then those of every full
    candidate the search evaluated. A failure box is learned from the
    failing check's own walk, and candidates inside a learned box are
    skipped without a check.
    """

    mu: Fraction
    witness_q: tuple[Fraction, ...]
    evaluations: int


def _failure_box(g: Graph, walk: Sequence[int]) -> tuple[int, ...]:
    """Digit upper bounds of the failure box learned from the walk of a
    seed that does not recover under thresholds k.

    The walk runs from the seed to its first repeated profile, so it
    covers every step of the trajectory. For each node i that some step
    sets to B, c_i is the least B-neighbour count at such a step, and
    the box bounds the digit by c_i - 1; every other node keeps the
    bound d_i, which is no constraint. As k_i <= c_i, the digits k - 1
    lie in the box.

    Soundness: every m' in the box fails from the same seed. Let x_t be
    the walk under k and x'_t the walk under k' = m' + 1 from the same
    seed. Then x'_t contains x_t for every t. At t = 0 both are the
    seed. If x'_t contains x_t and node i is in x_{t+1}, then
    |N(i) & x'_t| >= |N(i) & x_t| >= c_i >= m'_i + 1 = k'_i, so i is in
    x'_{t+1}: the step is monotone in the profile and antitone in k.
    The seed fails under k, and all-W is a fixed point, so x_t is never
    all-W; hence neither is x'_t, and m' fails too.
    """
    masks = g.neighbor_masks
    ub = list(g.degrees)
    for a, b in zip(walk, walk[1:]):
        for i, mask in enumerate(masks):
            if b >> i & 1:
                ub[i] = min(ub[i], (a & mask).bit_count() - 1)
    return tuple(ub)


def resilience_bruteforce(g: Graph, K: int) -> ResilienceResult:
    """Exact minimum of ||q||_1 over the quantized grid, with the least
    optimal digit vector as witness.

    The search runs on digits: q_i = m_i / d_i, whose strict type rule
    is the threshold rule with k_i = m_i + 1. Scaled by L = lcm of the
    degrees, ||q||_1 is the integer key sum of m_i * (L / d_i), so
    (key, digits) orders candidates exactly as (||q||_1, digits) does.
    The greedy allocation's key is the initial bound: its digits recover
    for every K. Rank the nodes by (degree, id); the greedy digit m_v
    counts v's lower-ranked neighbours, so under k = m + 1 a node plays
    B only if a higher-ranked neighbour played B the step before. The
    highest rank among the B nodes drops at every step, so every profile
    reaches all-W within n steps. The greedy check still runs (its seeds
    count in ``evaluations``); a failure raises InvariantViolationError.

    Guards: the grid of digit vectors, prod (d_i + 1), is refused past
    _MAX_GRID, and the seed count past _MAX_SEEDS. At these limits the
    seed guard can fire only on a disconnected graph. A connected graph
    on n >= 2 nodes has degrees d_i >= 1 summing to at least 2(n - 1);
    as log(d + 1) is concave, prod (d_i + 1) is least when all but one
    d_i are 1, which is the star's n 2^(n-1). So the grid guard admits
    n <= 20, and at most 2^20 < _MAX_SEEDS seeds.

    Failure boxes. Each full candidate that fails from a seed yields a
    box of digit vectors that all fail from that seed (``_failure_box``
    proves it), so no candidate inside a learned box is evaluated.

    A* (Hart, Nilsson & Raphael 1968). A heap entry is a digit prefix p
    of length i under the priority (key(p) + h(p), p). A box that p has
    not escaped (all its assigned digits are within the box bounds)
    can be escaped only by some free node j >= i with a digit above its
    bound, which adds at least (ub_j + 1) * w_j to the key. h(p) is the
    largest such cheapest escape over the boxes p has not escaped; a box
    that bounds no free node holds every completion of p, so its escape
    costs n * L + 1, above any bound, and p is pruned.
    Boxes only accumulate, so an entry's h is recomputed when it is
    popped after new boxes were learned, and the entry is pushed back if
    h rose; a full candidate has h = 0 unless it is inside a box.

    The first recovering full candidate popped is the least recovering
    (key, digits), as a best-first search in (key, digits) order would
    return. Let m* be that least one; its key is at most the bound, and
    it lies in no box. Every prefix p of m* has key(p) + h(p) <=
    key(m*), because m* escapes every box that p has not escaped at
    some free node, at a cost of at least h(p) on top of key(p). Hence
    no prefix of m* is pruned, and until m* is popped the heap
    holds one prefix of m*: the root starts there, and popping a prefix
    either pushes it back or pushes its next prefix. A proper prefix
    sorts before m* (its priority is at most key(m*) and its digits are
    a proper prefix of m*'s), so it sorts before every recovering
    candidate whose (key, digits) is larger than m*'s; such a candidate
    enters the heap with priority exactly (key, digits), so it cannot be
    popped before m*.
    """
    require_unweighted(g)
    K = _budget(K)
    n, degrees = g.n, g.degrees
    grid_size = 1
    for d in degrees:
        grid_size *= d + 1
        if grid_size > _MAX_GRID:
            raise GuardExceededError(f"type grid exceeds guard {_MAX_GRID}")
    seeds = _seed_list(n, K)
    L = lcm(*(d for d in degrees if d))
    weights = [L // d if d else 0 for d in degrees]

    # Box b is bit b of every mask. esc[j][m] holds the boxes that digit
    # m at node j escapes. levels[i] holds, by descending cost, one
    # [cost, boxes] entry per cost: the boxes whose cheapest escape over
    # the nodes j >= i has that cost, kept current in place; a box that
    # bounds no node j >= i has cost n * L + 1, above any bound.
    esc = [[0] * (d + 1) for d in degrees]
    by_cost: list[dict[int, list[int]]] = [{} for _ in range(n + 1)]
    levels: list[list[list[int]]] = [[] for _ in range(n + 1)]
    boxes = 0

    def learn(walk: Sequence[int]) -> None:
        nonlocal boxes
        ub = _failure_box(g, walk)
        bit = 1 << boxes
        boxes += 1
        cheapest = n * L + 1
        for i in range(n, -1, -1):
            if i < n and ub[i] < degrees[i]:
                row = esc[i]
                for m in range(ub[i] + 1, len(row)):
                    row[m] |= bit
                cheapest = min(cheapest, (ub[i] + 1) * weights[i])
            level = by_cost[i]
            entry = level.get(cheapest)
            if entry is None:
                entry = level[cheapest] = [cheapest, 0]
                levels[i] = sorted(level.values(), reverse=True)
            entry[1] |= bit

    def estimate(i: int, escaped: int) -> int:
        """h of a length-i prefix that escaped these boxes."""
        open_boxes = ~escaped
        for cost, mask in levels[i]:
            if mask & open_boxes:
                return cost
        return 0

    greedy = _greedy_digits(g)
    ok, _walk, evaluations = _check_recovery_counted(g, [m + 1 for m in greedy], seeds)
    if not ok:
        raise InvariantViolationError("the greedy allocation failed to recover")
    bound = sum(m * w for m, w in zip(greedy, weights))

    # (key + h, digits, key, boxes escaped, boxes known when pushed)
    heap: list[tuple[int, tuple[int, ...], int, int, int]] = [(0, (), 0, 0, 0)]
    while heap:
        priority, digits, key, escaped, known = heapq.heappop(heap)
        i = len(digits)
        if known < boxes:
            for j, m in enumerate(digits):
                escaped |= esc[j][m]
            h = estimate(i, escaped)
            if key + h > bound:
                continue
            if key + h > priority:
                heapq.heappush(heap, (key + h, digits, key, escaped, boxes))
                continue
        if i == n:
            ok, walk, n_checked = _check_recovery_counted(g, [m + 1 for m in digits], seeds)
            evaluations += n_checked
            if ok:
                return ResilienceResult(mu=Fraction(key, L), witness_q=_types(g, digits),
                                        evaluations=evaluations)
            learn(walk)
            continue
        w, row = weights[i], esc[i]
        for m, escapes in enumerate(row):
            s = key + m * w
            if s > bound:
                break
            child_escaped = escaped | escapes
            h = estimate(i + 1, child_escaped)
            if s + h <= bound:
                heapq.heappush(heap, (s + h, digits + (m,), s, child_escaped, boxes))
    raise InvariantViolationError("no recovering type distribution found on the grid")


def _greedy_digits(g: Graph) -> list[int]:
    """Degree-order allocation as digits: each edge adds 1 to the digit
    of its endpoint of larger degree (ties: larger node id)."""
    digits = [0] * g.n
    for i, j in g.edges:
        digits[j if (g.degrees[i], i) < (g.degrees[j], j) else i] += 1
    return digits


def _types(g: Graph, digits: Sequence[int]) -> tuple[Fraction, ...]:
    """The types q_i = m_i / d_i of digits m; the one node of an edgeless
    graph has d = 0 and type 0."""
    return tuple(Fraction(m, d or 1) for m, d in zip(digits, g.degrees))


def greedy_upper_bound_q(g: Graph) -> tuple[Fraction, ...]:
    """Degree-order allocation: each edge charges 1/d to its endpoint of
    larger degree (ties: larger node id).

    Always recovers for K = n and satisfies
    ||q||_1 = sum over edges of min(1/d_i, 1/d_j) <= n/2.
    """
    require_unweighted(g)
    return _types(g, _greedy_digits(g))


# ---------------------------------------------------------------------------
# Closed forms for named families

FAMILIES = ("star", "path", "cycle", "complete")


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
    if n == 1 or degs == [1, 1] + [2] * (n - 2):
        return "path"
    return None


def resilience_closed_form(family: str, n: int, K: int) -> Fraction:
    """Exact resilience of the star, path, cycle, and complete families.

    star: 1 for every n >= 2 and K. path: (n-1-floor((n-1)/(2K+1)))/2,
    stated only for K < ceil(n/2). cycle: (n - floor(n/(2K+1)))/2 for
    K < ceil(n/2), and n/2 for K >= ceil(n/2) where the upper bound is
    tight (the formula coincides there). complete:
    (K(K-1)/2 + K(n-K))/(n-1) for every K, clamped at K = n.
    """
    n, K = as_int(n, "node count"), _budget(K)
    if family == "star":
        if n < 2:
            raise BadParameterError("star needs n >= 2")
        return Fraction(1)
    if family == "path":
        if n < 2:
            raise BadParameterError("path needs n >= 2")
        if K >= (n + 1) // 2:
            raise BadParameterError(
                f"path formula holds only for K < ceil(n/2) = {(n + 1) // 2}"
            )
        return Fraction(n - 1 - (n - 1) // (2 * K + 1), 2)
    if family == "cycle":
        if n < 3:
            raise BadParameterError("cycle needs n >= 3")
        return Fraction(n - n // (2 * K + 1), 2)
    if family == "complete":
        if n < 2:
            raise BadParameterError("complete graph needs n >= 2")
        K = min(K, n)
        return Fraction(K * (K - 1) // 2 + K * (n - K), n - 1)
    raise BadParameterError(f"unknown family {family!r}; expected one of {FAMILIES}")
