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

from .dynamics import _bitcount_step
from .errors import (
    BadParameterError,
    GuardExceededError,
    InvariantViolationError,
    OutOfFormulaRangeError,
)
from .graph_core import Graph, require_unweighted, types_to_thresholds


class RecoveryProblem(NamedTuple):
    """A graph, a perturbation budget, and the quantized search grid."""

    graph: Graph
    budget: int
    grid: tuple[tuple[Fraction, ...], ...]


def recovery_problem(g: Graph, K: int) -> RecoveryProblem:
    require_unweighted(g)
    if K < 1:
        raise BadParameterError(f"budget K must be >= 1, got {K}")
    K = min(K, g.n)  # profiles cannot hold more than n deviations
    grid = tuple(
        tuple(Fraction(m, d) for m in range(d + 1)) if d else (Fraction(0),)
        for d in g.degrees
    )
    return RecoveryProblem(graph=g, budget=K, grid=grid)


def _seed_list(n: int, K: int, max_seeds: int) -> list[int]:
    """Every profile with at most K B-nodes, after the seed-count guard.

    Weight-ascending, then lexicographic by node set: deterministic, so
    "first failing seed" is well defined.
    """
    K = min(K, n)
    if K < 1:
        raise BadParameterError(f"budget K must be >= 1, got {K}")
    seed_count = sum(comb(n, j) for j in range(K + 1))
    if seed_count > max_seeds:
        raise GuardExceededError(f"{seed_count} seed profiles exceed guard {max_seeds}")
    return [
        sum(1 << i for i in nodes)
        for size in range(K + 1)
        for nodes in combinations(range(n), size)
    ]


def check_recovery(
    g: Graph, q: Sequence, K: int, *, max_seeds: int = 2_000_000
) -> tuple[bool, int | None]:
    """Does q pull every profile with <= K B-nodes back to all-W?

    All-W is always a fixed point of the type rule (zero B-neighbors
    never strictly exceed q_i * d_i >= 0), so recovery from a seed means
    its trajectory reaches exactly the all-W limit set. Returns the
    first failing seed, if any, in weight-then-value order.
    """
    k = types_to_thresholds(g, q)
    ok, failing, _ = _check_recovery_counted(g, k, _seed_list(g.n, K, max_seeds))
    return ok, failing


def _check_recovery_counted(
    g: Graph, k: Sequence[int], seeds: Sequence[int]
) -> tuple[bool, int | None, int]:
    """Recovery under integer thresholds k, all >= 1 so that all-W is a
    fixed point; also returns how many seeds were checked. The search
    builds k itself, so it skips threshold validation."""
    step = _bitcount_step(g, k)
    verdict: dict[int, bool] = {0: True}
    checked = 0
    for seed in seeds:
        checked += 1
        if seed not in verdict:
            path: list[int] = []
            on_path: set[int] = set()
            cur = seed
            while cur not in verdict and cur not in on_path:
                path.append(cur)
                on_path.add(cur)
                cur = step(cur)
            # Revisiting the walk means a new cycle; all-W is a fixed point,
            # so that cycle cannot contain it and the seed is lost.
            ok = verdict[cur] if cur in verdict else False
            for a in path:
                verdict[a] = ok
        if not verdict[seed]:
            return False, seed, checked
    return True, None, checked


class ResilienceResult(NamedTuple):
    """Exact resilience value with an optimal witness allocation.

    ``evaluations`` counts the (candidate q, seed) recovery checks
    performed during the search.
    """

    mu: Fraction
    witness_q: tuple[Fraction, ...]
    evaluations: int


def resilience_bruteforce(
    g: Graph, K: int, *, max_grid: int = 1 << 24, max_seeds: int = 2_000_000
) -> ResilienceResult:
    """Exact minimum of ||q||_1 over the quantized grid.

    Candidates are explored best-first by nondecreasing l1 norm (ties:
    lexicographically smallest digit vector), so the first recovering
    candidate is optimal. Branches whose partial sum already exceeds a
    known-feasible bound are pruned; the greedy allocation provides that
    bound up front. Monotonicity of recovery in q is never assumed.
    """
    prob = recovery_problem(g, K)
    grid_size = 1
    for choices in prob.grid:
        grid_size *= len(choices)
        if grid_size > max_grid:
            raise GuardExceededError(f"type grid exceeds guard {max_grid}")
    seeds = _seed_list(g.n, prob.budget, max_seeds)
    # The search runs on integers. Candidate q_i = m_i / d_i is the digit
    # m_i; its strict type rule is the threshold rule with k_i = m_i + 1.
    # Scaled by L = lcm of the degrees, ||q||_1 is the integer key
    # sum of m_i * (L / d_i), so (key, digits) orders candidates exactly
    # as (||q||_1, digits) does.
    L = lcm(*(d for d in g.degrees if d))
    weights = [L // d if d else 0 for d in g.degrees]
    evaluations = 0

    bound = g.n * L  # q == 1 everywhere always recovers
    greedy = greedy_upper_bound_q(g)
    ok, _, n_checked = _check_recovery_counted(g, types_to_thresholds(g, greedy), seeds)
    evaluations += n_checked
    if ok:
        # every greedy q_i is a multiple of 1/d_i, so the scaled sum is integral
        bound = min(bound, int(sum(greedy) * L))

    # Best-first over partial digit vectors; extending never lowers the key.
    heap: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    while heap:
        key, digits = heapq.heappop(heap)
        if key > bound:
            continue
        i = len(digits)
        if i == g.n:
            ok, _, n_checked = _check_recovery_counted(g, [m + 1 for m in digits], seeds)
            evaluations += n_checked
            if ok:
                q = tuple(prob.grid[j][m] for j, m in enumerate(digits))
                return ResilienceResult(mu=Fraction(key, L), witness_q=q, evaluations=evaluations)
            continue
        w = weights[i]
        for m in range(len(prob.grid[i])):
            s = key + m * w
            if s > bound:
                break
            heapq.heappush(heap, (s, digits + (m,)))
    raise InvariantViolationError("no recovering type distribution found on the grid")


def greedy_upper_bound_q(g: Graph) -> tuple[Fraction, ...]:
    """Degree-order allocation: each edge charges 1/d to its endpoint of
    larger degree (ties: larger node id).

    Always recovers for K = n and satisfies
    ||q||_1 = sum over edges of min(1/d_i, 1/d_j) <= n/2.
    """
    require_unweighted(g)
    q = [Fraction(0)] * g.n
    for i, j in g.edges:
        hi = j if (g.degrees[i], i) < (g.degrees[j], j) else i
        q[hi] += Fraction(1, g.degrees[hi])
    return tuple(q)


class BoundsReport(NamedTuple):
    mu: Fraction
    lower: Fraction
    upper: Fraction
    lower_slack: Fraction
    upper_slack: Fraction


def verify_bounds(g: Graph, K: int, **kwargs) -> BoundsReport:
    """Compute mu by brute force and assert 1 <= mu <= n/2."""
    if g.n < 2:
        raise BadParameterError("resilience bounds are stated for n >= 2")
    result = resilience_bruteforce(g, K, **kwargs)
    lower, upper = Fraction(1), Fraction(g.n, 2)
    if not lower <= result.mu <= upper:
        raise InvariantViolationError(
            f"mu = {result.mu} violates the bounds [{lower}, {upper}]"
        )
    return BoundsReport(
        mu=result.mu,
        lower=lower,
        upper=upper,
        lower_slack=result.mu - lower,
        upper_slack=upper - result.mu,
    )


# ---------------------------------------------------------------------------
# Closed forms for named families

FAMILIES = ("star", "path", "cycle", "complete")


def resilience_closed_form(family: str, n: int, K: int) -> Fraction:
    """Exact resilience of the star, path, cycle, and complete families.

    star: 1 for every n >= 2 and K. path: (n-1-floor((n-1)/(2K+1)))/2,
    stated only for K < ceil(n/2). cycle: (n - floor(n/(2K+1)))/2 for
    K < ceil(n/2), and n/2 for K >= ceil(n/2) where the upper bound is
    tight (the formula coincides there). complete:
    (K(K-1)/2 + K(n-K))/(n-1) for every K, clamped at K = n.
    """
    if K < 1:
        raise BadParameterError(f"budget K must be >= 1, got {K}")
    if family == "star":
        if n < 2:
            raise BadParameterError("star needs n >= 2")
        return Fraction(1)
    if family == "path":
        if n < 2:
            raise BadParameterError("path needs n >= 2")
        if K >= (n + 1) // 2:
            raise OutOfFormulaRangeError(
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
