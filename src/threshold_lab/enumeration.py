"""Exhaustive and backtracking enumeration of the limit structure.

Every 2^n scan runs one kernel: profiles are uint32 words, and node i's
update over a chunk of consecutive profiles is
``bitwise_count(a & neighbor_mask_i) >= k_i``, written into chunk
buffers allocated once per scan. The census builds the full successor
table once (4 bytes per profile) and derives fixed points, 2-cycles,
witnesses and the period check from it; predecessor and reachability
scans stream the kernel chunk by chunk and never hold the table.
Fixed-point counting also has a depth-first backtracking path that
scales past the scan limit on gadget-shaped graphs.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    BadParameterError,
    GuardExceededError,
    IdentityViolatedError,
    InvariantViolationError,
)
from .graph_core import Graph, build_graph, two_partition, validate_profile, validate_thresholds

DEFAULT_GUARD_N = 24
MAX_SCAN_N = 32  # the width of a uint32 profile word; no guard setting lifts it
_CHUNK = 1 << 16


def check_scan_size(n: int, guard_n: int) -> None:
    """Refuse a 2^n scan past the uint32 profile width or past guard_n.

    Called before anything is allocated.
    """
    if n > MAX_SCAN_N:
        raise GuardExceededError(f"n = {n} exceeds {MAX_SCAN_N}, the widest 2^n scan supported")
    if n > guard_n:
        raise GuardExceededError(f"n = {n} exceeds the 2^n scan guard {guard_n}")


@dataclass(frozen=True)
class LimitCensus:
    """Counts of fixed points and 2-cycles, with optional witnesses.

    cycle_classes == fixed_points + two_cycles. Witness lists are sorted
    by profile value (pairs by their smaller element) and truncated at
    the cap; they are None when collection was disabled.
    """

    fixed_points: int
    two_cycles: int
    cycle_classes: int
    fixed_witnesses: tuple[int, ...] | None = None
    two_cycle_witnesses: tuple[tuple[int, int], ...] | None = None


def census_to_dict(census: LimitCensus, n: int) -> dict:
    """JSON form: counts plus any witness lists as 'B'/'W' strings."""
    from .graph_core import format_profile

    d = {
        "fixed_points": census.fixed_points,
        "two_cycles": census.two_cycles,
        "cycle_classes": census.cycle_classes,
    }
    if census.fixed_witnesses is not None:
        d["fixed_point_witnesses"] = [format_profile(a, n) for a in census.fixed_witnesses]
    if census.two_cycle_witnesses is not None:
        d["two_cycle_witnesses"] = [
            [format_profile(a, n), format_profile(b, n)] for a, b in census.two_cycle_witnesses
        ]
    return d


# ---------------------------------------------------------------------------
# The 2^n kernel


def _chunks(total: int) -> Iterator[tuple[int, int]]:
    for lo in range(0, total, _CHUNK):
        yield lo, min(lo + _CHUNK, total)


def _steps(
    g: Graph, k: Sequence[int], table: np.ndarray | None = None
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (lo, succ) per chunk, with succ[j] = step(lo + j).

    With ``table`` given, succ is the view table[lo:hi], so exhausting
    the generator fills the table; otherwise succ is one buffer reused
    for every chunk.
    """
    n = g.n
    total = 1 << n
    masks = [np.uint32(m) for m in g.neighbor_masks]
    # a count never exceeds n, so clamping keeps the uint8 comparison exact
    ks = [min(ki, n + 1) for ki in k]
    size = min(_CHUNK, total)
    offsets = np.arange(size, dtype=np.uint32)
    vals = np.empty(size, dtype=np.uint32)
    word = np.empty(size, dtype=np.uint32)
    count = np.empty(size, dtype=np.uint8)
    hit = np.empty(size, dtype=bool)
    buf = np.empty(size, dtype=np.uint32) if table is None else None
    for lo, hi in _chunks(total):
        m = hi - lo
        succ = buf[:m] if table is None else table[lo:hi]
        v, w, c, h = vals[:m], word[:m], count[:m], hit[:m]
        np.add(offsets[:m], np.uint32(lo), out=v)
        succ.fill(0)
        for i in range(n):
            np.bitwise_and(v, masks[i], out=w)
            np.bitwise_count(w, out=c)
            np.greater_equal(c, ks[i], out=h)
            np.left_shift(h, np.uint32(i), out=w, dtype=np.uint32)
            np.bitwise_or(succ, w, out=succ)
        yield lo, succ


def _successor_table(g: Graph, k: Sequence[int]) -> np.ndarray:
    table = np.empty(1 << g.n, dtype=np.uint32)
    for _ in _steps(g, k, table):
        pass
    return table


def _gather(table: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    # mode="clip" writes straight into out; the default mode="raise"
    # buffers the whole result first. Indices are profiles, always in range.
    return np.take(table, index, out=out, mode="clip")


def enumerate_limits(
    g: Graph,
    k: Sequence[int],
    *,
    guard_n: int = DEFAULT_GUARD_N,
    witnesses: bool = True,
    witness_cap: int = 1024,
) -> LimitCensus:
    """Scan all 2^n profiles and classify the limit structure.

    A profile a is a fixed point iff step(a) == a; an unordered pair
    {a, b} is a 2-cycle iff step(a) == b != a and step(b) == a. The scan
    also verifies that no profile sits on a longer cycle,
    re-establishing the length-2 bound on this instance rather than
    assuming it. Peak memory is the successor table plus, when
    some transient is longer than one step, one more array of its size:
    8 bytes per profile.
    """
    k = validate_thresholds(g, k)
    check_scan_size(g.n, guard_n)
    table = _successor_table(g, k)
    total = table.size
    cap = witness_cap if witnesses else 0
    fixed = two = periodic = 0
    fw: list[int] = []
    tw: list[tuple[int, int]] = []
    settled = True  # f^2 fixes f(a) for every profile a scanned so far
    size = min(_CHUNK, total)
    offsets = np.arange(size, dtype=np.uint32)
    vals = np.empty(size, dtype=np.uint32)
    f2_buf = np.empty(size, dtype=np.uint32)
    f3_buf = np.empty(size, dtype=np.uint32)
    for lo, hi in _chunks(total):
        m = hi - lo
        a = np.add(offsets[:m], np.uint32(lo), out=vals[:m])
        f1 = table[lo:hi]
        f2 = _gather(table, f1, f2_buf[:m])
        fixed_mask = f1 == a
        periodic_mask = f2 == a
        two_mask = periodic_mask & (a < f1)
        fixed += int(np.count_nonzero(fixed_mask))
        periodic += int(np.count_nonzero(periodic_mask))
        two += int(np.count_nonzero(two_mask))
        if len(fw) < cap:
            fw.extend(a[fixed_mask][: cap - len(fw)].tolist())
        if len(tw) < cap:
            room = cap - len(tw)
            tw.extend(zip(a[two_mask][:room].tolist(), f1[two_mask][:room].tolist()))
        if settled:
            settled = np.array_equal(_gather(table, f2, f3_buf[:m]), f1)
    if not settled:
        _assert_period_at_most_two(table)
    if periodic != fixed + 2 * two:
        raise InvariantViolationError("census does not account for every periodic profile")
    return LimitCensus(
        fixed_points=fixed,
        two_cycles=two,
        cycle_classes=fixed + two,
        fixed_witnesses=tuple(fw) if witnesses else None,
        two_cycle_witnesses=tuple(tw) if witnesses else None,
    )


def _assert_period_at_most_two(table: np.ndarray) -> None:
    """Raise unless every limit cycle of the map ``table`` has length <= 2.

    The census pass already found a profile a with f^2(f(a)) != f(a), so
    this starts at round 1. ``limit`` starts as a copy of f and is
    squared in place, limit[a] <- limit[limit[a]]; an entry read later in
    the same round may already be squared, so after round j limit[a] is
    f^t(a) with t >= 2^j. The check stops at the first round where f^2
    fixes limit[a] for every a. That is sound: limit[a] lies on a's
    forward orbit, so for a on a cycle longer than 2 it stays on that
    cycle, where f^2 fixes no point. Every transient is shorter than
    2^n, so without such a cycle round n passes.
    """
    total = table.size
    n = total.bit_length() - 1
    limit = table.copy()
    size = min(_CHUNK, total)
    buf = np.empty(size, dtype=np.uint32)
    f2_buf = np.empty(size, dtype=np.uint32)
    for _ in range(n):
        settled = True
        for lo, hi in _chunks(total):
            m = hi - lo
            cur = limit[lo:hi]
            cur[...] = _gather(limit, cur, buf[:m])
            if settled:
                f2 = _gather(table, _gather(table, cur, buf[:m]), f2_buf[:m])
                settled = np.array_equal(f2, cur)
        if settled:
            return
    raise InvariantViolationError(
        "a limit cycle longer than 2 exists; this contradicts the "
        "length-2 cycle bound and indicates an implementation bug"
    )


def transition_table(g: Graph, k: Sequence[int], *, guard_n: int = DEFAULT_GUARD_N) -> np.ndarray:
    """Full successor table next[a] = step(a) for all 2^n profiles."""
    k = validate_thresholds(g, k)
    check_scan_size(g.n, guard_n)
    return _successor_table(g, k)


# ---------------------------------------------------------------------------
# Backtracking fixed-point counter


def count_fixed_points_backtracking(g: Graph, k: Sequence[int]) -> int:
    """Exact fixed-point count by depth-first assignment with pruning.

    Fixed points are profiles where every node i satisfies
    a_i = [B-neighbor count >= k_i]. Assigning nodes in breadth-first
    order, a partial profile is pruned as soon as some assigned node can
    no longer meet (or already exceeds) its constraint, and nodes whose
    neighborhoods are fully decided get their value forced. Scales well
    past the 2^n scan on gadget-shaped graphs.
    """
    k = validate_thresholds(g, k)
    n = g.n
    order = _bfs_order(g)

    value = [-1] * n  # -1 unassigned
    cnt_b = [0] * n  # assigned B neighbors
    rem = list(g.degrees)  # unassigned neighbors

    def violated(u: int) -> bool:
        if value[u] == 1:
            return cnt_b[u] + rem[u] < k[u]
        if value[u] == 0:
            return cnt_b[u] >= k[u]
        return False

    def assign(u: int, val: int, trail: list) -> bool:
        # Returns False on contradiction; the trail records assigned nodes
        # so undo can reverse their counter updates. Counter updates for a
        # node are applied atomically before any violation check, keeping
        # the trail consistent on failure.
        queue = [(u, val)]
        while queue:
            v, b = queue.pop()
            if value[v] != -1:
                if value[v] != b:
                    return False
                continue
            value[v] = b
            trail.append(v)
            for w_ in g.adjacency[v]:
                rem[w_] -= 1
                if b:
                    cnt_b[w_] += 1
            if violated(v):
                return False
            for w_ in g.adjacency[v]:
                if violated(w_):
                    return False
                if value[w_] == -1 and rem[w_] == 0:
                    queue.append((w_, 1 if cnt_b[w_] >= k[w_] else 0))
        return True

    def undo(trail: list) -> None:
        for v in reversed(trail):
            b = value[v]
            value[v] = -1
            for w_ in g.adjacency[v]:
                rem[w_] += 1
                if b:
                    cnt_b[w_] -= 1

    def first_unassigned() -> int:
        for v in order:
            if value[v] == -1:
                return v
        return -1

    def search() -> int:
        u = first_unassigned()
        if u == -1:
            return 1
        total = 0
        for val in (0, 1):
            trail: list = []
            if assign(u, val, trail):
                total += search()
            undo(trail)
        return total

    # Each branching node adds a Python frame, so an instance needing more
    # branching levels than the interpreter's recursion limit cannot run.
    try:
        return search()
    except RecursionError:
        raise GuardExceededError(
            f"backtracking on {n} nodes needs a search depth beyond Python's "
            f"recursion limit of {sys.getrecursionlimit()} frames"
        ) from None


def _bfs_order(g: Graph) -> list[int]:
    from collections import deque

    seen = [False] * g.n
    order = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            order.append(u)
            for v in g.adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
    return order


# ---------------------------------------------------------------------------
# Predecessors and reachability


def predecessors(
    g: Graph, k: Sequence[int], a: int, *, guard_n: int = DEFAULT_GUARD_N
) -> tuple[int, ...]:
    """All profiles b with step(b) == a, by scanning the 2^n space."""
    k = validate_thresholds(g, k)
    a = validate_profile(a, g.n)
    check_scan_size(g.n, guard_n)
    found: list[int] = []
    for lo, succ in _steps(g, k):
        found.extend((np.flatnonzero(succ == a) + lo).tolist())
    return tuple(found)


def is_reachable(
    g: Graph, k: Sequence[int], a: int, *, guard_n: int = DEFAULT_GUARD_N
) -> bool:
    """True iff a has at least one predecessor under step."""
    k = validate_thresholds(g, k)
    a = validate_profile(a, g.n)
    check_scan_size(g.n, guard_n)
    return any(bool((succ == a).any()) for _, succ in _steps(g, k))


# ---------------------------------------------------------------------------
# The fixed-point / cycle-class identity on bipartite instances


@dataclass(frozen=True)
class BipartiteCycleCheck:
    fixed_points: int
    two_cycles: int
    cycle_classes: int
    predicted_classes: int
    pairing_verified: bool


def bipartite_cycle_identity(
    g: Graph, k: Sequence[int], *, guard_n: int = DEFAULT_GUARD_N
) -> BipartiteCycleCheck:
    """Check cycle_classes == F(F-1)/2 + F on a bipartite instance.

    F and the class count are computed independently by the census; the
    constructive pairing (splice two distinct fixed points along the
    2-partition) is then replayed to confirm it generates every 2-cycle.
    Raises IdentityViolatedError on mismatch, which would indicate an
    implementation bug rather than bad input.
    """
    k = validate_thresholds(g, k)
    part = two_partition(g)  # rejects non-bipartite inputs with a witness
    census = enumerate_limits(g, k, guard_n=guard_n, witnesses=True, witness_cap=1 << g.n)
    f = census.fixed_points
    predicted = f * (f - 1) // 2 + f
    if census.cycle_classes != predicted:
        raise IdentityViolatedError(
            f"cycle classes {census.cycle_classes} != F(F-1)/2 + F = {predicted}"
        )
    odd_mask = sum(1 << i for i in part.p_odd)
    even_mask = sum(1 << i for i in part.p_even)
    fixed = census.fixed_witnesses or ()
    spliced = set()
    for x, a1 in enumerate(fixed):
        for a2 in fixed[x + 1 :]:
            lo_hi = sorted(((a2 & odd_mask) | (a1 & even_mask), (a1 & odd_mask) | (a2 & even_mask)))
            spliced.add(tuple(lo_hi))
    actual = set(census.two_cycle_witnesses or ())
    pairing_ok = spliced == actual
    if not pairing_ok:
        raise IdentityViolatedError("fixed-point splicing did not generate the 2-cycles")
    return BipartiteCycleCheck(
        fixed_points=f,
        two_cycles=census.two_cycles,
        cycle_classes=census.cycle_classes,
        predicted_classes=predicted,
        pairing_verified=pairing_ok,
    )


# ---------------------------------------------------------------------------
# Extremal instances


def build_extremal_cycle_instance(n: int, kind: str) -> tuple[Graph, tuple[int, ...]]:
    """Cycle-graph instances meeting the counting bounds.

    kind="min": odd cycle with all thresholds 1 (exactly the two uniform
    fixed points, no 2-cycles). kind="max": n divisible by 3, n >= 6,
    thresholds repeating (1, 1, 2) so each threshold-1 node has exactly
    one threshold-1 neighbor; at least 2^(n/3) fixed points and
    2^(n/3) - 1 two-cycles.
    """
    if kind == "min":
        if n < 3 or n % 2 == 0:
            raise BadParameterError("kind='min' needs an odd n >= 3")
        g = build_graph(n, [(i, (i + 1) % n) for i in range(n)])
        return g, (1,) * n
    if kind == "max":
        if n % 3 != 0 or n < 6:
            raise BadParameterError("kind='max' needs n divisible by 3, n >= 6")
        g = build_graph(n, [(i, (i + 1) % n) for i in range(n)])
        k = tuple(2 if i % 3 == 2 else 1 for i in range(n))
        return g, k
    raise BadParameterError(f"unknown kind {kind!r}; expected 'min' or 'max'")
