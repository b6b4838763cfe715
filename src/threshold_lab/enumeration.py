"""Exhaustive and backtracking enumeration of the limit structure.

Every 2^n scan runs on bit-sliced truth tables. Profiles go in blocks
of 2^w consecutive values, w = min(n, _BLOCK_BITS); within a block,
node i is one 2^w-bit Python int, its column, whose bit x is bit i of
profile base + x. ``compile_kernel`` turns a scan's threshold rows
into one straight-line Python function that maps profile columns to
successor columns with & and | alone, so each big-int operation
updates one node over the whole block; every scan compiles its kernel
once, after the size check, and reuses it for every block and pass.
The census, its period check, the predecessor and reachability scans
and ``reductions.count_sat`` all run block by block, so scan memory
does not grow with 2^n, and none of them needs numpy.

Fixed points can also be counted without a scan, in pure Python: a
depth-first search that propagates each node's threshold constraint
after every assignment. It scales past the scan limit on gadget-shaped
graphs.

The census, ``enumerate_limits``, returns counts only: F by the search
on the instance, F + 2T by the search on its bipartite double cover,
each the product of the searches on its connected components, within
one budget of search nodes (half the scan's price of
2^max(n - 16, 0) blocks x kernel operations), and the scan
``scan_limits`` only when that budget runs out. The scan checks period
<= 2 and the transient envelope on every start; a counted census checks
them on 256 fixed starts, through the compiled kernel and the scan's own
period loop, plus two counting identities. ``fixed_points`` lists the
fixed points with one scan.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    DEFAULT_GUARD_N,
    BadParameterError,
    InvariantViolationError,
    check_scan_size,
)
from .graph_core import Graph, _bitcount_step, as_int, build_graph, cross_edges, default_guard
from .graph_core import induced_subgraph, is_bipartite, reach, two_partition
from .graph_core import validate_profile, validate_thresholds

# one 2^16-bit column is 8 KB, so a block stays small while each & or |
# covers 65,536 profiles
_BLOCK_BITS = 16

# starts in the sampled period check of a counted census
_SAMPLE_STARTS = 256


class LimitCensus(NamedTuple):
    """Counts of fixed points and 2-cycles.

    cycle_classes == fixed_points + two_cycles, and two_cycles is half
    the number of profiles on 2-cycles.
    """

    fixed_points: int
    two_cycles: int
    cycle_classes: int


# ---------------------------------------------------------------------------
# The 2^n kernel


def column_blocks(n: int) -> Iterator[tuple[int, int, list[int]]]:
    """Yield (base, full, columns) per block of 2^w profiles, w = min(n,
    _BLOCK_BITS), in profile order. ``full`` has all 2^w bits set; column
    j < w has bit x equal to bit j of x, and a column j >= w is constant
    over the block, full or 0."""
    w = min(n, _BLOCK_BITS)
    size = 1 << w
    full = (1 << size) - 1
    low = []
    for j in range(w):
        # 2^j zeros then 2^j ones, doubled until it spans the block
        col, span = ((1 << (1 << j)) - 1) << (1 << j), 2 << j
        while span < size:
            col |= col << span
            span *= 2
        low.append(col)
    for block in range(1 << (n - w)):
        yield block << w, full, low + [full if block >> i & 1 else 0 for i in range(n - w)]


def compile_kernel(
    rows: Iterable[tuple[int, Sequence[int]]],
) -> Callable[[int, list[int]], list[int]]:
    """Compile threshold rows into one straight-line column function.

    Row i is (k_i, input indices); the returned ``kernel(full, cols)``
    gives, per row, the column of [at least k_i of its input columns are
    set], bitwise, as a list. Each row runs the ge[t] recurrence: ge[t]
    marks the bits set in at least t of the inputs seen so far. Only t
    within reach of k_i is kept (at least k_i minus the inputs still
    unseen, at most k_i), and the schedule is fixed when the source is
    written, so a call spends only big-int operations: the first ge[1]
    is the input itself, later ones take one |, an entry set for the
    first time takes one &, and every other update takes & then |. A
    row costs (2 k_i - 1)(d_i - k_i + 1) - k_i operations; k_i = 0 is
    ``full`` and k_i > d_i is 0. Input columns must lie within ``full``.
    Only integers are written into the source.
    """
    lines = ["def kernel(full, cols):"]
    loaded: set[int] = set()
    out = []
    for i, (ki, inputs) in enumerate(rows):
        d = len(inputs)
        if ki == 0 or ki > d:
            out.append("full" if ki == 0 else "0")
            continue
        # names[t] holds ge[t] (ge[0] = full is never read); ge[k_i] gets
        # its own name so it survives the rows after it
        names = ["full"] + [f"g{t:d}" for t in range(1, ki)] + [f"o{i:d}"]
        live = [False] * (ki + 1)
        for seen, j in enumerate(inputs, 1):
            if j not in loaded:
                loaded.add(j)
                lines.append(f"    c{j:d} = cols[{j:d}]")
            for t in range(min(seen, ki), max(0, ki - d + seen - 1), -1):
                term = f"c{j:d}" if t == 1 else f"{names[t - 1]} & c{j:d}"
                lines.append(f"    {names[t]} {'|=' if live[t] else '='} {term}")
                live[t] = True
        out.append(names[ki])
    lines.append(f"    return [{', '.join(out)}]")
    namespace: dict = {}
    exec(compile("\n".join(lines), "<column kernel>", "exec"), namespace)
    return namespace["kernel"]


def _set_bits(mask: int, base: int) -> Iterator[int]:
    """base + x for each set bit x of mask, ascending."""
    bits = bin(mask)[:1:-1]  # bits[x] is bit x
    x = bits.find("1")
    while x >= 0:
        yield base + x
        x = bits.find("1", x + 1)


def enumerate_limits(
    g: Graph, k: Sequence[int], *, guard_n: int = DEFAULT_GUARD_N
) -> LimitCensus:
    """Count the fixed points F and the 2-cycles T of the step map.

    The scan guard applies first, whatever the engine. F is the
    fixed-point counter's count on (g, k), and D its count on the
    bipartite double cover (nodes i and i + n, edges i-(j + n) and
    j-(i + n) per edge ij, thresholds k twice), whose fixed points are
    the pairs (a, b) with step(a) = b and step(b) = a, so D = F + 2T.
    The two searches share one budget of search nodes (tried
    assignments): half the scan's price, blocks x kernel operations / 2,
    with 2^max(n - 16, 0) blocks and ``compile_kernel``'s operation
    count. When the budget runs out, which an instance with many limit
    cycles does (the counter finds them one by one), the census is
    ``scan_limits`` after all. A counted census checks that D - F is
    even, that T = F(F - 1)/2 on a bipartite graph, and that 256 fixed
    starts, the all-W and all-B profiles among them, reach a cycle of
    length <= 2 within the transient envelope; only the scan checks
    that on every start. Any failed check raises
    InvariantViolationError.
    """
    k, kernel = _scan_input(g, k, guard_n)
    ops = sum((2 * ki - 1) * (d - ki + 1) - ki for ki, d in zip(k, g.degrees) if 0 < ki <= d)
    census = _count_limits(g, k, kernel, (1 << max(g.n - _BLOCK_BITS, 0)) * ops // 2)
    return _scan(g, kernel) if census is None else census


def scan_limits(
    g: Graph, k: Sequence[int], *, guard_n: int = DEFAULT_GUARD_N
) -> LimitCensus:
    """Scan all 2^n profiles and classify the limit structure.

    A profile a is a fixed point iff step(a) == a; an unordered pair
    {a, b} is a 2-cycle iff step(a) == b != a and step(b) == a. Per
    block, the masks come from f = step and f^2 applied to the columns.
    The 2-cycle ends E = {a : f(f(a)) = a != f(a)} satisfy f(E) = E,
    and f pairs them off, so there are |E| / 2 2-cycles. The scan also
    verifies that every profile reaches a cycle of length <= 2 within
    min(2^n, graph_core.default_guard(g)) steps, re-establishing the
    length-2 bound and the transient envelope on this instance rather
    than assuming them. ``enumerate_limits`` runs this scan when its
    budget runs out; ``verify`` and the tests call it directly as the
    all-start oracle.
    """
    return _scan(g, _scan_input(g, k, guard_n)[1])


def _scan_input(g: Graph, k: Sequence[int], guard_n: int):
    """(thresholds, compiled kernel), with the thresholds checked first
    and the scan size checked before the kernel is compiled."""
    k = validate_thresholds(g, k)
    check_scan_size(g.n, guard_n)
    return k, compile_kernel(zip(k, g.adjacency))


def _scan(g: Graph, kernel) -> LimitCensus:
    limit = min(1 << g.n, default_guard(g))
    fixed = ends = 0
    for _, full, x in column_blocks(g.n):
        f1 = kernel(full, x)
        f2 = kernel(full, f1)
        moved = returned = 0  # returned: bits where f^2(a) != a
        for xi, yi, zi in zip(x, f1, f2):
            moved |= xi ^ yi
            returned |= xi ^ zi
        fixed += (full ^ moved).bit_count()
        ends += (moved & ~returned).bit_count()
        _settle(kernel, full, x, f1, f2, limit)
    return LimitCensus(fixed, ends // 2, fixed + ends // 2)


def _settle(kernel, full: int, x: list[int], f1: list[int], f2: list[int], limit: int) -> None:
    """Raise InvariantViolationError unless every profile of the columns
    x reaches a cycle of length <= 2 within ``limit`` steps; f1 and f2
    are f and f^2 of x."""
    # f^(t+2) == f^t on every bit iff every profile reaches a cycle of
    # length <= 2 within t steps. Transients are shorter than 2^n, so at
    # limit 2^n only a longer cycle fails; a smaller limit also bounds
    # the transient.
    before, now, t = (x, f1), f2, 0
    while before[0] != now:
        if t == limit:
            raise InvariantViolationError(
                f"a profile is not on a cycle of length <= 2 after {limit} steps: either "
                "a limit cycle longer than 2 exists, contradicting the length-2 cycle "
                "bound, or a transient exceeds the 10(14|E| + 6n) + 4 step envelope; "
                "both indicate an implementation bug"
            )
        before, now, t = (before[1], now), kernel(full, now), t + 1


def _count_limits(g: Graph, k: tuple[int, ...], kernel, budget: int) -> LimitCensus | None:
    """The counted census of ``enumerate_limits``, or None when its
    searches together would take more than ``budget`` search nodes."""
    n = g.n
    counted = _count_by_components(g, k, budget)
    if counted is None:
        return None
    f, nodes = counted
    cover = build_graph(2 * n, cross_edges(g), require_connected=False)
    counted = _count_by_components(cover, k + k, budget - nodes)
    if counted is None:
        return None
    d = counted[0]
    if d < f or (d - f) % 2:
        raise InvariantViolationError(
            f"the double cover has {d} fixed points, not F + 2T for F = {f}"
        )
    t = (d - f) // 2
    if t != f * (f - 1) // 2 and is_bipartite(g):
        raise InvariantViolationError(
            f"{t} 2-cycles on a bipartite graph, not F(F-1)/2 for F = {f}"
        )
    rng = random.Random(0)
    full = (1 << _SAMPLE_STARTS) - 1
    # bit 0 of every column is the all-W start and bit 1 the all-B start
    x = [rng.getrandbits(_SAMPLE_STARTS) & ~1 | 2 for _ in range(n)]
    f1 = kernel(full, x)
    _settle(kernel, full, x, f1, kernel(full, f1), min(1 << n, default_guard(g)))
    return LimitCensus(f, t, f + t)


def _count_by_components(
    g: Graph, k: tuple[int, ...], budget: int
) -> tuple[int, int] | None:
    """``_count_fixed_points`` as the product of its counts on the
    connected components of (g, k), which share the budget. A profile is
    a fixed point iff its restriction to every component is one, so the
    counts multiply, and the search meets each component's fixed points
    once instead of their product: the cover of a bipartite graph is two
    copies of it, with F^2 fixed points."""
    seen = bytearray(g.n)
    count, nodes = 1, 0
    for part in [reach(g.adjacency, v, seen) for v in range(g.n) if not seen[v]]:
        part.sort()
        counted = _count_fixed_points(induced_subgraph(g, part), tuple(k[v] for v in part),
                                      budget - nodes)
        if counted is None:
            return None
        count *= counted[0]
        nodes += counted[1]
    return count, nodes


# ---------------------------------------------------------------------------
# Backtracking fixed-point counter


def count_fixed_points_backtracking(g: Graph, k: Sequence[int]) -> int:
    """Exact fixed-point count by depth-first search with constraint
    propagation.

    Fixed points are profiles where every node u satisfies
    a_u = [B-neighbor count >= k_u]. For each node, lo counts its B
    neighbors and hi adds its unassigned ones. After every assignment
    the rules below run on the assigned node and its neighbors until
    nothing changes:

      unassigned, lo >= k        forced B
      unassigned, hi < k         forced W
      B, hi < k                  contradiction
      B, hi == k                 every unassigned neighbor forced B
      W, lo >= k                 contradiction
      W, lo == k - 1             every unassigned neighbor forced W

    Propagation starts from the nodes that thresholds alone decide
    (k = 0 is B, k > d is W), and that first propagation cannot fail:
    the step is monotone, so it has a fixed point (Knaster-Tarski), and
    every fixed point takes the decided values and everything the rules
    propagate from them. The search branches on the unassigned node
    with the most assigned neighbors, ties going to the higher degree,
    then the lower id, and runs on an explicit stack, so its depth is
    not bounded by the interpreter's recursion limit. Scales well past
    the 2^n scan on gadget-shaped graphs.
    """
    return _count_fixed_points(g, validate_thresholds(g, k), None)[0]


def _count_fixed_points(
    g: Graph, k: tuple[int, ...], budget: int | None
) -> tuple[int, int] | None:
    """The counter's search on checked thresholds: (count, search nodes),
    where a search node is one value tried on a branch node, or None as
    soon as it would take more than ``budget`` of them (no limit when
    ``budget`` is None)."""
    limit = float("inf") if budget is None else budget
    nodes = 0
    n = g.n
    adjacency = g.adjacency
    degrees = g.degrees
    value = [-1] * n  # -1 unassigned, 0 W, 1 B
    lo = [0] * n  # assigned B neighbors
    free = list(degrees)  # unassigned neighbors; hi = lo + free

    def assign(pending: list[tuple[int, int]], trail: list[int]) -> bool:
        # Returns False on contradiction. The trail records every node
        # assigned, so undo can reverse its counter updates; a node's
        # updates are applied whole before any rule runs.
        while pending:
            v, b = pending.pop()
            if value[v] != -1:
                # then value[v] == b: a rule on v or a neighbour pushed (v, b),
                # and its condition only tightens (lo grows, hi shrinks), so
                # had v taken 1 - b, that node's rule would have failed then
                continue
            value[v] = b
            trail.append(v)
            nbrs = adjacency[v]
            for w in nbrs:
                free[w] -= 1
                if b:
                    lo[w] += 1
            for u in (v, *nbrs):
                val, l, ku = value[u], lo[u], k[u]
                h = l + free[u]
                if val == -1:
                    if l >= ku:
                        pending.append((u, 1))
                    elif h < ku:
                        pending.append((u, 0))
                elif val == 1:
                    if h < ku:
                        return False
                    if h == ku and free[u]:
                        pending.extend((w, 1) for w in adjacency[u] if value[w] == -1)
                else:
                    if l >= ku:
                        return False
                    if l == ku - 1 and free[u]:
                        pending.extend((w, 0) for w in adjacency[u] if value[w] == -1)
        return True

    def undo(trail: list[int]) -> None:
        for v in reversed(trail):
            b = value[v]
            value[v] = -1
            for w in adjacency[v]:
                free[w] += 1
                if b:
                    lo[w] -= 1

    width = max(degrees) + 1

    def branch_node() -> int:
        best, best_key = -1, -1
        for v in range(n):
            if value[v] == -1:
                key = (degrees[v] - free[v]) * width + degrees[v]
                if key > best_key:
                    best, best_key = v, key
        return best

    decided = [(v, 1) for v in range(n) if k[v] == 0]
    decided += [(v, 0) for v in range(n) if k[v] > degrees[v]]
    assign(decided, [])  # never fails; see the docstring
    u = branch_node()
    if u == -1:
        return 1, 0
    count = 0
    stack = [[u, 0, None]]  # frames: [node, next value, trail of the value tried last]
    while stack:
        frame = stack[-1]
        u, b, trail = frame
        if trail is not None:
            undo(trail)
        if b > 1:
            stack.pop()
            continue
        nodes += 1
        if nodes > limit:
            return None
        trail = []
        frame[1], frame[2] = b + 1, trail
        if assign([(u, b)], trail):
            v = branch_node()
            if v == -1:
                count += 1
            else:
                stack.append([v, 0, None])
    return count, nodes


# ---------------------------------------------------------------------------
# Predecessors, fixed points and reachability


def _matches(
    g: Graph, k: Sequence[int], a: int | None, guard_n: int
) -> Iterator[tuple[int, int]]:
    """Yield (base, mask) per block; bit x of mask is [step(base + x) == a],
    or [step(base + x) == base + x] when a is None. The inputs and the
    scan size are checked before the first block."""
    a = None if a is None else validate_profile(a, g.n)
    _, kernel = _scan_input(g, k, guard_n)
    for base, full, cols in column_blocks(g.n):
        target = cols if a is None else [full if a >> i & 1 else 0 for i in range(g.n)]
        diff = 0
        for c, t in zip(kernel(full, cols), target):
            diff |= c ^ t
        yield base, full ^ diff


def predecessors(
    g: Graph, k: Sequence[int], a: int, *, guard_n: int = DEFAULT_GUARD_N
) -> tuple[int, ...]:
    """All profiles b with step(b) == a, by scanning the 2^n space."""
    return tuple(b for base, mask in _matches(g, k, a, guard_n) for b in _set_bits(mask, base))


def fixed_points(
    g: Graph, k: Sequence[int], *, guard_n: int = DEFAULT_GUARD_N
) -> tuple[int, ...]:
    """All profiles a with step(a) == a, ascending, by scanning the 2^n
    space."""
    return tuple(a for base, mask in _matches(g, k, None, guard_n) for a in _set_bits(mask, base))


def count_predecessors(
    g: Graph, k: Sequence[int], a: int, *, guard_n: int = DEFAULT_GUARD_N
) -> int:
    """The number of profiles b with step(b) == a, counted per block, so
    the predecessors themselves are never built."""
    return sum(mask.bit_count() for _, mask in _matches(g, k, a, guard_n))


def is_reachable(
    g: Graph, k: Sequence[int], a: int, *, guard_n: int = DEFAULT_GUARD_N
) -> bool:
    """True iff a has at least one predecessor under step."""
    return any(mask for _, mask in _matches(g, k, a, guard_n))


# ---------------------------------------------------------------------------
# The fixed-point / cycle-class identity on bipartite instances


def bipartite_cycle_identity(g: Graph, k: Sequence[int]) -> LimitCensus:
    """Check cycle_classes == F(F-1)/2 + F on a bipartite instance and
    return the scan's census.

    F and T come from the all-start scan. Each pair of distinct fixed
    points is then spliced along the 2-partition; the two splices,
    stepped by the bit-count step map, must map onto each other, and the
    distinct splices must number T, so they are all the 2-cycles. Raises
    InvariantViolationError on mismatch, which would indicate an
    implementation bug rather than bad input.
    """
    k = validate_thresholds(g, k)
    part = two_partition(g)  # rejects non-bipartite inputs with a witness
    census = scan_limits(g, k)
    f = census.fixed_points
    predicted = f * (f - 1) // 2 + f
    if census.cycle_classes != predicted:
        raise InvariantViolationError(
            f"cycle classes {census.cycle_classes} != F(F-1)/2 + F = {predicted}"
        )
    odd_mask = sum(1 << i for i in part.p_odd)
    step = _bitcount_step(g, k)
    spliced = set()
    for a1, a2 in combinations(fixed_points(g, k), 2):
        b1 = (a2 & odd_mask) | (a1 & ~odd_mask)
        b2 = b1 ^ a1 ^ a2
        if step(b1) != b2 or step(b2) != b1:
            raise InvariantViolationError(
                f"the splice of fixed points {a1} and {a2} is not a 2-cycle"
            )
        spliced.add(min(b1, b2))
    if len(spliced) != census.two_cycles:
        raise InvariantViolationError(
            f"fixed-point splicing gave {len(spliced)} 2-cycles, not T = {census.two_cycles}"
        )
    return census


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
    n = as_int(n, "node count")
    if kind == "min":
        if n < 3 or n % 2 == 0:
            raise BadParameterError("kind='min' needs an odd n >= 3")
        k = (1,) * n
    elif kind == "max":
        if n % 3 != 0 or n < 6:
            raise BadParameterError("kind='max' needs n divisible by 3, n >= 6")
        k = tuple(2 if i % 3 == 2 else 1 for i in range(n))
    else:
        raise BadParameterError(f"unknown kind {kind!r}; expected 'min' or 'max'")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)]), k
