"""Update maps, trajectory iteration, and limit-cycle detection.

Every step map here is a pure function of its instance and the input
profile; repeated calls agree bit for bit. A single trajectory is
inherently sequential, but distinct instances may be iterated
concurrently without coordination.

Every rule is one weighted threshold rule on a ``Graph`` with
thresholds k beside it: types become thresholds through
``types_to_thresholds``, and the inverted rule (B iff at most k_i - 1
neighbors played B) is weights -1 with thresholds 1 - k_i.

``make_step`` is the unit-weight bit-count kernel (node i plays B iff
at least k_i neighbors played B), and ``step`` one call of it. The
plain-Python references:
  step_types     node i plays B iff strictly more than q_i*d_i did
  step_restricted  apply the rule only on a node subset, freeze the rest
  step_weighted  signed-weight sums with optional self-loops, integer
                 thresholds that may be negative

``Rule`` holds any weighted rule as per-node reader lists;
``limit_cycle`` runs it on a frontier engine in Python ints that
re-tests only the nodes whose field changed and certifies period <= 2
with the Lyapunov energy.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import (
    BadParameterError,
    GuardExceededError,
    InvariantViolationError,
    NodeOutOfRangeError,
)
from .graph_core import (
    ACTION_B,
    ACTION_W,
    Graph,
    as_int,
    as_thresholds,
    instance_from_dict,
    validate_profile,
    validate_thresholds,
    validate_types,
)

StepMap = Callable[[int], int]


# perfbench/load_inputs.py imports the loader under this name for weighted
# files; instance_from_dict reads both formats.
weighted_graph_from_dict = instance_from_dict


# ---------------------------------------------------------------------------
# Step maps


def step(g: Graph, k: Sequence[int], a: int) -> int:
    """One synchronous update: out_i = B iff >= k_i neighbors of i play B in a."""
    return make_step(g, k)(validate_profile(a, g.n))


def step_types(g: Graph, q: Sequence, a: int) -> int:
    """Type rule: out_i = B iff strictly more than q_i * d_i neighbors play B.

    Compares Fractions literally; it is the reference that the threshold
    form k = types_to_thresholds(g, q) is checked against.
    """
    q = validate_types(g, q)
    a = validate_profile(a, g.n)
    out = 0
    for i in range(g.n):
        if (a & g.neighbor_masks[i]).bit_count() > q[i] * g.degrees[i]:
            out |= 1 << i
    return out


def step_restricted(g: Graph, k: Sequence[int], a: int, p: Iterable[int]) -> int:
    """Update only the nodes in p; every other node keeps its action."""
    k = validate_thresholds(g, k)
    a = validate_profile(a, g.n)
    out = a
    for i in p:
        if not 0 <= i < g.n:
            raise NodeOutOfRangeError(f"node {i} outside 0..{g.n - 1}")
        if (a & g.neighbor_masks[i]).bit_count() >= k[i]:
            out |= 1 << i
        else:
            out &= ~(1 << i)
    return out


def step_weighted(g: Graph, k: Sequence[int], a: int) -> int:
    """Weighted rule: out_i = B iff the weights w_ij of the B-playing
    neighbors j, plus the self-loop weight of i when i plays B, sum to at
    least k_i. Unit weights on an unweighted graph."""
    k = _rule_thresholds(g, k)
    a = validate_profile(a, g.n)
    field = [0] * g.n
    for i, j, w in g.weighted_edges():
        if (a >> j) & 1:
            field[i] += w
        if (a >> i) & 1:
            field[j] += w
    for i, w in g.loops:
        if (a >> i) & 1:
            field[i] += w
    out = 0
    for i in range(g.n):
        if field[i] >= k[i]:
            out |= 1 << i
    return out


def _rule_thresholds(g: Graph, k: Sequence[int]) -> tuple[int, ...]:
    # the weighted rule allows thresholds of any sign
    return validate_thresholds(g, k) if g.weights is None else as_thresholds(g, k)


def make_step(g: Graph, k: Sequence[int]) -> StepMap:
    return _bitcount_step(g, validate_thresholds(g, k))


def _bitcount_step(g: Graph, k: Sequence[int]) -> StepMap:
    """make_step without validation, for thresholds the caller built as
    non-negative ints of length g.n on an unweighted g."""
    masks, n = g.neighbor_masks, g.n

    def fn(a: int) -> int:
        out = 0
        for i in range(n):
            if (a & masks[i]).bit_count() >= k[i]:
                out |= 1 << i
        return out

    return fn


# ---------------------------------------------------------------------------
# The weighted threshold rule as reader lists


class Rule(NamedTuple):
    """out_i = [sum_j w_ij x_j + l_i x_i >= k_i] on Python ints.

    ``readers[j]`` lists the pairs (i, w_ij) whose field reads x_j, with
    a self-loop as (j, l_j); ``thresholds`` holds the k_i. Every rule of
    this module is one of these: threshold rules have unit weights, type
    rules go through ``types_to_thresholds``, and the inverted rule has
    weights -1 and thresholds 1 - k_i. Build one with ``from_graph``.
    """

    n: int
    readers: tuple[tuple[tuple[int, int], ...], ...]
    thresholds: tuple[int, ...]

    @classmethod
    def from_graph(cls, g: Graph, k: Sequence[int]) -> Rule:
        """The rule of g under thresholds k: unit weights and no self-loops
        on an unweighted graph, the edge and self-loop weights otherwise."""
        k = _rule_thresholds(g, k)
        readers: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
        for i, j, w in g.weighted_edges():
            readers[i].append((j, w))
            readers[j].append((i, w))
        for i, w in g.loops:
            readers[i].append((i, w))
        return cls(n=g.n, readers=tuple(map(tuple, readers)), thresholds=k)


# ---------------------------------------------------------------------------
# Trajectories


class LimitReport(NamedTuple):
    """Transient length plus the limit cycle reached from a start profile.

    ``transient`` is the minimal number of iterations before entering the
    limit set; ``cycle`` lists the cycle states in visit order (applying
    the step map to the last one returns the first);
    ``trajectory_length`` counts the distinct states visited.
    """

    transient: int
    cycle: tuple[int, ...]
    trajectory_length: int


def convergence_time_bound(g: Graph) -> int:
    """Upper envelope 14|E| + 6n on the convergence time, from chaining
    the expansion edge counts (|E''| <= 2|E'| <= 2[|E| + 3(2|E| + n)])."""
    return 14 * g.num_edges + 6 * g.n


def default_guard(g: Graph) -> int:
    return 10 * convergence_time_bound(g) + 4


def limit_cycle(step_map: StepMap | Rule, a: int, guard: int) -> LimitReport:
    """The limit cycle reached from a, with its exact transient.

    Succeeds iff the trajectory visits at most guard + 1 distinct
    states; otherwise raises GuardExceededError. A ``Rule`` runs the
    frontier engine, which stops at the first x(t+2) = x(t) and
    certifies period <= 2 at every step (see ``_rule_limit_cycle``). Any
    other step map is iterated by hashing every state with its
    first-visit time until a state repeats; that loop assumes nothing
    about cycle lengths and is the reference the engine is tested
    against.
    """
    guard = as_int(guard, "guard")
    if guard < 1:
        raise BadParameterError(f"guard must be >= 1, got {guard}")
    if isinstance(step_map, Rule):
        return _rule_limit_cycle(step_map, a, guard)
    seen = {a: 0}
    seq = [a]
    cur = a
    while True:
        cur = step_map(cur)
        if cur in seen:
            s = seen[cur]
            return LimitReport(transient=s, cycle=tuple(seq[s:]), trajectory_length=len(seq))
        if len(seq) > guard:
            raise GuardExceededError(f"trajectory exceeded guard of {guard} states")
        seen[cur] = len(seq)
        seq.append(cur)


def _rule_limit_cycle(rule: Rule, a: int, guard: int) -> LimitReport:
    """Iterate a Rule on Python ints until x(t+2) = x(t).

    Slot t % 2 holds x(t) as a 0/1 list and the field h(t) = W x(t)
    + l x(t) it produces, so x(t+2) = [h(t+1) >= k] overwrites x(t) in
    place. x_i(t+2) can differ from x_i(t) only if i reads a node j with
    x_j(t+1) != x_j(t-1), so each step tests only the readers of the
    nodes that moved in the step before, and flipping a node updates
    only the fields of its readers. The first t with x(t+2) = x(t) is
    the exact transient, and the cycle is x(t), or x(t) and x(t+1).

    Certificate (Goles & Olivos 1981; Goles, Fogelman-Soulie & Pellegrin
    1985): with h(t-1) the field that produced x(t),
        2E(t) = -2 x(t).h(t-1) + (2k - 1).(x(t) + x(t-1)).
    For symmetric weights, 2E(t) - 2E(t+1) equals the sum over the nodes
    with x_i(t+1) != x_i(t-1) of |2 h_i(t) - 2 k_i + 1| >= 1, so 2E drops
    by at least the number of such nodes. Since 2E is bounded, a cycle
    longer than 2 would break this; each step checks it and raises
    InvariantViolationError if it fails. The sums s[p] = x[p].h[1 - p]
    and cx[p] = (2k - 1).x[p] are kept up to date node by node, without
    assuming symmetric weights.
    """
    n, readers, k = rule.n, rule.readers, rule.thresholds
    a = validate_profile(a, n)
    c = [2 * ki - 1 for ki in k]
    x, h = [[0] * n, [0] * n], [[0] * n, [0] * n]
    s, cx = [0, 0], [0, 0]

    def flip(p: int, nodes: Iterable[int]) -> None:
        # flip x[p] at nodes; bring h[p], cx[p] and both s up to date
        xp, hp, xq, hq = x[p], h[p], x[1 - p], h[1 - p]
        dc = ds = dq = 0
        for j in nodes:
            xp[j] ^= 1
            sign = 1 if xp[j] else -1
            dc += sign * c[j]
            ds += sign * hq[j]
            for i, w in readers[j]:
                w *= sign
                hp[i] += w
                if xq[i]:
                    dq += w
        cx[p] += dc
        s[p] += ds
        s[1 - p] += dq

    bits = bin(a)[:1:-1]
    flip(0, [i for i, b in enumerate(bits) if b == "1"])
    flip(1, [i for i in range(n) if h[0][i] >= k[i]])
    energy = -2 * s[1] + cx[0] + cx[1]
    t, cand = 0, range(n)
    while True:
        # slot p holds x(t), slot 1 - p holds x(t+1), energy = 2E(t+1)
        p = t & 1
        xp, hq = x[p], h[1 - p]
        moved = [i for i in cand if (hq[i] >= k[i]) != xp[i]]
        flip(p, moved)
        energy_next = -2 * s[p] + cx[0] + cx[1]
        if energy - energy_next < len(moved):
            raise InvariantViolationError(
                f"energy certificate failed at step {t + 2}: 2E went from {energy} to "
                f"{energy_next} while {len(moved)} nodes differ from two steps before "
                "(the weights are not symmetric, or a cycle is longer than 2)"
            )
        if not moved:
            cycle = (xp,) if xp == x[1 - p] else (xp, x[1 - p])
            if t + len(cycle) > guard + 1:
                raise GuardExceededError(f"trajectory exceeded guard of {guard} states")
            states = tuple(int("".join(map(str, xs[::-1])), 2) for xs in cycle)
            return LimitReport(transient=t, cycle=states, trajectory_length=t + len(cycle))
        # x(t) lies before the cycle, so the trajectory has >= t + 2 states
        t += 1
        if t > guard:
            raise GuardExceededError(f"trajectory exceeded guard of {guard} states")
        energy = energy_next
        cand = {i for j in moved for i, _ in readers[j]}


def convergence_time(g: Graph, k: Sequence[int], a: int, guard: int | None = None) -> int:
    if guard is None:
        guard = default_guard(g)
    return limit_cycle(Rule.from_graph(g, k), a, guard).transient


def conflict_links(g: Graph, a: int) -> int:
    """Number of bichromatic edges of g under profile a."""
    a = validate_profile(a, g.n)
    return sum(1 for i, j in g.edges if ((a >> i) ^ (a >> j)) & 1)


# ---------------------------------------------------------------------------
# Strong assignments


def strong_assignments(
    g: Graph, k: Sequence[int], i: int, *, guard_states: int = 1 << 22
) -> frozenset[str]:
    """Actions that, once played by node i, recur every two steps no
    matter what the neighbors do.

    The two-step value of node i depends only on its closed radius-2
    neighborhood, so only those nodes are enumerated, as bit-sliced
    columns through two compiled column kernels: the neighbors' step,
    then node i's; the guard caps the local state count.
    """
    from .enumeration import column_blocks, compile_kernel

    k = validate_thresholds(g, k)
    if not 0 <= i < g.n:
        raise NodeOutOfRangeError(f"node {i} outside 0..{g.n - 1}")
    region = {i}
    for j in g.adjacency[i]:
        region.add(j)
        region.update(g.adjacency[j])
    free = sorted(region - {i})
    if 1 << len(free) > guard_states:
        raise GuardExceededError(
            f"radius-2 neighborhood of node {i} needs 2^{len(free)} local states"
        )
    # local column x is free node free[x]; node i is the last column
    local = {v: x for x, v in enumerate(free)}
    local[i] = len(free)
    nbrs = g.adjacency[i]
    first = compile_kernel((k[j], [local[v] for v in g.adjacency[j]]) for j in nbrs)
    second = compile_kernel([(k[i], range(len(nbrs)))])
    result = set()
    for action, bit in ((ACTION_B, 1), (ACTION_W, 0)):
        # strong iff node i's column of f^2 equals its own constant column
        for _, full, cols in column_blocks(len(free)):
            own = full if bit else 0
            if second(full, first(full, cols + [own]))[0] != own:
                break
        else:
            result.add(action)
    return frozenset(result)


# ---------------------------------------------------------------------------
# Two-step decision table on cycle graphs (2-regular, thresholds in {1,2})

_OR = "or"
_AND = "and"

# (tau_p, tau_i, tau_s) -> two-step value of node i from (a_i, a_ss, a_pp)
_RING_TABLE = {
    (_OR, _OR, _OR): lambda ai, ass, app: ai | (ass | app),
    (_OR, _OR, _AND): lambda ai, ass, app: ai | app,
    (_OR, _AND, _OR): lambda ai, ass, app: ai | (ass & app),
    (_OR, _AND, _AND): lambda ai, ass, app: ai & ass,
    (_AND, _OR, _OR): lambda ai, ass, app: ai | ass,
    (_AND, _OR, _AND): lambda ai, ass, app: ai & (ass | app),
    (_AND, _AND, _OR): lambda ai, ass, app: ai & app,
    (_AND, _AND, _AND): lambda ai, ass, app: ai & (ass & app),
}


def ring_orientation(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Successor/predecessor maps of a 2-regular connected graph.

    Deterministic: node 0's successor is its smaller neighbor.
    """
    if any(d != 2 for d in g.degrees):
        raise BadParameterError("ring orientation requires a 2-regular graph")
    succ = [-1] * g.n
    pred = [-1] * g.n
    prev, cur = g.adjacency[0][1], 0
    # on a 2-regular graph the walk returns to node 0 after the length
    # of node 0's cycle
    for length in range(1, g.n + 1):
        nxt = g.adjacency[cur][0] if g.adjacency[cur][0] != prev else g.adjacency[cur][1]
        succ[cur] = nxt
        pred[nxt] = cur
        prev, cur = cur, nxt
        if cur == 0:
            break
    if length != g.n:
        raise BadParameterError("2-regular graph is not a single cycle")
    return tuple(succ), tuple(pred)


def ring_two_step(g: Graph, k: Sequence[int], a: int, i: int) -> int:
    """Predicted (step^2 a)_i on a cycle graph with thresholds in {1,2},
    straight from the eight-row or/and decision table."""
    k = validate_thresholds(g, k)
    a = validate_profile(a, g.n)
    if any(ki not in (1, 2) for ki in k):
        raise BadParameterError("ring table requires thresholds in {1, 2}")
    succ, pred = ring_orientation(g)
    tau = tuple(_OR if ki == 1 else _AND for ki in k)
    key = (tau[pred[i]], tau[i], tau[succ[i]])
    ai = (a >> i) & 1
    ass = (a >> succ[succ[i]]) & 1
    app = (a >> pred[pred[i]]) & 1
    return _RING_TABLE[key](ai, ass, app)
