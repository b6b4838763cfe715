"""Update maps, trajectory iteration, and limit-cycle detection.

Every step map here is a pure function of its instance and the input
profile; repeated calls agree bit for bit. A single trajectory is
inherently sequential, but distinct instances may be iterated
concurrently without coordination.

Every rule is one weighted threshold rule on a ``Graph`` with
thresholds k beside it: types become thresholds through
``types_to_thresholds``, and the inverted rule (B iff at most k_i - 1
neighbors played B) is weights -1 with thresholds 1 - k_i.

``step`` is one call of the unit-weight bit-count kernel (node i plays
B iff at least k_i neighbors played B), and ``step_restricted`` one on
a node subset. The kernel, ``make_step``, lives in ``graph_core`` with
the transient envelope ``convergence_time_bound`` and the guard
``default_guard``, so that the census and the resilience search run
without importing this module. The plain-Python references:
  step_types     node i plays B iff strictly more than q_i*d_i did
  step_weighted  signed-weight sums with optional self-loops, integer
                 thresholds that may be negative

``Rule`` holds any weighted rule as per-node reader lists;
``limit_cycle`` runs it on a frontier engine in Python ints that
re-tests only the nodes whose field changed and certifies period <= 2
with the Lyapunov energy.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import (
    BadParameterError,
    GuardExceededError,
    InvariantViolationError,
)
from .graph_core import (
    ACTION_B,
    ACTION_W,
    Graph,
    StepMap,
    as_int,
    as_iter,
    as_node,
    as_thresholds,
    default_guard,
    instance_from_dict,
    make_step,
    reach,
    validate_profile,
    validate_thresholds,
    validate_types,
)


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
    mask = 0
    for i in as_iter(p, "node set"):
        mask |= 1 << as_node(g, i)
    return (step(g, k, a) & mask) | (a & ~mask)


def step_weighted(g: Graph, k: Sequence[int], a: int) -> int:
    """Weighted rule: out_i = B iff the weights w_ij of the B-playing
    neighbors j, plus the self-loop weight of i when i plays B, sum to at
    least k_i. Unit weights on an unweighted graph."""
    k = as_thresholds(g, k)
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
        k = as_thresholds(g, k)
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
    a = as_int(a, "profile")
    if a < 0:
        raise BadParameterError(f"profile must be non-negative, got {a}")
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


def convergence_time(g: Graph, k: Sequence[int], a: int) -> int:
    """Steps from a to its limit cycle, under ``default_guard(g)``."""
    return limit_cycle(Rule.from_graph(g, k), a, default_guard(g)).transient


def conflict_links(g: Graph, a: int) -> int:
    """Number of bichromatic edges of g under profile a."""
    a = validate_profile(a, g.n)
    return sum(1 for i, j in g.edges if ((a >> i) ^ (a >> j)) & 1)


# ---------------------------------------------------------------------------
# Strong assignments


def strong_assignments(g: Graph, k: Sequence[int], i: int) -> frozenset[str]:
    """Actions that, once played by node i, recur every two steps no
    matter what the neighbors do.

    B is strong iff f^2(a)_i = B for every profile a in which i plays B,
    and W is strong iff f^2(a)_i = W for every a in which i plays W. Two
    extreme profiles decide both, so the check costs O(d_i).

    Proof: the step is monotone in the profile. If a contains a' and
    |N(j) & a'| >= k_j, then |N(j) & a| >= k_j, so f(a) contains f(a'),
    and f^2(a) contains f^2(a'). Every a in which i plays B contains
    {i}, so B is strong iff f^2({i})_i = B. Under {i} a neighbor j of i
    counts one B neighbor and plays B iff k_j <= 1, so B is strong iff
    at least k_i neighbors have k_j <= 1. Every a in which i plays W
    lies in V - {i}, so W is strong iff f^2(V - {i})_i = W. Under
    V - {i} a neighbor j counts d_j - 1 B neighbors and plays B iff
    k_j <= d_j - 1, so W is strong iff fewer than k_i neighbors do.
    """
    k = validate_thresholds(g, k)
    i = as_node(g, i)
    nbrs, degrees = g.adjacency[i], g.degrees
    result = set()
    if sum(k[j] <= 1 for j in nbrs) >= k[i]:
        result.add(ACTION_B)
    if sum(k[j] <= degrees[j] - 1 for j in nbrs) < k[i]:
        result.add(ACTION_W)
    return frozenset(result)


# ---------------------------------------------------------------------------
# Two-step decision table on cycle graphs (2-regular, thresholds in {1,2})

_OR = "or"
_AND = "and"

# (tau_p, tau_i, tau_s) -> two-step value of node i from (a_i, a_ss, a_pp),
# where p and s are i's neighbors and pp and ss the nodes beyond them.
# Swapping p with s and pp with ss maps every row to itself, so the
# table needs no orientation of the cycle.
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


def _beyond(g: Graph, prev: int, cur: int) -> int:
    """The neighbor of cur other than prev, on a 2-regular graph."""
    first, second = g.adjacency[cur]
    return second if first == prev else first


def ring_two_step(g: Graph, k: Sequence[int], a: int, i: int) -> int:
    """Predicted (step^2 a)_i on a cycle graph with thresholds in {1,2},
    straight from the eight-row or/and decision table."""
    k = validate_thresholds(g, k)
    a = validate_profile(a, g.n)
    if any(ki not in (1, 2) for ki in k):
        raise BadParameterError("ring table requires thresholds in {1, 2}")
    i = as_node(g, i)
    if any(d != 2 for d in g.degrees):
        raise BadParameterError("ring orientation requires a 2-regular graph")
    # a 2-regular graph is one cycle iff it is connected
    if len(reach(g.adjacency, 0, bytearray(g.n))) != g.n:
        raise BadParameterError("2-regular graph is not a single cycle")
    p, s = g.adjacency[i]
    key = tuple(_OR if k[j] == 1 else _AND for j in (p, i, s))
    ai = (a >> i) & 1
    ass = (a >> _beyond(g, i, s)) & 1
    app = (a >> _beyond(g, i, p)) & 1
    return _RING_TABLE[key](ai, ass, app)
