"""Update maps, trajectory iteration, and limit-cycle detection.

Every step map here is a pure function of its instance and the input
profile; repeated calls agree bit for bit. A single trajectory is
inherently sequential, but distinct instances may be iterated
concurrently without coordination.

Every rule is one weighted threshold rule on a ``Graph`` with
thresholds k beside it: types become thresholds through
``types_to_thresholds``, and the inverted rule (B iff at most k_i - 1
neighbors played B) is weights -1 with thresholds 1 - k_i. The
plain-Python references:
  step           node i plays B iff at least k_i neighbors played B
  step_types     node i plays B iff strictly more than q_i*d_i did
  step_restricted  apply the rule only on a node subset, freeze the rest
  step_weighted  signed-weight sums with optional self-loops, integer
                 thresholds that may be negative

``make_step`` is the unit-weight bit-count kernel. ``Rule`` holds any
weighted rule in numpy CSR arrays; ``limit_cycle`` runs it on a
vectorized engine that certifies period <= 2 with the Lyapunov energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

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
    as_thresholds,
    instance_from_dict,
    validate_profile,
    validate_thresholds,
    validate_types,
)

if TYPE_CHECKING:
    import numpy as np

StepMap = Callable[[int], int]


# perfbench/load_inputs.py imports the loader under this name for weighted
# files; instance_from_dict reads both formats.
weighted_graph_from_dict = instance_from_dict


# ---------------------------------------------------------------------------
# Step maps


def step(g: Graph, k: Sequence[int], a: int) -> int:
    """One synchronous update: out_i = B iff >= k_i neighbors of i play B in a."""
    k = validate_thresholds(g, k)
    a = validate_profile(a, g.n)
    out = 0
    for i in range(g.n):
        if (a & g.neighbor_masks[i]).bit_count() >= k[i]:
            out |= 1 << i
    return out


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
    k = validate_thresholds(g, k)
    masks, n = g.neighbor_masks, g.n

    def fn(a: int) -> int:
        out = 0
        for i in range(n):
            if (a & masks[i]).bit_count() >= k[i]:
                out |= 1 << i
        return out

    return fn


# ---------------------------------------------------------------------------
# The weighted threshold rule as CSR arrays


@dataclass(frozen=True, eq=False)
class Rule:
    """out_i = [sum_j w_ij x_j + l_i x_i >= k_i] as numpy arrays.

    Row i of the CSR triple (``indptr``, ``indices``, ``weights``) lists
    node i's neighbors j with their weights w_ij; ``loops`` holds the
    self-loop weights l_i and ``thresholds`` the k_i. Every rule of this
    module is one of these: threshold rules have unit weights, type rules
    go through ``types_to_thresholds``, and the inverted rule has weights
    -1 and thresholds 1 - k_i.

    The integer arrays are int64 when sum|w_ij| + sum|l_i| + 4 sum|k_i|
    + 2n < 2^62, a bound under which no prefix sum, field or energy term
    of ``limit_cycle`` can overflow; otherwise they hold Python ints
    (dtype object) and the same code runs exactly on them. Build one
    with ``from_graph``.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    loops: np.ndarray
    thresholds: np.ndarray

    @classmethod
    def from_graph(cls, g: Graph, k: Sequence[int]) -> Rule:
        """The rule of g under thresholds k: unit weights and no self-loops
        on an unweighted graph, the edge and self-loop weights otherwise."""
        import numpy as np

        k = _rule_thresholds(g, k)
        weight = {}
        for i, j, w in g.weighted_edges():
            weight[i, j] = weight[j, i] = w
        weights = [weight[i, j] for i, nbrs in enumerate(g.adjacency) for j in nbrs]
        loops = [0] * g.n
        for i, w in g.loops:
            loops[i] = w
        bound = sum(map(abs, weights)) + sum(map(abs, loops)) + 4 * sum(map(abs, k)) + 2 * g.n
        dtype = np.int64 if bound < 1 << 62 else object
        indptr = np.zeros(g.n + 1, dtype=np.int64)
        np.cumsum(g.degrees, out=indptr[1:])
        return cls(
            n=g.n,
            indptr=indptr,
            indices=np.array([j for nbrs in g.adjacency for j in nbrs], dtype=np.int64),
            weights=np.array(weights, dtype=dtype),
            loops=np.array(loops, dtype=dtype),
            thresholds=np.array(k, dtype=dtype),
        )


# ---------------------------------------------------------------------------
# Trajectories


@dataclass(frozen=True)
class LimitReport:
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
    vectorized engine, which stops at the first x(t+2) = x(t) and
    certifies period <= 2 at every step (see ``_rule_limit_cycle``). Any
    other step map is iterated by hashing every state with its
    first-visit time until a state repeats; that loop assumes nothing
    about cycle lengths and is the reference the engine is tested
    against.
    """
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
    """Iterate a Rule on numpy arrays until x(t+2) = x(t).

    The field is h = W x + l x with W the CSR weights, taken as
    differences of one prefix sum per step, and x' = (h >= k). The first
    t with x(t+2) = x(t) is the exact transient, and the cycle is x(t),
    or x(t) and x(t+1); only those states are converted back to ints, so
    memory stays constant along the trajectory.

    Certificate (Goles & Olivos 1981; Goles, Fogelman-Soulie & Pellegrin
    1985): with h(t-1) the field that produced x(t),
        2E(t) = -2 x(t).h(t-1) + (2k - 1).(x(t) + x(t-1)).
    For symmetric weights, 2E(t) - 2E(t+1) equals the sum over the nodes
    with x_i(t+1) != x_i(t-1) of |2 h_i(t) - 2 k_i + 1| >= 1, so 2E drops
    by at least the number of such nodes. Since 2E is bounded, a cycle
    longer than 2 would break this; each step checks it and raises
    InvariantViolationError if it fails.
    """
    import numpy as np

    n = rule.n
    a = validate_profile(a, n)
    idx, w, loops, k = rule.indices, rule.weights, rule.loops, rule.thresholds
    lo, hi = rule.indptr[:-1], rule.indptr[1:]
    c = 2 * k - 1
    prefix = np.zeros(len(idx) + 1, dtype=w.dtype)

    def field(x):
        np.cumsum(w * x[idx], out=prefix[1:])
        return prefix[hi] - prefix[lo] + loops * x

    nbytes = (n + 7) // 8
    x_prev = np.unpackbits(
        np.frombuffer(a.to_bytes(nbytes, "little"), dtype=np.uint8), count=n, bitorder="little"
    ).view(bool)
    h = field(x_prev)
    x = h >= k
    cx = int(c @ x)
    energy = -2 * int(x @ h) + cx + int(c @ x_prev)
    t = 0
    while True:
        # x_prev = x(t), x = x(t+1), energy = 2E(t+1)
        h = field(x)
        x_next = h >= k
        cx_next = int(c @ x_next)
        energy_next = -2 * int(x_next @ h) + cx_next + cx
        flips = int(np.count_nonzero(x_next != x_prev))
        if energy - energy_next < flips:
            raise InvariantViolationError(
                f"energy certificate failed at step {t + 2}: 2E went from {energy} to "
                f"{energy_next} while {flips} nodes differ from two steps before "
                "(the weights are not symmetric, or a cycle is longer than 2)"
            )
        if flips == 0:
            cycle = (x_prev,) if np.array_equal(x, x_prev) else (x_prev, x)
            if t + len(cycle) > guard + 1:
                raise GuardExceededError(f"trajectory exceeded guard of {guard} states")
            states = tuple(
                int.from_bytes(np.packbits(s, bitorder="little").tobytes(), "little")
                for s in cycle
            )
            return LimitReport(transient=t, cycle=states, trajectory_length=t + len(cycle))
        # x(t) lies before the cycle, so the trajectory has >= t + 2 states
        t += 1
        if t > guard:
            raise GuardExceededError(f"trajectory exceeded guard of {guard} states")
        x_prev, x, energy, cx = x, x_next, energy_next, cx_next


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
    neighborhood, so only those nodes are enumerated; the guard caps the
    local state count.
    """
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
    nbrs = g.adjacency[i]
    result = set()
    for action, bit in ((ACTION_B, 1), (ACTION_W, 0)):
        base = bit << i
        ok = True
        for pattern in range(1 << len(free)):
            a = base
            for pos, j in enumerate(free):
                if (pattern >> pos) & 1:
                    a |= 1 << j
            # two-step value of node i only
            cnt = 0
            for j in nbrs:
                if (a & g.neighbor_masks[j]).bit_count() >= k[j]:
                    cnt += 1
            if (1 if cnt >= k[i] else 0) != bit:
                ok = False
                break
        if ok:
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
    for _ in range(g.n):
        nxt = g.adjacency[cur][0] if g.adjacency[cur][0] != prev else g.adjacency[cur][1]
        succ[cur] = nxt
        pred[nxt] = cur
        prev, cur = cur, nxt
    if cur != 0:
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
