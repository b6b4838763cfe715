"""Update maps, trajectory iteration, and limit-cycle detection.

Every step map here is a pure function of its instance and the input
profile; repeated calls agree bit for bit. A single trajectory is
inherently sequential, but distinct instances may be iterated
concurrently without coordination.

Rules implemented:
  step           node i plays B iff at least k_i neighbors played B
  step_types     node i plays B iff strictly more than q_i*d_i did
  step_restricted  apply the rule only on a node subset, freeze the rest
  step_inverted  the pointwise complement of step (B iff at most k_i-1)
  step_weighted  signed-weight sums with optional self-loops, integer
                 thresholds that may be negative

``Rule`` holds any of these (restricted updates aside) as one weighted
threshold rule in numpy CSR arrays; ``limit_cycle`` runs it on a
vectorized engine that certifies period <= 2 with the Lyapunov energy.
The per-rule step maps stay as the plain-Python reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .errors import (
    BadParameterError,
    DisconnectedError,
    GuardExceededError,
    InvariantViolationError,
    LengthMismatchError,
    NodeOutOfRangeError,
    SelfLoopError,
    DuplicateEdgeError,
    WeightOutOfRangeError,
)
from .graph_core import (
    ACTION_B,
    ACTION_W,
    Graph,
    as_int,
    as_types,
    check_int_list,
    check_int_rows,
    types_to_thresholds,
    validate_profile,
    validate_thresholds,
    validate_types,
)

if TYPE_CHECKING:
    import numpy as np

StepMap = Callable[[int], int]


@dataclass(frozen=True)
class WeightedGraph:
    """Connected graph with nonzero symmetric integer edge weights.

    Self-loops carry their own integer weights; thresholds are integers
    and may be negative. ``adjacency[i]`` lists (neighbor, weight) pairs
    sorted by neighbor, excluding any self-loop, which lives in
    ``loop_weights[i]`` (0 when absent).
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]
    loop_weights: tuple[int, ...]
    thresholds: tuple[int, ...]
    adjacency: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def self_loops(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, w) for i, w in enumerate(self.loop_weights) if w != 0)

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])


def build_weighted_graph(
    n: int,
    weighted_edges: Iterable[Sequence[int]],
    self_loops: Iterable[Sequence[int]] = (),
    thresholds: Sequence[int] | None = None,
    *,
    require_connected: bool = True,
) -> WeightedGraph:
    n = as_int(n, "node count")
    if n < 1:
        raise BadParameterError(f"node count must be positive, got {n}")
    seen = set()
    canon = []
    for item in weighted_edges:
        i, j, w = (as_int(v, "weighted edge entry") for v in item)
        if not (0 <= i < n) or not (0 <= j < n):
            raise NodeOutOfRangeError(f"edge ({i},{j}) references a node outside 0..{n - 1}")
        if i == j:
            raise SelfLoopError(f"weighted edge ({i},{i}): self-loops go in the self_loops argument")
        if w == 0:
            raise WeightOutOfRangeError(f"edge ({i},{j}) has zero weight")
        e = (i, j) if i < j else (j, i)
        if e in seen:
            raise DuplicateEdgeError(f"duplicate edge ({e[0]},{e[1]})")
        seen.add(e)
        canon.append((e[0], e[1], w))
    canon.sort()
    loops = [0] * n
    for item in self_loops:
        i, w = (as_int(v, "self-loop entry") for v in item)
        if not 0 <= i < n:
            raise NodeOutOfRangeError(f"self-loop at node {i} outside 0..{n - 1}")
        if w == 0:
            raise WeightOutOfRangeError(f"self-loop at node {i} has zero weight")
        if loops[i] != 0:
            raise DuplicateEdgeError(f"duplicate self-loop at node {i}")
        loops[i] = w
    adj = [[] for _ in range(n)]
    for i, j, w in canon:
        adj[i].append((j, w))
        adj[j].append((i, w))
    adjacency = tuple(tuple(sorted(a)) for a in adj)
    if require_connected:
        seen_nodes = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v, _ in adjacency[u]:
                if v not in seen_nodes:
                    seen_nodes.add(v)
                    stack.append(v)
        if len(seen_nodes) != n:
            missing = min(set(range(n)) - seen_nodes)
            raise DisconnectedError(f"weighted graph is not connected: node {missing} unreachable")
    if thresholds is None:
        thresholds = (0,) * n
    thresholds = tuple(as_int(x, "threshold") for x in thresholds)
    if len(thresholds) != n:
        raise LengthMismatchError(f"threshold vector has length {len(thresholds)}, expected {n}")
    return WeightedGraph(
        n=n,
        edges=tuple(canon),
        loop_weights=tuple(loops),
        thresholds=thresholds,
        adjacency=adjacency,
    )


def with_thresholds(w: WeightedGraph, thresholds: Sequence[int]) -> WeightedGraph:
    thresholds = tuple(as_int(x, "threshold") for x in thresholds)
    if len(thresholds) != w.n:
        raise LengthMismatchError(f"threshold vector has length {len(thresholds)}, expected {w.n}")
    return WeightedGraph(
        n=w.n,
        edges=w.edges,
        loop_weights=w.loop_weights,
        thresholds=thresholds,
        adjacency=w.adjacency,
    )


def weighted_graph_to_dict(w: WeightedGraph) -> dict:
    return {
        "n": w.n,
        "weighted_edges": [list(e) for e in w.edges],
        "self_loops": [list(s) for s in w.self_loops],
        "thresholds": list(w.thresholds),
    }


def weighted_graph_from_dict(d: dict) -> WeightedGraph:
    """Decode a weighted instance; every number must be a JSON integer."""
    try:
        n = d["n"]
        edges = d["weighted_edges"]
    except (KeyError, TypeError) as exc:
        raise BadParameterError(f"malformed weighted instance: {exc}") from exc
    if type(n) is not int:
        raise BadParameterError(f"n must be an integer, got {n!r}")
    loops = d.get("self_loops", [])
    check_int_rows(edges, 3, "weighted_edges")
    check_int_rows(loops, 2, "self_loops")
    k = d.get("thresholds")
    if k is not None:
        check_int_list(k, "thresholds")
    return build_weighted_graph(n, edges, loops, k)


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
    form used by make_step_types is checked against.
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


def step_inverted(g: Graph, k: Sequence[int], a: int) -> int:
    """Inverted rule: out_i = B iff at most k_i - 1 neighbors play B.

    Pointwise complement of step(g, k, a) by construction.
    """
    k = validate_thresholds(g, k)
    a = validate_profile(a, g.n)
    return step(g, k, a) ^ ((1 << g.n) - 1)


def step_weighted(w: WeightedGraph, a: int) -> int:
    """Weighted rule: out_i = B iff sum of w_ij over B-playing j in N_i
    (self included when a self-loop exists) is >= the threshold of i."""
    a = validate_profile(a, w.n)
    out = 0
    for i in range(w.n):
        s = 0
        for j, wt in w.adjacency[i]:
            if (a >> j) & 1:
                s += wt
        if w.loop_weights[i] and (a >> i) & 1:
            s += w.loop_weights[i]
        if s >= w.thresholds[i]:
            out |= 1 << i
    return out


def weighted_types_to_thresholds(w: WeightedGraph, q: Sequence) -> tuple[int, ...]:
    """Integer thresholds equivalent to fractional types on a weighted graph.

    theta_i = q_i * sum of w_ij over N_i (self-loop included); the least
    integer with (sum >= k_i) <=> (sum > theta_i) is floor(theta_i) + 1.
    The input's own thresholds are ignored.
    """
    q = as_types(q)
    if len(q) != w.n:
        raise LengthMismatchError(f"type vector has length {len(q)}, expected {w.n}")
    out = []
    for i, qi in enumerate(q):
        total = sum(wt for _, wt in w.adjacency[i]) + w.loop_weights[i]
        theta = qi * total
        out.append(_floor_fraction(theta) + 1)
    return tuple(out)


def _floor_fraction(f: Fraction) -> int:
    return f.numerator // f.denominator


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


def make_step_types(g: Graph, q: Sequence) -> StepMap:
    """The type rule as the threshold rule with k = types_to_thresholds(g, q)."""
    return make_step(g, types_to_thresholds(g, q))


def make_step_inverted(g: Graph, k: Sequence[int]) -> StepMap:
    base = make_step(g, k)
    full = (1 << g.n) - 1
    return lambda a: base(a) ^ full


def make_step_weighted(w: WeightedGraph) -> StepMap:
    return lambda a: step_weighted(w, a)


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
    with ``from_graph`` or ``from_weighted``.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    loops: np.ndarray
    thresholds: np.ndarray

    @classmethod
    def from_graph(cls, g: Graph, k: Sequence[int]) -> Rule:
        """The threshold rule on g: unit weights, no self-loops."""
        k = validate_thresholds(g, k)
        rows = [[(j, 1) for j in nbrs] for nbrs in g.adjacency]
        return cls._build(g.n, rows, (0,) * g.n, k)

    @classmethod
    def from_weighted(cls, w: WeightedGraph) -> Rule:
        """The rule of a weighted instance, self-loops included."""
        return cls._build(w.n, w.adjacency, w.loop_weights, w.thresholds)

    @classmethod
    def _build(cls, n, rows, loops, k) -> Rule:
        import numpy as np

        weights = [wt for row in rows for _, wt in row]
        bound = sum(map(abs, weights)) + sum(map(abs, loops)) + 4 * sum(map(abs, k)) + 2 * n
        dtype = np.int64 if bound < 1 << 62 else object
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=indptr[1:])
        return cls(
            n=n,
            indptr=indptr,
            indices=np.array([j for row in rows for j, _ in row], dtype=np.int64),
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


def convergence_time_bound(g: Graph | WeightedGraph) -> int:
    """Upper envelope 14|E| + 6n on the convergence time, from chaining
    the expansion edge counts (|E''| <= 2|E'| <= 2[|E| + 3(2|E| + n)])."""
    return 14 * g.num_edges + 6 * g.n


def default_guard(g: Graph | WeightedGraph) -> int:
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
