"""Independent output checks, one per CLI command.

The checks never call threshold_lab: each recomputes the expected
answer from the input with its own code (a numpy successor table, a
numpy and a plain-Python step rule, brute-force model counts, closed
forms and a plain-Python recovery check). A check returns None when the
output is right and a one-line reason when it is wrong. They run after
the timed loop, so they cost no measured time.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from workloads import Job, degrees


def _parse_profile(text: str) -> list[int]:
    return [1 if ch == "B" else 0 for ch in text]


def _format_profile(x) -> str:
    return "".join("B" if v else "W" for v in x)


# ---------------------------------------------------------------------------
# census


def successor_table(n: int, edges, k) -> np.ndarray:
    """next[a] = step(a) for every profile a, by popcounts in numpy."""
    vals = np.arange(1 << n, dtype=np.uint32)
    masks = [0] * n
    for a, b in edges:
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    table = np.zeros_like(vals)
    for i in range(n):
        hit = np.bitwise_count(vals & np.uint32(masks[i])) >= k[i]
        table |= hit.astype(np.uint32) << np.uint32(i)
    return table


def census_counts(data: dict) -> tuple[int, int]:
    n = data["n"]
    table = successor_table(n, data["edges"], data["thresholds"])
    vals = np.arange(1 << n, dtype=np.uint32)
    fixed = int(np.count_nonzero(table == vals))
    on_two_cycle = int(np.count_nonzero((table[table] == vals) & (table != vals)))
    return fixed, on_two_cycle // 2


def check_census(job: Job, out: dict, expected) -> str | None:
    fixed, two = expected
    got = (out.get("fixed_points"), out.get("two_cycles"), out.get("cycle_classes"))
    if got != (fixed, two, fixed + two):
        return f"census {got} != expected {(fixed, two, fixed + two)}"
    if job.meta.get("family") == "bipartite" and fixed + two != fixed * (fixed - 1) // 2 + fixed:
        return f"bipartite identity fails: {fixed + two} classes for F = {fixed}"
    if job.meta.get("family") == "extremal":
        third = job.data["n"] // 3
        if fixed < 2**third or two < 2**third - 1:
            return f"extremal instance below 2^(n/3) bounds: F = {fixed}, T = {two}"
    return None


# ---------------------------------------------------------------------------
# trajectories


class Rule:
    """The synchronous rule of one instance as integer weights and
    thresholds: node i plays B iff sum_j w_ij x_j (+ loop_i x_i) >= k_i.
    Types q_i become k_i = floor(q_i d_i) + 1, the least integer count
    that strictly exceeds q_i d_i."""

    def __init__(self, data: dict):
        n = self.n = data["n"]
        loops = [0] * n
        if "weighted_edges" in data:
            triples = data["weighted_edges"]
            for v, w in data.get("self_loops", []):
                loops[v] = w
            k = list(data["thresholds"])
        else:
            triples = [(a, b, 1) for a, b in data["edges"]]
            if "types" in data:
                deg = degrees(n, data["edges"])
                k = [num * d // den + 1 for (num, den), d in zip(data["types"], deg)]
            else:
                k = list(data["thresholds"])
        self.num_edges = len(triples)
        self.adj = [[] for _ in range(n)]
        for a, b, w in triples:
            self.adj[a].append((b, w))
            self.adj[b].append((a, w))
        self.loops, self.k = loops, k
        rows = [i for i in range(n) for _ in self.adj[i]]
        self._rows = np.array(rows, dtype=np.int64)
        self._cols = np.array([j for i in range(n) for j, _ in self.adj[i]], dtype=np.int64)
        self._w = np.array([w for i in range(n) for _, w in self.adj[i]], dtype=np.int64)
        self._loops = np.array(loops, dtype=np.int64)
        self._k = np.array(k, dtype=np.int64)

    def step_np(self, x: np.ndarray) -> np.ndarray:
        h = np.bincount(self._rows, weights=self._w * x[self._cols], minlength=self.n)
        return (h.astype(np.int64) + self._loops * x >= self._k).astype(np.int64)

    def step_py(self, x: list[int]) -> list[int]:
        out = []
        for i in range(self.n):
            s = self.loops[i] * x[i]
            for j, w in self.adj[i]:
                if x[j]:
                    s += w
            out.append(1 if s >= self.k[i] else 0)
        return out

    def bound(self) -> int:
        return 14 * self.num_edges + 6 * self.n


def limit_np(rule: Rule, start: str):
    """(transient, cycle strings) of the trajectory from start, found as
    the first t with x(t+2) == x(t); None past the 14|E| + 6n bound."""
    x0 = np.array(_parse_profile(start), dtype=np.int64)
    x1 = rule.step_np(x0)
    for t in range(rule.bound() + 1):
        x2 = rule.step_np(x1)
        if np.array_equal(x2, x0):
            cycle = [x0] if np.array_equal(x1, x0) else [x0, x1]
            return t, [_format_profile(c) for c in cycle]
        x0, x1 = x1, x2
    return None


def check_simulate(job: Job, out: dict, expected) -> str | None:
    rule = Rule(job.data)
    cycle = out.get("cycle")
    if not isinstance(cycle, list) or not 1 <= len(cycle) <= 2:
        return f"cycle {cycle!r} is not a list of 1 or 2 profiles"
    states = [_parse_profile(c) for c in cycle]
    for a, b in zip(states, states[1:] + states[:1]):
        if rule.step_py(a) != b:
            return "the reported cycle does not close under the step rule"
    transient = out.get("transient")
    if not isinstance(transient, int) or not 0 <= transient <= rule.bound():
        return f"transient {transient!r} outside 0..14|E|+6n = {rule.bound()}"
    if expected is None:
        return "no limit of period <= 2 within 14|E| + 6n steps"
    want_t, want_cycle = expected
    if (transient, cycle) != (want_t, want_cycle):
        return f"trajectory (transient {transient}) != expected (transient {want_t})"
    if out.get("cycle_length") != len(cycle) or out.get("trajectory_length") != transient + len(cycle):
        return "cycle_length or trajectory_length disagrees with the cycle"
    return None


# ---------------------------------------------------------------------------
# counting


def count_models(data: dict) -> int:
    """Brute-force model count; DNF clauses are conjunctions, CNF
    clauses disjunctions, literals are +-(variable + 1)."""
    nv, clauses = data["n"], data["clauses"]
    dnf = data["variant"] == "monotone-2dnf"
    total = 0
    for bits in itertools.product((0, 1), repeat=nv):
        lits = [[bits[abs(x) - 1] == (x > 0) for x in c] for c in clauses]
        total += any(all(c) for c in lits) if dnf else all(any(c) for c in lits)
    return total


def covering_hub_colourings(data: dict) -> int:
    """Colourings of the clause nodes and the hub of the reachable-pred
    gadget under which every variable node has a B neighbour: all 2^m
    with the hub B, plus the clause subsets covering every variable."""
    nv, clauses = data["n"], [set(c) for c in data["clauses"]]
    covering = sum(
        1
        for mask in range(1 << len(clauses))
        if len(set().union(*(c for i, c in enumerate(clauses) if mask >> i & 1))) == nv
    )
    return (1 << len(clauses)) + covering


def check_reduce(job: Job, out: dict, sat: int) -> str | None:
    data, kind = job.data, job.meta["kind"]
    nv, m = data["n"], len(data["clauses"])
    size = {"fix": 3 * (nv + 3 * m + 1), "pred": 4 * nv + m + 1, "reachable-pred": nv + m + 1}[kind]
    if out.get("n") != size:
        return f"gadget has {out.get('n')} nodes, expected {size}"
    if kind == "fix":
        nsat = (1 << nv) - sat
        want = {"fixed_points": sat + 8 * (nsat - 1) + 1, "recovered_sat": sat,
                "recovered_nsat": nsat, "oracle_sat": sat, "match": True}
        if out.get("verification") != want:
            return f"fix verification {out.get('verification')} != {want}"
    elif kind == "pred":
        want = {"reachable": sat > 0, "satisfiable": sat > 0, "match": True}
        if out.get("verification") != want:
            return f"pred verification {out.get('verification')} != {want}"
    else:
        measured = sat * covering_hub_colourings(data)
        got = (out.get("claimed_predecessors"), out.get("measured_predecessors"))
        if got != (sat, measured):
            return f"reachable-pred (claimed, measured) {got} != {(sat, measured)}"
        if ("discrepancy" in out) != (measured != sat):
            return "the discrepancy note does not match the counts"
    return None


# ---------------------------------------------------------------------------
# resilience


def closed_form_mu(family: str, n: int, K: int) -> Fraction | None:
    if family == "cycle":
        return Fraction(n - n // (2 * K + 1), 2)
    if family == "path" and K < (n + 1) // 2:
        return Fraction(n - 1 - (n - 1) // (2 * K + 1), 2)
    return None


def recovers(data: dict, q: list[Fraction], K: int) -> bool:
    """Every profile with at most K B nodes reaches all-W under the
    strict type rule (B iff more than q_i d_i neighbours play B)."""
    n, edges = data["n"], data["edges"]
    deg = degrees(n, edges)
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    bars = [q[i] * deg[i] for i in range(n)]
    for size in range(1, min(K, n) + 1):
        for seed in itertools.combinations(range(n), size):
            x = tuple(1 if i in seed else 0 for i in range(n))
            seen = set()
            while any(x) and x not in seen:
                seen.add(x)
                x = tuple(1 if sum(x[j] for j in adj[i]) > bars[i] else 0 for i in range(n))
            if any(x):
                return False
    return True


def check_resilience(job: Job, out: dict, expected: None) -> str | None:
    data, K, family = job.data, job.meta["K"], job.meta["family"]
    n = data["n"]
    try:
        mu = Fraction(*out["mu"])
        q = [Fraction(*x) for x in out["witness_q"]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return "mu or witness_q missing or malformed"
    if not isinstance(out.get("evaluations"), int) or out["evaluations"] < 1:
        return f"evaluations {out.get('evaluations')!r} is not a positive count"
    deg = degrees(n, data["edges"])
    if len(q) != n or any((qi * d).denominator != 1 or not 0 <= qi <= 1 for qi, d in zip(q, deg)):
        return "witness_q is not on the grid {0, 1/d_i, ..., 1}"
    if sum(q, Fraction(0)) != mu:
        return f"witness sums to {sum(q, Fraction(0))}, not mu = {mu}"
    if not 1 <= mu <= Fraction(n, 2):
        return f"mu = {mu} outside the bounds [1, n/2]"
    want = closed_form_mu(family, n, K)
    if want is not None and mu != want:
        return f"mu = {mu} != closed form {want}"
    if not recovers(data, q, K):
        return "the witness q does not recover every profile with <= K B nodes"
    return None


CHECKS = {
    "enumerate": check_census,
    "simulate": check_simulate,
    "reduce": check_reduce,
    "resilience": check_resilience,
}


def expected_answer(job: Job):
    """The costly part of a check, computed once per distinct job."""
    if job.command == "enumerate":
        return census_counts(job.data)
    if job.command == "simulate":
        return limit_np(Rule(job.data), job.options[job.options.index("--initial") + 1])
    if job.command == "reduce":
        return count_models(job.data)
    return None


def check(job: Job, out, expected) -> str | None:
    """None when out is the right output of job, else the reason."""
    if not isinstance(out, dict):
        return "output is not a JSON object"
    return CHECKS[job.command](job, out, expected)
