"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Exhaustive claims are checked with a vectorized engine that builds, for
one graph and a block of threshold vectors, the full successor table
over all 2^n profiles and composes it; random suites are seeded and
deterministic.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import partial
from itertools import product

import numpy as np
import pytest

from threshold_lab import (
    Formula,
    MONOTONE_2CNF,
    MONOTONE_2DNF,
    THREE_CNF,
    bipartite_expansion,
    build_extremal_cycle_instance,
    commutation_check,
    count_fixed_points_backtracking,
    count_sat,
    check_recovery,
    enumerate_limits,
    fix_reduction,
    greedy_upper_bound_q,
    integer_weights_to_unit,
    inverted_to_primary,
    is_bipartite,
    is_reachable,
    is_symmetric_model,
    make_step,
    one_step_symmetric_expansion,
    pred_reduction,
    reachable_pred_reduction,
    recover_sat_count,
    remove_self_loops,
    resilience_bruteforce,
    resilience_closed_form,
    signed_to_primary,
    step_weighted,
    symmetric_expansion,
)
from threshold_lab.instances import (
    connected_graphs,
    cycle_graph,
    random_connected_graph,
    random_signed_instance,
    random_small_blowup_instance,
    random_thresholds,
    random_weighted_instance,
    trees,
)

K_CHUNK = 8192


def report(num: int, ok: bool, desc: str, started: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" [{detail}]" if detail else ""
    print(f"criterion {num:2d}: {status}  {desc}{extra}  ({time.perf_counter() - started:.1f}s)")


# ---------------------------------------------------------------------------
# Vectorized engine: successor tables for blocks of threshold vectors


def count_table(g) -> np.ndarray:
    """cnt[i, a] = B-neighbor count of node i in profile a."""
    profiles = np.arange(1 << g.n, dtype=np.uint32)
    rows = []
    for i in range(g.n):
        c = np.zeros(1 << g.n, dtype=np.uint8)
        for j in g.adjacency[i]:
            c += ((profiles >> j) & 1).astype(np.uint8)
        rows.append(c)
    return np.stack(rows)


def successor_block(g, cnt: np.ndarray, kmat: np.ndarray) -> np.ndarray:
    nxt = np.zeros((kmat.shape[0], cnt.shape[1]), dtype=np.uint16)
    for i in range(g.n):
        nxt |= (cnt[i][None, :] >= kmat[:, i][:, None]).astype(np.uint16) << np.uint16(i)
    return nxt


def gather(f: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Pointwise composition of successor tables: (f o idx)[a] = f[idx[a]]."""
    return np.take_along_axis(f, idx, axis=1)


def table_power(f: np.ndarray, exponent: int) -> np.ndarray:
    result = None
    base = f
    while exponent:
        if exponent & 1:
            result = base if result is None else gather(result, base)
        base = gather(base, base)
        exponent >>= 1
    return result


def max_transient(f: np.ndarray, f2: np.ndarray, bound: int) -> int:
    """Exact max, over the block, of the time to reach a short cycle."""
    size = f.shape[1]
    on_short_cycle = f2 == np.arange(size, dtype=f.dtype)
    if on_short_cycle.all():
        return 0
    cur = f
    t = 1
    while not gather(on_short_cycle, cur).all():
        cur = gather(f, cur)
        t += 1
        if t > bound:
            raise AssertionError(f"transient exceeded {bound}")
    return t


def k_blocks(g, chunk: int = K_CHUNK):
    # k_i above d_i + 1 behaves exactly like d_i + 1 (the node never fires),
    # so this range covers every threshold distribution's behavior.
    combos = product(*(range(d + 2) for d in g.degrees))
    buf = []
    for k in combos:
        buf.append(k)
        if len(buf) == chunk:
            yield np.array(buf, dtype=np.int16)
            buf = []
    if buf:
        yield np.array(buf, dtype=np.int16)


def scan_graph(g, *, linear_bound: int | None = None):
    """Exhaustive (k, profile) verification on one graph.

    Returns (instances, max transient, identity violations) after
    asserting that every limit cycle has length <= 2, that transients
    respect 14|E| + 6n (and linear_bound when given), and, on bipartite
    graphs, the fixed-point/class-count identity for every k.
    """
    cnt = count_table(g)
    size = 1 << g.n
    quad_bound = 14 * g.num_edges + 6 * g.n
    bipartite = is_bipartite(g)
    profiles = np.arange(size, dtype=np.uint16)
    instances = 0
    worst = 0
    for kmat in k_blocks(g):
        f = successor_block(g, cnt, kmat)
        f2 = gather(f, f)
        limit = table_power(f, size)  # lands on the limit cycle from any start
        assert (gather(f2, limit) == limit).all(), "limit cycle longer than 2"
        delta = max_transient(f, f2, quad_bound)
        assert delta <= quad_bound
        if linear_bound is not None:
            assert delta <= linear_bound, f"transient {delta} exceeds {linear_bound}"
        worst = max(worst, delta)
        if bipartite:
            fixed = (f == profiles).sum(axis=1)
            two = ((f2 == profiles) & (f != profiles)).sum(axis=1) // 2
            assert (fixed + two == fixed * (fixed - 1) // 2 + fixed).all()
        instances += kmat.shape[0]
    return instances, worst


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_01_cycle_length_bound():
    started = time.perf_counter()
    instances = 0
    for n in range(1, 7):
        for g in connected_graphs(n):
            count, _ = scan_graph(g)
            instances += count
    report(
        1,
        True,
        "every limit cycle on all connected graphs n<=6, all k, all profiles has length <= 2",
        started,
        f"{instances} instances",
    )


def test_criterion_02_weighted_cycle_bound():
    started = time.perf_counter()
    rng = random.Random(202)
    worst_cycle = 0
    for _ in range(1000):
        w, k = random_weighted_instance(rng.randint(2, 6), rng)
        table = [step_weighted(w, k, a) for a in range(1 << w.n)]
        quad_bound = 14 * w.num_edges + 6 * w.n
        for a in range(1 << w.n):
            seen = {a: 0}
            cur = a
            while True:
                cur = table[cur]
                if cur in seen:
                    s = seen[cur]
                    cycle_len = len(seen) - s
                    worst_cycle = max(worst_cycle, cycle_len)
                    assert cycle_len <= 2, f"weighted cycle of length {cycle_len}"
                    assert s <= quad_bound
                    break
                seen[cur] = len(seen)
    report(
        2,
        True,
        "1000 random weighted instances (signed weights, self-loops): cycles <= 2",
        started,
        f"longest cycle {worst_cycle}",
    )


def test_criterion_03_convergence_time_bounds():
    started = time.perf_counter()
    worst = 0
    for n in range(1, 9):
        for g in trees(n):
            _, delta = scan_graph(g, linear_bound=g.n)
            worst = max(worst, delta)
    for n in (4, 6, 8):
        _, delta = scan_graph(cycle_graph(n), linear_bound=n)
        worst = max(worst, delta)
    report(
        3,
        True,
        "delta <= n on all trees n<=8 and even cycles {4,6,8}; delta <= 14|E|+6n everywhere",
        started,
        f"worst linear-case transient {worst}",
    )


def test_criterion_04_expansion_commutation():
    started = time.perf_counter()
    rng = random.Random(404)
    squares = 0
    for _ in range(500):
        g = random_connected_graph(rng.randint(2, 6), rng)
        k = random_thresholds(g, rng)
        profiles = range(1 << g.n)
        src = make_step(g, k)
        checks = [(bipartite_expansion(g, k), src), (symmetric_expansion(g, k), src)]
        if not is_symmetric_model(g, k):
            checks.append((one_step_symmetric_expansion(g, k), src))
        full = (1 << g.n) - 1
        checks.append((inverted_to_primary(g, k), lambda a: src(a) ^ full))
        for make, max_n, transform in (
            (random_signed_instance, 6, signed_to_primary),
            (random_small_blowup_instance, 5, integer_weights_to_unit),
            (random_weighted_instance, 6, remove_self_loops),
        ):
            w, kw = make(rng.randint(2, max_n), rng)
            checks.append((transform(w, kw), partial(step_weighted, w, kw)))
        for res, source in checks:
            src_profiles = profiles if source is src else range(1 << res.lift.source_n)
            ok, bad = commutation_check(source, res.target_step(), res.lift, src_profiles)
            assert ok, f"commutation violated at profile {bad}"
            squares += 1
    report(
        4,
        True,
        "lift o step == step' o lift for all seven transforms on 500 random instances",
        started,
        f"{squares} commuting squares",
    )


def test_criterion_05_function_of_fix_identity():
    # checked inside scan_graph for every bipartite graph of criterion 1;
    # re-run here standalone so the criterion has its own verdict
    started = time.perf_counter()
    instances = 0
    for n in range(1, 7):
        for g in connected_graphs(n):
            if not is_bipartite(g):
                continue
            count, _ = scan_graph(g)
            instances += count
    report(
        5,
        True,
        "cycle classes == F(F-1)/2 + F on every bipartite instance of criterion 1",
        started,
        f"{instances} bipartite instances",
    )


def _random_monotone_2dnf(rng) -> Formula:
    m = rng.randint(1, 2)
    n = rng.randint(1, min(4, 2 * m))
    while True:
        clauses = tuple(
            tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, min(2, n)))))
            for _ in range(m)
        )
        if {v for c in clauses for v in c} == set(range(1, n + 1)):
            return Formula(MONOTONE_2DNF, n, clauses)


def test_criterion_06_fix_reduction():
    started = time.perf_counter()
    anchor = fix_reduction(Formula(MONOTONE_2DNF, 2, ((1, 2),)))
    f_count = count_fixed_points_backtracking(anchor.graph, anchor.thresholds)
    assert f_count == 18 and recover_sat_count(f_count, 2) == (1, 3)
    rng = random.Random(606)
    for _ in range(50):
        f = _random_monotone_2dnf(rng)
        gadget = fix_reduction(f)
        assert gadget.graph.n <= 33
        count = count_fixed_points_backtracking(gadget.graph, gadget.thresholds)
        sat = count_sat(f)
        nsat = (1 << f.num_vars) - sat
        assert count == sat + 8 * (nsat - 1) + 1
        assert recover_sat_count(count, f.num_vars) == (sat, nsat)
    report(
        6,
        True,
        "fixed-point counts of 50 random 2-DNF gadgets invert exactly to #sat",
        started,
        "anchor (x1 AND x2) -> F=18, #sat=1",
    )


def test_criterion_07_pred_reduction():
    started = time.perf_counter()
    rng = random.Random(707)
    satisfiable = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        clauses = []
        for _ in range(m):
            size = rng.randint(1, min(3, n))
            variables = rng.sample(range(1, n + 1), size)
            clauses.append(tuple(sorted(v * rng.choice((1, -1)) for v in variables)))
        f = Formula(THREE_CNF, n, tuple(clauses))
        gadget = pred_reduction(f)
        assert gadget.graph.n <= 20
        reachable = is_reachable(gadget.graph, gadget.thresholds, gadget.target)
        assert reachable == (count_sat(f) > 0), f.clauses
        satisfiable += reachable
    report(
        7,
        True,
        "reachability == satisfiability on 200 random 3-CNF gadgets",
        started,
        f"{satisfiable} satisfiable",
    )


def test_criterion_08_reachable_pred_discrepancy():
    started = time.perf_counter()
    gadget = reachable_pred_reduction(Formula(MONOTONE_2CNF, 2, ((1, 2),)))
    ok = gadget.measured_count == 9 and gadget.claimed_count == 3
    report(
        8,
        ok,
        "predecessor-count gadget on (x1 OR x2) measures 9 against the intended 3",
        started,
        "documented discrepancy reproduced",
    )
    assert ok
    # the construction itself is sound: all-B is reachable, counts measured
    assert gadget.matches_claim is False


def test_criterion_09_resilience():
    started = time.perf_counter()
    from threshold_lab.instances import complete_graph, path_graph, star_graph

    computed = []
    for n in range(2, 7):
        for K in range(1, n + 1):
            mu = resilience_bruteforce(star_graph(n), K).mu
            assert mu == 1
            computed.append((star_graph(n), mu))
    for n in range(2, 6):
        for K in range(1, n + 1):
            mu = resilience_bruteforce(complete_graph(n), K).mu
            assert mu == resilience_closed_form("complete", n, K)
            computed.append((complete_graph(n), mu))
    for n in range(2, 7):
        for K in (1, 2):
            if K < (n + 1) // 2:
                mu = resilience_bruteforce(path_graph(n), K).mu
                assert mu == resilience_closed_form("path", n, K)
                computed.append((path_graph(n), mu))
    for n in (4, 5, 6):
        for K in sorted({1, 2, (n + 1) // 2}):
            mu = resilience_bruteforce(cycle_graph(n), K).mu
            assert mu == resilience_closed_form("cycle", n, K)
            computed.append((cycle_graph(n), mu))
    for g, mu in computed:
        assert 1 <= mu <= Fraction(g.n, 2)
    rng = random.Random(909)
    for _ in range(100):
        g = random_connected_graph(rng.randint(2, 8), rng)
        q = greedy_upper_bound_q(g)
        assert sum(q, Fraction(0)) <= Fraction(g.n, 2)
        ok, failing = check_recovery(g, q, g.n)
        assert ok, f"greedy failed from seed {failing} on {g.edges}"
    report(
        9,
        True,
        "brute-force mu matches closed forms; bounds hold; greedy recovers on 100 graphs",
        started,
        f"{len(computed)} family instances",
    )


def test_criterion_10_extremal_counting_instances():
    started = time.perf_counter()
    g, k = build_extremal_cycle_instance(5, "min")
    census = enumerate_limits(g, k)
    assert census.fixed_points == 2 and census.two_cycles == 0
    g, k = build_extremal_cycle_instance(6, "max")
    census = enumerate_limits(g, k)
    assert census.fixed_points >= 4 and census.two_cycles >= 3
    report(
        10,
        True,
        "(5, min) has exactly the 2 uniform fixed points; (6, max) has >= 4 fixed, >= 3 two-cycles",
        started,
        f"max instance: F={census.fixed_points}, 2-cycles={census.two_cycles}",
    )
