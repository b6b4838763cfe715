import heapq
import re
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import pytest

from threshold_lab import (
    BadParameterError,
    GuardExceededError,
    InvariantViolationError,
    ResilienceResult,
    build_graph,
    check_recovery,
    greedy_upper_bound_q,
    resilience_bruteforce,
    resilience_closed_form,
    step,
    step_types,
    types_to_thresholds,
)
from threshold_lab.instances import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from threshold_lab.resilience import _check_recovery_counted, _failure_box, _seed_list

H = Fraction(1, 2)


def type_grid(g):
    """The quantized types q_i in {0, 1/d_i, ..., 1} of each node."""
    return [tuple(Fraction(m, d or 1) for m in range(d + 1)) for d in g.degrees]


def reference_recovers(g, q, K):
    """Test-local recovery check on the literal Fraction type rule."""
    for size in range(K + 1):
        for nodes in combinations(range(g.n), size):
            cur, seen = sum(1 << i for i in nodes), set()
            while cur not in seen:
                seen.add(cur)
                cur = step_types(g, q, cur)
            if cur != 0:  # the walk closed a cycle without reaching all-W
                return False
    return True


def reference_resilience(g, K):
    """Least (||q||_1, digits) over every grid point that recovers."""
    grid = type_grid(g)
    points = []
    for digits in product(*(range(len(c)) for c in grid)):
        q = tuple(grid[i][m] for i, m in enumerate(digits))
        points.append((sum(q, Fraction(0)), digits, q))
    for total, _, q in sorted(points):
        if reference_recovers(g, q, K):
            return total, q
    raise AssertionError("q == 1 everywhere always recovers")


def reference_best_first(g, K):
    """The search that preceded the A* one: every candidate in (key,
    digits) order, pruned only by the greedy bound, checked in full."""
    grid = type_grid(g)
    seeds = _seed_list(g.n, K)
    L = lcm(*(d for d in g.degrees if d))
    weights = [L // d if d else 0 for d in g.degrees]
    evaluations = 0

    bound = g.n * L  # q == 1 everywhere always recovers
    greedy = greedy_upper_bound_q(g)
    ok, _, n_checked = _check_recovery_counted(g, types_to_thresholds(g, greedy), seeds)
    evaluations += n_checked
    if ok:
        bound = min(bound, int(sum(greedy) * L))

    heap = [(0, ())]
    while heap:
        key, digits = heapq.heappop(heap)
        if key > bound:
            continue
        i = len(digits)
        if i == g.n:
            ok, _, n_checked = _check_recovery_counted(g, [m + 1 for m in digits], seeds)
            evaluations += n_checked
            if ok:
                q = tuple(grid[j][m] for j, m in enumerate(digits))
                return ResilienceResult(mu=Fraction(key, L), witness_q=q, evaluations=evaluations)
            continue
        w = weights[i]
        for m in range(len(grid[i])):
            s = key + m * w
            if s > bound:
                break
            heapq.heappush(heap, (s, digits + (m,)))
    raise InvariantViolationError("no recovering type distribution found on the grid")


def recovers_from(g, k, seed):
    """Does the walk from seed under thresholds k reach all-W?"""
    cur, seen = seed, set()
    while cur not in seen:
        seen.add(cur)
        cur = step(g, k, cur)
    return cur == 0


class TestCheckRecovery:
    def test_all_ones_always_recovers(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng.randint(2, 6), rng)
            ok, failing = check_recovery(g, (1,) * g.n, g.n)
            assert ok and failing is None

    def test_star_center_one(self):
        g = star_graph(5)
        ok, _ = check_recovery(g, (1, 0, 0, 0, 0), 5)
        assert ok

    def test_four_cycle_all_zero_fails(self, four_cycle):
        ok, failing = check_recovery(four_cycle, (0, 0, 0, 0), 1)
        assert not ok
        assert failing == 0b0001  # first single-B seed already persists

    def test_zero_budget_and_seed_guard(self, four_cycle):
        with pytest.raises(BadParameterError):
            check_recovery(four_cycle, (0, 0, 0, 0), 0)
        # 2,369,936 profiles with at most 5 of 50 nodes playing B
        with pytest.raises(GuardExceededError, match="2369936 seed profiles"):
            check_recovery(path_graph(50), (0,) * 50, 5)

    def test_grid_problem_shape(self, four_cycle):
        # the budget is clamped to n, and the witness lies on the grid
        res = resilience_bruteforce(four_cycle, 9)
        assert res == resilience_bruteforce(four_cycle, 4)
        assert set(res.witness_q) <= {Fraction(0), H, Fraction(1)}


class TestClosedForms:
    def test_path_examples(self):
        assert resilience_closed_form("path", 5, 1) == Fraction(3, 2)
        assert resilience_closed_form("path", 6, 2) == 2

    def test_cycle_examples(self):
        assert resilience_closed_form("cycle", 6, 1) == 2
        assert resilience_closed_form("cycle", 6, 3) == 3  # n/2 at K >= ceil(n/2)

    def test_complete_example(self):
        assert resilience_closed_form("complete", 4, 2) == Fraction(5, 3)

    def test_star(self):
        for n in range(2, 7):
            for K in range(1, n + 1):
                assert resilience_closed_form("star", n, K) == 1

    def test_path_out_of_range(self):
        with pytest.raises(BadParameterError,
                           match=re.escape("path formula holds only for K < ceil(n/2) = 3")):
            resilience_closed_form("path", 5, 3)

    def test_unknown_family(self):
        with pytest.raises(BadParameterError):
            resilience_closed_form("hypercube", 8, 1)


class TestBruteForce:
    def test_star_meets_lower_bound(self):
        for n in (3, 4, 5):
            for K in (1, n):
                res = resilience_bruteforce(star_graph(n), K)
                assert res.mu == 1
                ok, _ = check_recovery(star_graph(n), res.witness_q, K)
                assert ok

    def test_complete_four_formula(self):
        res = resilience_bruteforce(complete_graph(4), 2)
        assert res.mu == Fraction(5, 3)

    def test_six_cycle_meets_upper_bound(self):
        res = resilience_bruteforce(cycle_graph(6), 3)
        assert res.mu == 3

    def test_witness_recovers_and_counts_evaluations(self, four_cycle):
        res = resilience_bruteforce(four_cycle, 1)
        ok, _ = check_recovery(four_cycle, res.witness_q, 1)
        assert ok
        assert res.evaluations > 0

    def test_matches_closed_forms_small(self):
        cases = [
            (path_graph(4), "path", 1),
            (path_graph(5), "path", 2),
            (path_graph(6), "path", 2),
            (cycle_graph(5), "cycle", 1),
            (cycle_graph(5), "cycle", 2),
            (cycle_graph(4), "cycle", 2),
            (complete_graph(5), "complete", 3),
        ]
        for g, family, K in cases:
            assert resilience_bruteforce(g, K).mu == resilience_closed_form(family, g.n, K)

    @pytest.mark.parametrize(
        "g, K, mu, evaluations",
        [
            (cycle_graph(7), 1, Fraction(5, 2), 96),
            (cycle_graph(7), 2, Fraction(3), 261),
            (path_graph(8), 2, Fraction(3), 195),
        ],
    )
    def test_pinned_value_and_search_order(self, g, K, mu, evaluations):
        # evaluations pins the order in which candidates are checked
        res = resilience_bruteforce(g, K)
        assert (res.mu, res.evaluations) == (mu, evaluations)
        assert sum(res.witness_q, Fraction(0)) == mu
        assert check_recovery(g, res.witness_q, K) == (True, None)

    def test_matches_exhaustive_reference(self, rng):
        for _ in range(12):
            g = random_connected_graph(rng.randint(2, 6), rng)
            for K in (1, 2):
                res = resilience_bruteforce(g, K)
                assert (res.mu, res.witness_q) == reference_resilience(g, K), g.edges

    def test_matches_best_first_reference(self, rng):
        cases = [(random_connected_graph(rng.randint(2, 8), rng), K)
                 for _ in range(20) for K in (1, 2, 3)]
        for n in range(3, 9):
            for make in (star_graph, path_graph, cycle_graph, complete_graph):
                cases += [(make(n), K) for K in (1, 2, 3) if make is not complete_graph or n + K <= 9]
        for g, K in cases:
            res, ref = resilience_bruteforce(g, K), reference_best_first(g, K)
            assert (res.mu, res.witness_q) == (ref.mu, ref.witness_q), (g.edges, K)
            assert res.evaluations <= ref.evaluations

    def test_failure_box_is_sound(self, rng):
        """Every digit vector in a learned box fails from the box's seed."""
        boxes = 0
        while boxes < 300:
            g = random_connected_graph(rng.randint(2, 6), rng)
            m = [rng.randint(0, d) for d in g.degrees]
            k = [x + 1 for x in m]
            seed = rng.randrange(1, 1 << g.n)
            if recovers_from(g, k, seed):
                continue
            _, walk, _ = _check_recovery_counted(g, k, [seed])
            ub = _failure_box(g, walk)
            assert all(x <= u <= d for x, u, d in zip(m, ub, g.degrees)), (m, ub)
            for box_m in product(*(range(u + 1) for u in ub)):
                assert not recovers_from(g, [x + 1 for x in box_m], seed), (g.edges, ub, box_m)
            boxes += 1

    def test_failing_walk_is_the_seed_trajectory(self, rng):
        """The check returns the first failing seed's trajectory up to its
        first repeated profile, recomputed here with dynamics.step."""
        failures = 0
        while failures < 200:
            g = random_connected_graph(rng.randint(2, 8), rng)
            k = [rng.randint(0, d) + 1 for d in g.degrees]
            seeds = _seed_list(g.n, rng.randint(1, 3))
            ok, walk, checked = _check_recovery_counted(g, k, seeds)
            first = next((s for s in seeds if not recovers_from(g, k, s)), None)
            if first is None:
                assert (ok, walk, checked) == (True, None, len(seeds))
                continue
            trajectory, seen = [first], {first}
            while (a := step(g, k, trajectory[-1])) not in seen:
                trajectory.append(a)
                seen.add(a)
            trajectory.append(a)
            assert (ok, walk, checked) == (False, trajectory, seeds.index(first) + 1)
            failures += 1

    @pytest.mark.parametrize(
        "family, n, K", [("cycle", 12, 3), ("cycle", 13, 2), ("path", 14, 2), ("cycle", 15, 4)]
    )
    def test_scale_matches_closed_form(self, family, n, K):
        g = {"cycle": cycle_graph, "path": path_graph}[family](n)
        res = resilience_bruteforce(g, K)
        assert res.mu == resilience_closed_form(family, n, K)
        assert sum(res.witness_q, Fraction(0)) == res.mu
        assert check_recovery(g, res.witness_q, K) == (True, None)

    def test_seed_guard_applies_to_search(self):
        # 12 disjoint edges: the grid is exactly 2^24, within its guard,
        # and 2,579,130 seed profiles have at most 9 B-nodes
        g = build_graph(24, [(2 * i, 2 * i + 1) for i in range(12)], require_connected=False)
        with pytest.raises(GuardExceededError, match="2579130 seed profiles"):
            resilience_bruteforce(g, 9)

    def test_grid_guard(self):
        # K_9 has a grid of 9^9 digit vectors, past 2^24
        with pytest.raises(GuardExceededError, match="type grid"):
            resilience_bruteforce(complete_graph(9), 1)

    def test_failing_greedy_allocation_is_caught(self, monkeypatch):
        import threshold_lab.resilience as rs

        # all-zero digits are threshold 1 everywhere: a single B end of
        # the path spreads and never dies out
        monkeypatch.setattr(rs, "_greedy_digits", lambda g: [0] * g.n)
        with pytest.raises(InvariantViolationError) as exc:
            resilience_bruteforce(path_graph(3), 1)
        assert str(exc.value) == "the greedy allocation failed to recover"

    def test_exhausted_heap_is_caught(self, monkeypatch):
        import threshold_lab.resilience as rs

        real = rs._check_recovery_counted
        calls = []

        def greedy_only(g, k, seeds):
            # the first call checks the greedy allocation; every later
            # candidate fails from the all-W seed, whose walk is [0, 0]
            calls.append(k)
            return real(g, k, seeds) if len(calls) == 1 else (False, [0, 0], 1)

        monkeypatch.setattr(rs, "_check_recovery_counted", greedy_only)
        with pytest.raises(InvariantViolationError) as exc:
            resilience_bruteforce(path_graph(3), 1)
        assert str(exc.value) == "no recovering type distribution found on the grid"
        assert len(calls) > 1

    def test_no_smaller_grid_point_recovers(self, rng):
        # exhaustively confirm optimality of the reported mu on a small case
        g = path_graph(4)
        res = resilience_bruteforce(g, 1)
        from itertools import product

        grid = type_grid(g)
        for digits in product(*(range(len(c)) for c in grid)):
            q = tuple(grid[i][m] for i, m in enumerate(digits))
            if sum(q, Fraction(0)) < res.mu:
                ok, _ = check_recovery(g, q, 1)
                assert not ok


class TestGreedyAllocation:
    def test_four_cycle_charges_half_per_edge(self, four_cycle):
        q = greedy_upper_bound_q(four_cycle)
        assert sum(q, Fraction(0)) == 2

    def test_star_center_absorbs_everything(self):
        g = star_graph(6)
        q = greedy_upper_bound_q(g)
        assert q[0] == 1 and all(x == 0 for x in q[1:])

    def test_recovers_at_full_budget(self, rng):
        for _ in range(30):
            g = random_connected_graph(rng.randint(2, 8), rng)
            q = greedy_upper_bound_q(g)
            assert sum(q, Fraction(0)) <= Fraction(g.n, 2)
            ok, failing = check_recovery(g, q, g.n)
            assert ok, f"failed from seed {failing} on {g.edges}"


class TestBounds:
    """1 <= mu <= n/2 for n >= 2."""

    def test_star_tight_low(self):
        assert resilience_bruteforce(star_graph(4), 2).mu == 1

    def test_cycle_tight_high(self):
        assert resilience_bruteforce(cycle_graph(4), 2).mu == 2

    def test_path_strictly_between(self):
        mu = resilience_bruteforce(path_graph(5), 1).mu
        assert 1 < mu < Fraction(5, 2)
        assert mu == Fraction(3, 2)

    def test_random_graphs_in_bounds(self, rng):
        for _ in range(8):
            g = random_connected_graph(rng.randint(2, 5), rng)
            K = rng.randint(1, g.n)
            mu = resilience_bruteforce(g, K).mu
            assert 1 <= mu <= Fraction(g.n, 2)
