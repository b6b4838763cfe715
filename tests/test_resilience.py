from fractions import Fraction
from itertools import combinations, product

import pytest

from threshold_lab import (
    BadParameterError,
    GuardExceededError,
    OutOfFormulaRangeError,
    check_recovery,
    greedy_upper_bound_q,
    recovery_problem,
    resilience_bruteforce,
    resilience_closed_form,
    step_types,
    verify_bounds,
)
from threshold_lab.instances import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)

H = Fraction(1, 2)


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
    prob = recovery_problem(g, K)
    points = []
    for digits in product(*(range(len(c)) for c in prob.grid)):
        q = tuple(prob.grid[i][m] for i, m in enumerate(digits))
        points.append((sum(q, Fraction(0)), digits, q))
    for total, _, q in sorted(points):
        if reference_recovers(g, q, prob.budget):
            return total, q
    raise AssertionError("q == 1 everywhere always recovers")


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
        with pytest.raises(GuardExceededError):
            check_recovery(four_cycle, (0, 0, 0, 0), 2, max_seeds=10)

    def test_grid_problem_shape(self, four_cycle):
        prob = recovery_problem(four_cycle, 9)
        assert prob.budget == 4  # clamped to n
        assert prob.grid[0] == (Fraction(0), H, Fraction(1))


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
        with pytest.raises(OutOfFormulaRangeError):
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
            (cycle_graph(7), 1, Fraction(5, 2), 807),
            (cycle_graph(7), 2, Fraction(3), 1711),
            (path_graph(8), 2, Fraction(3), 1908),
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

    def test_seed_guard_applies_to_search(self):
        with pytest.raises(GuardExceededError):
            resilience_bruteforce(cycle_graph(6), 2, max_seeds=21)

    def test_no_smaller_grid_point_recovers(self, rng):
        # exhaustively confirm optimality of the reported mu on a small case
        g = path_graph(4)
        res = resilience_bruteforce(g, 1)
        from itertools import product

        prob = recovery_problem(g, 1)
        for digits in product(*(range(len(c)) for c in prob.grid)):
            q = tuple(prob.grid[i][m] for i, m in enumerate(digits))
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
    def test_star_tight_low(self):
        report = verify_bounds(star_graph(4), 2)
        assert report.mu == report.lower == 1

    def test_cycle_tight_high(self):
        report = verify_bounds(cycle_graph(4), 2)
        assert report.mu == report.upper == 2

    def test_path_strictly_between(self):
        report = verify_bounds(path_graph(5), 1)
        assert report.lower < report.mu < report.upper
        assert report.mu == Fraction(3, 2)

    def test_random_graphs_in_bounds(self, rng):
        for _ in range(8):
            g = random_connected_graph(rng.randint(2, 5), rng)
            K = rng.randint(1, g.n)
            report = verify_bounds(g, K)
            assert 1 <= report.mu <= Fraction(g.n, 2)
