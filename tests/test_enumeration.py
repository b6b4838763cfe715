import pytest

from threshold_lab import (
    BadParameterError,
    GuardExceededError,
    InvariantViolationError,
    NotBipartiteError,
    bipartite_cycle_identity,
    build_extremal_cycle_instance,
    build_graph,
    count_fixed_points_backtracking,
    enumerate_limits,
    is_reachable,
    parse_profile,
    predecessors,
    step,
    transition_table,
)
from threshold_lab.instances import (
    cycle_graph,
    path_graph,
    random_connected_graph,
    random_thresholds,
    star_graph,
)

from conftest import as_int, slow_census


class TestEnumerateLimits:
    def test_odd_five_cycle_unanimous_fixed_points(self):
        g = cycle_graph(5)
        census = enumerate_limits(g, (1,) * 5)
        assert census.fixed_points == 2
        assert census.two_cycles == 0
        assert set(census.fixed_witnesses) == {0, 0b11111}

    def test_four_cycle_census(self, four_cycle):
        census = enumerate_limits(four_cycle, (1, 1, 1, 1))
        assert census.fixed_points == 2
        assert census.two_cycles == 1
        assert census.cycle_classes == 3
        assert census.two_cycle_witnesses == ((parse_profile("BWBW"), parse_profile("WBWB")),)

    def test_six_cycle_max_pattern(self):
        g = cycle_graph(6)
        census = enumerate_limits(g, (2, 1, 1, 2, 1, 1))
        assert census.fixed_points >= 4

    def test_matches_independent_oracle(self, rng):
        for _ in range(40):
            g = random_connected_graph(rng.randint(2, 8), rng)
            k = random_thresholds(g, rng)
            census = enumerate_limits(g, k)
            fixed, two_cycles, _, max_cycle = slow_census(g.adjacency, k)
            assert census.fixed_points == len(fixed)
            assert census.two_cycles == len(two_cycles)
            assert max_cycle <= 2
            assert set(census.fixed_witnesses) == {as_int(p) for p in fixed}
            assert {
                frozenset(pair) for pair in census.two_cycle_witnesses
            } == {frozenset(as_int(p) for p in pair) for pair in two_cycles}

    def test_two_cycle_witnesses_swap_exactly(self, rng):
        for _ in range(15):
            g = random_connected_graph(rng.randint(3, 7), rng)
            k = random_thresholds(g, rng)
            census = enumerate_limits(g, k)
            for a, b in census.two_cycle_witnesses:
                assert a != b
                assert step(g, k, a) == b and step(g, k, b) == a

    def test_witness_cap(self, four_cycle):
        census = enumerate_limits(four_cycle, (0, 0, 0, 0), witness_cap=1)
        assert len(census.fixed_witnesses) == 1

    def test_sharding_is_invisible(self, rng, monkeypatch):
        import threshold_lab.enumeration as en

        g = random_connected_graph(8, rng)
        k = random_thresholds(g, rng)
        base = enumerate_limits(g, k)
        monkeypatch.setattr(en, "_CHUNK", 16)
        sharded = enumerate_limits(g, k)
        assert sharded == base

    @pytest.mark.parametrize("chunk", [None, 16])
    def test_matches_brute_force_step(self, rng, monkeypatch, chunk):
        # counts, capped witnesses, the table and predecessor scans against
        # dynamics.step on every profile, in one chunk and across many;
        # the extremal cycle spreads many fixed points over the chunks
        import threshold_lab.enumeration as en

        if chunk is not None:
            monkeypatch.setattr(en, "_CHUNK", chunk)
        cases = [build_extremal_cycle_instance(9, "max")]
        for _ in range(12):
            g = random_connected_graph(rng.randint(2, 10), rng)
            cases.append((g, random_thresholds(g, rng)))
        for g, k in cases:
            succ = [step(g, k, a) for a in range(1 << g.n)]
            fixed = [a for a, b in enumerate(succ) if a == b]
            pairs = [(a, b) for a, b in enumerate(succ) if a < b and succ[b] == a]
            for cap in (1024, 3, 7):
                census = enumerate_limits(g, k, witness_cap=cap)
                assert census.fixed_points == len(fixed)
                assert census.two_cycles == len(pairs)
                assert census.fixed_witnesses == tuple(fixed[:cap])
                assert census.two_cycle_witnesses == tuple(pairs[:cap])
            assert transition_table(g, k).tolist() == succ
            for target in (succ[0], rng.randrange(1 << g.n)):
                preds = tuple(a for a, b in enumerate(succ) if b == target)
                assert predecessors(g, k, target) == preds
                assert is_reachable(g, k, target) == bool(preds)

    def test_planted_three_cycle_is_caught(self, four_cycle, monkeypatch):
        import threshold_lab.enumeration as en

        real = en._successor_table

        def planted(g, k):
            table = real(g, k)
            table[0b0001], table[0b0010], table[0b0100] = 0b0010, 0b0100, 0b0001
            return table

        monkeypatch.setattr(en, "_successor_table", planted)
        with pytest.raises(InvariantViolationError, match="longer than 2"):
            enumerate_limits(four_cycle, (1, 1, 1, 1))

    def test_period_check_outlasts_longest_transient(self, four_cycle, monkeypatch):
        # a -> a - 1 down to the fixed point 0: a transient of 2^n - 1 steps,
        # the longest possible, still settles within the n doubling rounds
        import numpy as np
        import threshold_lab.enumeration as en

        def chain(g, k):
            return np.maximum(np.arange(1 << g.n, dtype=np.uint32), 1) - np.uint32(1)

        monkeypatch.setattr(en, "_successor_table", chain)
        census = enumerate_limits(four_cycle, (1, 1, 1, 1))
        assert (census.fixed_points, census.two_cycles) == (1, 0)
        assert census.fixed_witnesses == (0,)

    def test_guard(self, rng):
        g = random_connected_graph(6, rng)
        with pytest.raises(GuardExceededError):
            enumerate_limits(g, (1,) * 6, guard_n=5)

    def test_hard_cap_ignores_guard(self, monkeypatch):
        # 33 nodes do not fit a uint32 profile word; refused before the
        # kernel allocates anything (a regression fails here, not in a 32 GiB table)
        import threshold_lab.enumeration as en

        def unreachable(*args):
            raise AssertionError("the scan started past the hard cap")

        monkeypatch.setattr(en, "_successor_table", unreachable)
        monkeypatch.setattr(en, "_steps", unreachable)
        g = build_graph(33, [(i, i + 1) for i in range(32)])
        k = (1,) * 33
        for scan in (
            lambda: enumerate_limits(g, k, guard_n=40),
            lambda: transition_table(g, k, guard_n=40),
            lambda: predecessors(g, k, 0, guard_n=40),
            lambda: is_reachable(g, k, 0, guard_n=40),
        ):
            with pytest.raises(GuardExceededError, match="exceeds 32"):
                scan()


class TestTransitionTable:
    def test_table_matches_step(self, four_cycle):
        table = transition_table(four_cycle, (1, 2, 1, 2))
        for a in range(16):
            assert table[a] == step(four_cycle, (1, 2, 1, 2), a)


class TestBacktrackingCounter:
    def test_star_two_fixed_points(self):
        g = star_graph(5)
        assert count_fixed_points_backtracking(g, (1, 1, 1, 1, 1)) == 2

    def test_agrees_with_scan(self, rng):
        for _ in range(150):
            g = random_connected_graph(rng.randint(2, 9), rng)
            k = random_thresholds(g, rng)
            census = enumerate_limits(g, k, witnesses=False)
            assert count_fixed_points_backtracking(g, k) == census.fixed_points

    def test_agrees_with_scan_at_scale(self, rng):
        # one full-width cross-check: 2^20 profiles against backtracking
        g = random_connected_graph(20, rng, extra_edge_prob=0.1)
        k = random_thresholds(g, rng)
        census = enumerate_limits(g, k, witnesses=False)
        assert count_fixed_points_backtracking(g, k) == census.fixed_points

    def test_scales_past_the_scan(self):
        # 31-node gadget-shaped instance: star of stars
        edges = [(0, i) for i in range(1, 6)]
        nid = 6
        for hub in range(1, 6):
            for _ in range(5):
                edges.append((hub, nid))
                nid += 1
        g = build_graph(nid, edges)
        k = (1,) * nid
        count = count_fixed_points_backtracking(g, k)
        assert count == 2  # all-W and all-B only, by hand analysis

    def test_recursion_limit_is_guard_error(self):
        g = path_graph(1200)
        with pytest.raises(GuardExceededError, match="recursion limit of [0-9]+ frames"):
            count_fixed_points_backtracking(g, (1,) * g.n)


class TestPredecessors:
    def test_unreachable_profile(self):
        g = star_graph(3)
        # leaves have threshold 2 > degree 1: any profile with a B leaf has no preimage
        assert predecessors(g, (1, 2, 2), 0b010) == ()

    def test_four_cycle_all_black_has_nine(self, four_cycle):
        preds = predecessors(four_cycle, (1, 1, 1, 1), 0b1111)
        assert len(preds) == 9
        # independent constraint product: (b1 or b3) and (b0 or b2) -> 3 * 3
        for b in preds:
            assert step(four_cycle, (1, 1, 1, 1), b) == 0b1111

    def test_fixed_point_is_its_own_predecessor(self, four_cycle):
        assert 0 in predecessors(four_cycle, (1, 1, 1, 1), 0)

    def test_reachability(self, four_cycle):
        assert is_reachable(four_cycle, (1, 1, 1, 1), 0)
        g = star_graph(3)
        assert not is_reachable(g, (1, 2, 2), 0b010)


class TestBipartiteCycleIdentity:
    def test_four_cycle(self, four_cycle):
        check = bipartite_cycle_identity(four_cycle, (1, 1, 1, 1))
        assert check.fixed_points == 2
        assert check.cycle_classes == 3
        assert check.predicted_classes == 3
        assert check.pairing_verified

    def test_path(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        check = bipartite_cycle_identity(g, (1, 1, 1))
        assert check.cycle_classes == check.fixed_points * (check.fixed_points - 1) // 2 + check.fixed_points

    def test_rejects_non_bipartite(self, triangle):
        with pytest.raises(NotBipartiteError):
            bipartite_cycle_identity(triangle, (1, 1, 1))

    def test_holds_on_random_bipartite(self, rng):
        checked = 0
        while checked < 30:
            g = random_connected_graph(rng.randint(2, 8), rng, extra_edge_prob=0.15)
            try:
                bipartite_cycle_identity(g, random_thresholds(g, rng))
            except NotBipartiteError:
                continue
            checked += 1


class TestExtremalInstances:
    def test_min_five(self):
        g, k = build_extremal_cycle_instance(5, "min")
        assert k == (1, 1, 1, 1, 1)
        census = enumerate_limits(g, k)
        assert census.fixed_points == 2 and census.two_cycles == 0

    def test_max_six(self):
        g, k = build_extremal_cycle_instance(6, "max")
        assert sorted(k) == [1, 1, 1, 1, 2, 2]
        # every threshold-1 node has exactly one threshold-1 neighbor
        for i in range(6):
            if k[i] == 1:
                ones = sum(1 for j in g.adjacency[i] if k[j] == 1)
                assert ones == 1
        census = enumerate_limits(g, k)
        assert census.fixed_points >= 2**2
        assert census.two_cycles >= 2**2 - 1

    def test_parameter_validation(self):
        with pytest.raises(BadParameterError):
            build_extremal_cycle_instance(4, "min")
        with pytest.raises(BadParameterError):
            build_extremal_cycle_instance(7, "max")
        with pytest.raises(BadParameterError):
            build_extremal_cycle_instance(6, "typo")
