import pytest

from threshold_lab import (
    BadParameterError,
    GuardExceededError,
    InvariantViolationError,
    NotBipartiteError,
    bipartite_cycle_identity,
    bipartite_expansion,
    build_extremal_cycle_instance,
    build_graph,
    count_fixed_points_backtracking,
    count_predecessors,
    enumerate_limits,
    fixed_points,
    instance_from_dict,
    is_bipartite,
    is_reachable,
    parse_profile,
    predecessors,
    step,
)
from threshold_lab.instances import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    random_thresholds,
    star_graph,
)

from threshold_lab.enumeration import scan_limits
from threshold_lab.graph_core import reach

from conftest import as_int, cycle_census, load_tool, slow_census, tree_census


def planted_kernel(succ):
    """A stand-in for enumeration.compile_kernel whose kernel maps each
    profile a of the block to succ(a), one profile at a time."""

    def compile_kernel(rows):
        n = len(list(rows))

        def kernel(full, cols):
            out = [0] * n
            for x in range(full.bit_length()):
                a = sum((c >> x & 1) << i for i, c in enumerate(cols))
                b = succ(a)
                for i in range(n):
                    out[i] |= (b >> i & 1) << x
            return out

        return kernel

    return compile_kernel


def two_cycles_by_composition(g, k):
    """The 2-cycles as the fixed points (a, b), a < b, of the bipartite
    double cover, whose originals hold a and mirrors b."""
    cover = bipartite_expansion(g, k)
    low = (1 << g.n) - 1
    pairs = ((c & low, c >> g.n) for c in fixed_points(cover.graph, cover.thresholds))
    return {(a, b) for a, b in pairs if a < b}


def transition_table(g, k):
    """The scan oracle: next[a] = step(a) for all 2^n profiles, as a
    uint32 array assembled from the successor columns of every block."""
    import numpy as np

    import threshold_lab.enumeration as en

    kernel = en.compile_kernel(zip(k, g.adjacency))
    table = np.zeros(1 << g.n, dtype=np.uint32)
    for base, full, cols in en.column_blocks(g.n):
        size = full.bit_length()
        part = table[base : base + size]
        for i, c in enumerate(kernel(full, cols)):
            raw = np.frombuffer(c.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
            bits = np.unpackbits(raw, count=size, bitorder="little")
            part |= bits.astype(np.uint32) << np.uint32(i)
    return table


class TestEnumerateLimits:
    def test_odd_five_cycle_unanimous_fixed_points(self):
        g = cycle_graph(5)
        census = enumerate_limits(g, (1,) * 5)
        assert census.fixed_points == 2
        assert census.two_cycles == 0
        assert fixed_points(g, (1,) * 5) == (0, 0b11111)

    def test_four_cycle_census(self, four_cycle):
        census = enumerate_limits(four_cycle, (1, 1, 1, 1))
        assert census.fixed_points == 2
        assert census.two_cycles == 1
        assert census.cycle_classes == 3
        pair = (parse_profile("BWBW"), parse_profile("WBWB"))
        assert two_cycles_by_composition(four_cycle, (1, 1, 1, 1)) == {pair}

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
            assert set(fixed_points(g, k)) == {as_int(p) for p in fixed}

    def test_two_cycles_by_composition(self, rng):
        # the fixed points (a, b), a < b, of bipartite_expansion(g, k) are
        # the 2-cycles; k from 0 to d + 1, on connected and split graphs
        with_pairs = 0
        for trial in range(120):
            n = rng.randint(1, 8)
            if trial % 2:
                edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
                g = build_graph(n, edges, require_connected=False)
            else:
                g = random_connected_graph(n, rng)
            k = random_thresholds(g, rng)
            _, two_cycles, _, _ = slow_census(g.adjacency, k)
            expected = {tuple(sorted(as_int(p) for p in pair)) for pair in two_cycles}
            assert two_cycles_by_composition(g, k) == expected, (g.edges, k)
            with_pairs += bool(expected)
        assert with_pairs >= 15

    def test_sharding_is_invisible(self, rng, monkeypatch):
        import threshold_lab.enumeration as en

        g = random_connected_graph(8, rng)
        k = random_thresholds(g, rng)
        base = scan_limits(g, k), fixed_points(g, k)
        monkeypatch.setattr(en, "_BLOCK_BITS", 2)
        sharded = scan_limits(g, k), fixed_points(g, k)
        assert sharded == base

    @pytest.mark.parametrize("block_bits", [None, 2])
    def test_matches_brute_force_step(self, rng, monkeypatch, block_bits):
        # the scan's counts, the fixed points, the table and predecessor
        # scans against dynamics.step on every profile, in one block and
        # across many; the extremal cycle spreads many fixed points over
        # the blocks
        import threshold_lab.enumeration as en

        if block_bits is not None:
            monkeypatch.setattr(en, "_BLOCK_BITS", block_bits)
        cases = [build_extremal_cycle_instance(9, "max")]
        for _ in range(12):
            g = random_connected_graph(rng.randint(2, 10), rng)
            cases.append((g, random_thresholds(g, rng)))
        for g, k in cases:
            succ = [step(g, k, a) for a in range(1 << g.n)]
            fixed = [a for a, b in enumerate(succ) if a == b]
            pairs = [(a, b) for a, b in enumerate(succ) if a < b and succ[b] == a]
            census = scan_limits(g, k)
            assert census == (len(fixed), len(pairs), len(fixed) + len(pairs))
            assert fixed_points(g, k) == tuple(fixed)
            assert transition_table(g, k).tolist() == succ
            for target in (succ[0], rng.randrange(1 << g.n)):
                preds = tuple(a for a, b in enumerate(succ) if b == target)
                assert predecessors(g, k, target) == preds
                assert count_predecessors(g, k, target) == len(preds)
                assert is_reachable(g, k, target) == bool(preds)

    def test_planted_three_cycle_is_caught(self, four_cycle, monkeypatch):
        import threshold_lab.enumeration as en

        plant = {0b0001: 0b0010, 0b0010: 0b0100, 0b0100: 0b0001}
        monkeypatch.setattr(en, "compile_kernel", planted_kernel(
            lambda a: plant.get(a, step(four_cycle, (1, 1, 1, 1), a))))
        with pytest.raises(InvariantViolationError, match="longer than 2"):
            scan_limits(four_cycle, (1, 1, 1, 1))

    def test_period_check_outlasts_longest_transient(self, four_cycle, monkeypatch):
        # a -> a - 1 down to the fixed point 0: a transient of 2^n - 1 = 15
        # steps, the longest possible, settles under the cap of
        # min(2^n, 10(14|E| + 6n) + 4) = 16 steps
        import threshold_lab.enumeration as en

        monkeypatch.setattr(en, "compile_kernel", planted_kernel(lambda a: max(a - 1, 0)))
        census = scan_limits(four_cycle, (1, 1, 1, 1))
        assert (census.fixed_points, census.two_cycles) == (1, 0)
        assert fixed_points(four_cycle, (1, 1, 1, 1)) == (0,)

    def test_transient_past_the_envelope_is_caught(self, four_cycle, monkeypatch):
        # the same chain under a 10-step envelope: its 15-step transient
        # exceeds the cap
        import threshold_lab.enumeration as en

        monkeypatch.setattr(en, "compile_kernel", planted_kernel(lambda a: max(a - 1, 0)))
        monkeypatch.setattr(en, "default_guard", lambda g: 10)
        with pytest.raises(InvariantViolationError, match="transient exceeds"):
            scan_limits(four_cycle, (1, 1, 1, 1))

    def test_guard(self, rng):
        g = random_connected_graph(6, rng)
        with pytest.raises(GuardExceededError):
            enumerate_limits(g, (1,) * 6, guard_n=5)

    def test_hard_cap_ignores_guard(self, monkeypatch):
        # 33 nodes do not fit a uint32 profile word; refused before any
        # kernel is compiled or anything is allocated (a regression fails
        # here, not in a 32 GiB table)
        import threshold_lab.enumeration as en

        def unreachable(*args):
            raise AssertionError("the scan started past the hard cap")

        monkeypatch.setattr(en, "column_blocks", unreachable)
        monkeypatch.setattr(en, "compile_kernel", unreachable)
        g = build_graph(33, [(i, i + 1) for i in range(32)])
        k = (1,) * 33
        for scan in (
            lambda: enumerate_limits(g, k, guard_n=40),
            lambda: scan_limits(g, k, guard_n=40),
            lambda: fixed_points(g, k, guard_n=40),
            lambda: predecessors(g, k, 0, guard_n=40),
            lambda: is_reachable(g, k, 0, guard_n=40),
        ):
            with pytest.raises(GuardExceededError, match="exceeds 32"):
                scan()


class TestCompileKernel:
    @staticmethod
    def assert_matches_step(g, k):
        import threshold_lab.enumeration as en

        kernel = en.compile_kernel(zip(k, g.adjacency))
        ((_, full, cols),) = en.column_blocks(g.n)
        out = kernel(full, cols)
        assert len(out) == g.n
        for a in range(1 << g.n):
            assert sum((c >> a & 1) << i for i, c in enumerate(out)) == step(g, k, a)

    def test_matches_step_one_profile_at_a_time(self, rng):
        # random thresholds in 0..d_i + 1 give k = 0, k = d and k > d; half
        # the graphs are built without the connectivity check, so nodes
        # may be isolated (d = 0)
        shapes = {"k=0": 0, "k=d": 0, "k>d": 0, "isolated": 0}
        for trial in range(320):
            n = 1 if trial < 10 else rng.randint(2, 10)
            if trial % 2:
                edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
                g = build_graph(n, edges, require_connected=False)
            else:
                g = random_connected_graph(n, rng)
            k = random_thresholds(g, rng)
            for ki, d in zip(k, g.degrees):
                shapes["k=0"] += ki == 0
                shapes["k=d"] += ki == d
                shapes["k>d"] += ki > d
                shapes["isolated"] += d == 0
            self.assert_matches_step(g, k)
        assert min(shapes.values()) > 0

    def test_budget_prices_the_written_operations(self, rng, monkeypatch):
        # enumerate_limits' budget is blocks x sum((2k_i - 1)(d_i - k_i + 1)
        # - k_i) / 2; at two blocks it is the sum itself, which must equal
        # the & and | in the kernel source, on rows with k = 0, k > d and
        # isolated nodes
        import threshold_lab.enumeration as en

        sources, budgets = [], []
        monkeypatch.setattr(en, "compile", lambda src, *a: sources.append(src) or compile(src, *a),
                            raising=False)
        monkeypatch.setattr(en, "_count_limits",
                            lambda g, k, kernel, budget: budgets.append(budget) or (0, 0, 0))
        shapes = {"k=0": 0, "k>d": 0, "isolated": 0}
        for _ in range(200):
            n = rng.randint(1, 10)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
            g = build_graph(n, edges, require_connected=False)
            k = random_thresholds(g, rng)
            monkeypatch.setattr(en, "_BLOCK_BITS", n - 1)
            del sources[:], budgets[:]
            enumerate_limits(g, k)
            assert budgets == [sources[0].count("&") + sources[0].count("|")], (edges, k)
            shapes["k=0"] += 0 in k
            shapes["k>d"] += any(ki > d for ki, d in zip(k, g.degrees))
            shapes["isolated"] += 0 in g.degrees
        assert min(shapes.values()) > 20

    @pytest.mark.parametrize("ki", range(9))
    def test_complete_graph_every_threshold(self, ki):
        # K_8 has degree 7: k = 0 is pinned B, k = 8 pinned W
        g = complete_graph(8)
        self.assert_matches_step(g, (ki,) * 8)
        self.assert_matches_step(g, tuple((ki + i) % 9 for i in range(8)))


class TestCountedCensus:
    """enumerate_limits counts F on g and F + 2T on its double cover with
    the fixed-point counter; scan_limits, the scan of every start, is the
    oracle."""

    @staticmethod
    def counted(g, k):
        # the counting path alone, with a budget no instance here exhausts
        import threshold_lab.enumeration as en

        census = en._count_limits(g, k, en.compile_kernel(zip(k, g.adjacency)), 1 << 40)
        assert census is not None
        return census

    @staticmethod
    def spy_on_scans(monkeypatch) -> list[int]:
        import threshold_lab.enumeration as en

        scans, blocks = [], en.column_blocks
        monkeypatch.setattr(en, "column_blocks", lambda n: scans.append(n) or blocks(n))
        return scans

    def test_matches_the_scan_on_random_graphs(self, rng):
        # k from 0 to d + 1, so pinned nodes seed both searches; the last
        # 20 instances pin every node
        pinned = 0
        for trial in range(160):
            g = random_connected_graph(rng.randint(1, 14), rng)
            if trial < 140:
                k = random_thresholds(g, rng)
            else:
                k = tuple(rng.choice((0, d + 1)) for d in g.degrees)
            scan = scan_limits(g, k)
            assert self.counted(g, k) == scan, (g.edges, k)
            assert enumerate_limits(g, k) == scan
            pinned += all(ki == 0 or ki > d for ki, d in zip(k, g.degrees))
        assert pinned >= 20

    def test_matches_the_scan_on_every_census_stratum(self, monkeypatch):
        # the 90 census jobs of benchmark seeds 1-10; all but the extremal
        # cycles are counted within the budget, so they never scan
        workloads = load_tool("golden_outputs").workloads()
        scans = self.spy_on_scans(monkeypatch)
        for seed in range(1, 11):
            for job in workloads.build("census", seed):
                g, k = instance_from_dict(job.data)
                del scans[:]
                census = enumerate_limits(g, k)
                assert bool(scans) == (job.meta["family"] == "extremal"), (seed, job.jid)
                assert census == scan_limits(g, k), (seed, job.jid)

    def test_matches_the_scan_across_components(self, rng):
        # the count is a product over components, on g and on its cover:
        # disconnected graphs, forests and other bipartite graphs, whose
        # covers split in two, and k from 0 to d + 1
        shapes = {"disconnected": 0, "bipartite": 0, "odd cycle": 0}
        for trial in range(240):
            n = rng.randint(1, 14)
            side = [rng.randrange(2) for _ in range(n)]
            p = rng.choice((0.15, 0.3, 0.5))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < p and (trial % 3 or side[i] != side[j])]
            g = build_graph(n, edges, require_connected=False)
            k = random_thresholds(g, rng)
            scan = scan_limits(g, k)
            assert self.counted(g, k) == scan, (g.edges, k)
            assert enumerate_limits(g, k) == scan
            bipartite = is_bipartite(g)
            shapes["disconnected"] += len(reach(g.adjacency, 0, bytearray(n))) < n
            shapes["bipartite"] += bipartite and n > 1
            shapes["odd cycle"] += not bipartite
        assert min(shapes.values()) >= 40, shapes

    def test_random_tree_counts_by_components(self):
        # its cover is two copies of the tree, with D = F^2 = 1,806,336
        # fixed points, which a search of the whole cover meets one by one;
        # searched per copy, the two counts take 8,058 search nodes
        import random

        import threshold_lab.enumeration as en

        rng = random.Random(2)
        edges = [(rng.randrange(v), v) for v in range(1, 40)]
        g = build_graph(40, edges)
        k = tuple(rng.randint(1, d) for d in g.degrees)
        kernel = en.compile_kernel(zip(k, g.adjacency))
        census = en._count_limits(g, k, kernel, 10_000)
        assert census is not None
        assert (census.fixed_points, census.two_cycles) == (1344, 902496)
        assert tree_census(40, edges, k) == (1344, 902496)

    def test_extremal_instance_falls_back_to_the_scan(self, monkeypatch):
        # 128 fixed points and 8,128 2-cycles: the counter meets them one
        # by one and runs past its budget of 32 blocks x 21 operations / 2
        g, k = build_extremal_cycle_instance(21, "max")
        scans = self.spy_on_scans(monkeypatch)
        census = enumerate_limits(g, k)
        assert scans == [21]
        assert (census.fixed_points, census.two_cycles) == (128, 8128)
        assert self.counted(g, k) == census

    def test_three_cycle_in_the_sample_is_caught(self, monkeypatch):
        # a kernel that rotates columns 0, 1 and 2 puts every sampled start
        # whose first three bits differ on a 3-cycle; the counts come from
        # the counter, so only the sampled period check can see it
        import threshold_lab.enumeration as en

        def no_scan(n):
            raise AssertionError("the census scanned")

        job = load_tool("golden_outputs").workloads().build("census", 7)[0]
        g, k = instance_from_dict(job.data)
        assert self.counted(g, k) == enumerate_limits(g, k)
        monkeypatch.setattr(en, "column_blocks", no_scan)
        monkeypatch.setattr(en, "compile_kernel",
                            lambda rows: lambda full, cols: [cols[1], cols[2], cols[0], *cols[3:]])
        with pytest.raises(InvariantViolationError, match="longer than 2"):
            enumerate_limits(g, k)

    @pytest.mark.parametrize("extra, message", [(1, r"not F \+ 2T"), (2, r"not F\(F-1\)/2")])
    def test_planted_cover_count_is_caught(self, four_cycle, monkeypatch, extra, message):
        # the 4-cycle with k = 1 is bipartite, with F = 2, T = 1 and D = 4 on
        # the cover: one more cover fixed point makes D - F odd, and two
        # more make T = 2 != F(F - 1)/2. The fault is planted on the count
        # of the 8-node cover as a whole, which splits into two 4-cycles.
        import threshold_lab.enumeration as en

        count = en._count_by_components

        def planted(g, k, budget):
            found = count(g, k, budget)
            return found if g.n == 4 else (found[0] + extra, found[1])

        monkeypatch.setattr(en, "_count_by_components", planted)
        with pytest.raises(InvariantViolationError, match=message):
            self.counted(four_cycle, (1, 1, 1, 1))


def random_cycle(rng, n, ks):
    """A cycle on a random labelling of n nodes, its thresholds drawn from
    ks, and those thresholds in cycle order."""
    order = rng.sample(range(n), n)
    k = [rng.choice(ks) for _ in range(n)]
    g = build_graph(n, [(order[i], order[i - 1]) for i in range(n)])
    return g, tuple(k), [k[v] for v in order]


def random_tree(rng, n, low):
    """A random tree on n nodes, its edges, and thresholds from low to
    d + 1 (low = 0) or from 1 to d (low = 1)."""
    label = rng.sample(range(n), n)
    edges = [(label[rng.randrange(i)], label[i]) for i in range(1, n)]
    g = build_graph(n, edges)
    k = tuple(rng.randint(low, d + 1 - low) for d in g.degrees)
    return g, edges, k


class TestScaleOracles:
    """The transfer matrix on cycles and the DP on trees of conftest count
    F and T exactly at any size; both share no code with the library."""

    def test_oracles_match_the_scan(self, rng):
        for _ in range(300):
            g, k, ring = random_cycle(rng, rng.randint(3, 12), range(4))
            census = scan_limits(g, k)
            assert cycle_census(ring) == (census.fixed_points, census.two_cycles), ring
        for _ in range(300):
            g, edges, k = random_tree(rng, rng.randint(2, 12), 0)
            census = scan_limits(g, k)
            assert tree_census(g.n, edges, k) == (census.fixed_points, census.two_cycles), k

    def test_oracles_match_the_counted_census(self, rng):
        # the counting path below the guard, with a budget it never meets
        counted = TestCountedCensus.counted
        for n in range(9, 19):
            for kind in ("min", "max"):
                if (kind == "min" and n % 2) or (kind == "max" and n % 3 == 0):
                    g, k = build_extremal_cycle_instance(n, kind)
                    assert cycle_census(k) == counted(g, k)[:2], (n, kind)
        # thresholds 1 and 2 only leave no node pinned: F reaches 262 and
        # T 34,191 at n = 29, so those cycles stop at n = 20
        cycles = [(n, range(4)) for n in range(13, 31)] + [(n, (1, 2)) for n in range(13, 21)]
        for n, ks in cycles:
            g, k, ring = random_cycle(rng, n, ks)
            assert cycle_census(ring) == counted(g, k)[:2], ring
        trees = [(n, 0) for n in range(13, 25)] + [(n, 1) for n in range(10, 17)]
        for n, low in trees:
            for _ in range(2):
                g, edges, k = random_tree(rng, n, low)
                assert tree_census(n, edges, k) == counted(g, k)[:2], (edges, k)


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
            census = scan_limits(g, k)
            assert count_fixed_points_backtracking(g, k) == census.fixed_points

    def test_agrees_with_scan_at_scale(self, rng):
        # one full-width cross-check: 2^20 profiles against backtracking
        g = random_connected_graph(20, rng, extra_edge_prob=0.1)
        k = random_thresholds(g, rng)
        census = scan_limits(g, k)
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

    def test_agrees_with_scan_on_pinned_and_disconnected_graphs(self, rng):
        # n <= 12, any edge density, thresholds from 0 to d + 1: nodes
        # pinned by their threshold alone, and isolated nodes, seed the
        # propagation before any branching
        pinned_b = pinned_w = disconnected = 0
        for _ in range(200):
            n = rng.randint(1, 12)
            p = rng.random()
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            g = build_graph(n, edges, require_connected=False)
            k = random_thresholds(g, rng)
            census = scan_limits(g, k)
            assert count_fixed_points_backtracking(g, k) == census.fixed_points, (edges, k)
            pinned_b += 0 in k
            pinned_w += any(ki > d for ki, d in zip(k, g.degrees))
            try:
                build_graph(n, edges)
            except BadParameterError:
                disconnected += 1
        assert min(pinned_b, pinned_w, disconnected) > 20

    def test_long_path_needs_no_deep_recursion(self):
        # one branching level: either value of node 1 forces the whole path
        assert count_fixed_points_backtracking(path_graph(1200), (1,) * 1200) == 2


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
        census = bipartite_cycle_identity(four_cycle, (1, 1, 1, 1))
        assert census.fixed_points == 2
        assert census.cycle_classes == 2 * 1 // 2 + 2 == 3
        assert census == enumerate_limits(four_cycle, (1, 1, 1, 1))

    def test_path(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        census = bipartite_cycle_identity(g, (1, 1, 1))
        assert census.cycle_classes == census.fixed_points * (census.fixed_points - 1) // 2 + census.fixed_points

    def test_rejects_non_bipartite(self, triangle):
        with pytest.raises(NotBipartiteError):
            bipartite_cycle_identity(triangle, (1, 1, 1))

    def test_disconnected(self):
        # two disjoint edges under k = 1: F = 2 * 2 fixed points, and
        # every 2-cycle is a splice across the partition of both edges
        g = build_graph(4, [(0, 1), (2, 3)], require_connected=False)
        census = bipartite_cycle_identity(g, (1, 1, 1, 1))
        assert census.fixed_points == 4
        assert census.cycle_classes == 4 * 3 // 2 + 4 == 10

    def test_holds_on_random_bipartite(self, rng):
        checked = 0
        while checked < 30:
            g = random_connected_graph(rng.randint(2, 8), rng, extra_edge_prob=0.15)
            try:
                bipartite_cycle_identity(g, random_thresholds(g, rng))
            except NotBipartiteError:
                continue
            checked += 1

    @pytest.mark.parametrize("plant, message", [
        # one class more than F(F-1)/2 + F = 3
        (lambda c: c._replace(cycle_classes=c.cycle_classes + 1),
         "cycle classes 4 != F(F-1)/2 + F = 3"),
        # one 2-cycle more than the one splice, BWBW with WBWB
        (lambda c: c._replace(two_cycles=c.two_cycles + 1),
         "fixed-point splicing gave 1 2-cycles, not T = 2"),
    ])
    def test_planted_census_is_caught(self, four_cycle, monkeypatch, plant, message):
        import threshold_lab.enumeration as en

        census = en.scan_limits
        monkeypatch.setattr(en, "scan_limits", lambda *a, **kw: plant(census(*a, **kw)))
        with pytest.raises(InvariantViolationError) as exc:
            bipartite_cycle_identity(four_cycle, (1, 1, 1, 1))
        assert str(exc.value) == message

    def test_planted_fixed_point_is_caught(self, four_cycle, monkeypatch):
        # BWWW is not fixed under k = 1: spliced with WWWW it gives WWWW and
        # BWWW, and WWWW steps to itself, not to BWWW
        import threshold_lab.enumeration as en

        monkeypatch.setattr(en, "fixed_points", lambda g, k: (0, 0b0001, 0b1111))
        with pytest.raises(InvariantViolationError, match="splice of fixed points 0 and 1 is not"):
            bipartite_cycle_identity(four_cycle, (1, 1, 1, 1))


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
