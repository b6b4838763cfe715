import inspect
import random
import sys

import pytest

from threshold_lab import (
    AlreadySymmetricError,
    BadParameterError,
    GuardExceededError,
    LengthMismatchError,
    ValidityViolatedError,
    WeightOutOfRangeError,
    bipartite_expansion,
    build_graph,
    commutation_check,
    compose_lifts,
    identity_lift,
    instances_isomorphic,
    integer_weights_to_unit,
    inverted_to_primary,
    is_bipartite,
    is_symmetric_model,
    make_step,
    one_step_symmetric_expansion,
    remove_constant_node,
    remove_self_loops,
    signed_to_primary,
    step,
    step_restricted,
    step_weighted,
    symmetric_expansion,
)
from threshold_lab.instances import (
    random_connected_graph,
    random_signed_instance,
    random_small_blowup_instance,
    random_thresholds,
    random_weighted_instance,
)

from conftest import inverted_step


def weighted_step(g, k):
    return lambda a: step_weighted(g, k, a)


class TestBipartiteExpansion:
    def test_triangle_becomes_six_cycle(self, triangle):
        res = bipartite_expansion(triangle, (1, 1, 2))
        assert res.graph.n == 6
        assert res.thresholds == (1, 1, 2, 1, 1, 2)
        assert all(d == 2 for d in res.graph.degrees)
        assert is_bipartite(res.graph)

    def test_parts_are_originals_and_mirrors(self, triangle):
        res = bipartite_expansion(triangle, (1, 1, 2))
        originals = {i for i, e in enumerate(res.node_map) if e["role"] == "original"}
        assert originals == {0, 1, 2}
        for i, j in res.graph.edges:
            assert (i in originals) != (j in originals)

    def test_single_edge_doubles_to_two_disjoint_edges(self):
        # the doubling of a bipartite instance splits into two mirrored
        # components; for a single edge that is a pair of disjoint edges,
        # each pairing an original with the other node's mirror
        g = build_graph(2, [(0, 1)])
        res = bipartite_expansion(g, (1, 1))
        assert res.graph.n == 4
        assert res.graph.edges == ((0, 3), (1, 2))
        ok, _ = commutation_check(
            make_step(g, (1, 1)), res.target_step(), res.lift, range(4)
        )
        assert ok

    def test_commutation_exhaustive(self, rng):
        for _ in range(30):
            g = random_connected_graph(rng.randint(2, 6), rng)
            k = random_thresholds(g, rng)
            res = bipartite_expansion(g, k)
            ok, bad = commutation_check(
                make_step(g, k), res.target_step(), res.lift, range(1 << g.n)
            )
            assert ok, f"counterexample {bad}"

    def test_lift_is_injective(self, triangle):
        res = bipartite_expansion(triangle, (1, 1, 1))
        images = {res.lift(a) for a in range(8)}
        assert len(images) == 8

    def test_corrupted_mirror_threshold_breaks_commutation(self, triangle):
        # negative control: bump one mirror threshold and the square fails
        res = bipartite_expansion(triangle, (1, 1, 2))
        bad_k = list(res.thresholds)
        bad_k[5] += 1
        ok, counterexample = commutation_check(
            make_step(triangle, (1, 1, 2)),
            make_step(res.graph, tuple(bad_k)),
            res.lift,
            range(8),
        )
        assert not ok and counterexample is not None


class TestOneStepSymmetric:
    def test_triangle_pivot(self, triangle):
        res = one_step_symmetric_expansion(triangle, (1, 1, 2))
        assert res.graph.n == 12
        assert res.thresholds[0] == 3  # pivot = node 0, threshold d+1
        centers = [i for i, e in enumerate(res.node_map) if e["role"] == "y_center"]
        leaves = [i for i, e in enumerate(res.node_map) if e["role"] == "y_leaf"]
        assert len(centers) == 3 and len(leaves) == 6
        assert all(res.thresholds[c] == 2 for c in centers)
        assert all(res.thresholds[l] == 1 for l in leaves)

    def test_frozen_block_arithmetic(self, rng):
        # b_i + w_i = d_i + 1 whenever the pivot threshold is in range
        for _ in range(20):
            g = random_connected_graph(rng.randint(2, 6), rng)
            k = tuple(rng.randint(0, d + 1) for d in g.degrees)
            if is_symmetric_model(g, k):
                continue
            res = one_step_symmetric_expansion(g, k)
            pivot = next(
                e["pivot"] for e in res.node_map if e["role"] == "y_center"
            )
            frozen_w = sum(
                1 for e in res.node_map if e["role"] == "y_center" and e["frozen"] == "W"
            )
            frozen_b = sum(
                1 for e in res.node_map if e["role"] == "y_center" and e["frozen"] == "B"
            )
            assert frozen_w == k[pivot]
            assert frozen_b == g.degrees[pivot] - k[pivot] + 1

    def test_commutation(self, rng):
        for _ in range(25):
            g = random_connected_graph(rng.randint(2, 6), rng)
            k = random_thresholds(g, rng)
            if is_symmetric_model(g, k):
                continue
            res = one_step_symmetric_expansion(g, k)
            ok, bad = commutation_check(
                make_step(g, k), res.target_step(), res.lift, range(1 << g.n)
            )
            assert ok, f"counterexample {bad}"

    def test_rejects_symmetric_input(self):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(AlreadySymmetricError):
            one_step_symmetric_expansion(g, (1, 1))


class TestIsSymmetricModel:
    def test_single_edge(self):
        assert is_symmetric_model(build_graph(2, [(0, 1)]), (1, 1))

    def test_even_degree_never_symmetric(self, triangle):
        assert not is_symmetric_model(triangle, (1, 1, 2))

    def test_three_regular_majority(self):
        k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert is_symmetric_model(k4, (2, 2, 2, 2))
        assert not is_symmetric_model(k4, (2, 2, 2, 1))


class TestSymmetricExpansion:
    def test_already_symmetric_is_identity(self):
        g = build_graph(2, [(0, 1)])
        res = symmetric_expansion(g, (1, 1))
        assert res.graph == g and res.thresholds == (1, 1)
        assert res.lift.ops == identity_lift(2).ops

    def test_triangle_fully_symmetric(self, triangle):
        res = symmetric_expansion(triangle, (1, 1, 2))
        assert is_symmetric_model(res.graph, res.thresholds)
        # every even-degree triangle node pivots once: 3 + 3 * 9 nodes
        assert res.graph.n == 30

    def test_non_pivots_keep_neighborhood_and_threshold(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng.randint(3, 5), rng)
            k = random_thresholds(g, rng)
            if is_symmetric_model(g, k):
                continue
            res = one_step_symmetric_expansion(g, k)
            pivot = next(e["pivot"] for e in res.node_map if e["role"] == "y_center")
            for i in range(g.n):
                if i == pivot:
                    continue
                assert res.thresholds[i] == k[i]
                assert res.graph.adjacency[i] == g.adjacency[i]

    def test_single_node_graph(self):
        # degree 0 is even, so even a lone node pivots once
        g = build_graph(1, [])
        for k0 in (0, 1):
            res = symmetric_expansion(g, (k0,))
            assert is_symmetric_model(res.graph, res.thresholds)
            ok, _ = commutation_check(
                make_step(g, (k0,)), res.target_step(), res.lift, range(2)
            )
            assert ok

    def test_composed_commutation(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng.randint(2, 5), rng)
            k = random_thresholds(g, rng)
            res = symmetric_expansion(g, k)
            assert is_symmetric_model(res.graph, res.thresholds)
            ok, bad = commutation_check(
                make_step(g, k), res.target_step(), res.lift, range(1 << g.n)
            )
            assert ok, f"counterexample {bad}"

    def test_node_guard(self, triangle):
        with pytest.raises(GuardExceededError):
            symmetric_expansion(triangle, (1, 1, 2), max_nodes=10)

    def test_pivot_order_isomorphic(self, rng):
        # expanding with a non-canonical pivot order gives an isomorphic model
        for _ in range(5):
            g = random_connected_graph(rng.randint(3, 4), rng)
            k = random_thresholds(g, rng)
            if is_symmetric_model(g, k):
                continue
            canonical = symmetric_expansion(g, k)
            cur_g, cur_k = g, k
            while not is_symmetric_model(cur_g, cur_k):
                eligible = [
                    i
                    for i, d in enumerate(cur_g.degrees)
                    if d % 2 == 0 or 2 * cur_k[i] != d + 1
                ]
                res = one_step_symmetric_expansion(cur_g, cur_k, pivot=eligible[-1])
                cur_g, cur_k = res.graph, res.thresholds
            assert instances_isomorphic(
                canonical.graph, canonical.thresholds, cur_g, cur_k
            )

    def test_one_pass_equals_iterated_one_step(self, rng):
        # thresholds from 0 to d + 2: pinned pivots clamp their frozen blocks
        for _ in range(60):
            g = random_connected_graph(rng.randint(1, 7), rng, extra_edge_prob=0.3)
            k = tuple(rng.randint(0, d + 2) for d in g.degrees)
            cur_g, cur_k = g, k
            lift = identity_lift(g.n)
            node_map = [{"role": "original", "source": i} for i in range(g.n)]
            while not is_symmetric_model(cur_g, cur_k):
                res = one_step_symmetric_expansion(cur_g, cur_k)
                lift = compose_lifts(res.lift, lift)
                node_map = [node_map[e["source"]] if e["role"] == "original" else e
                            for e in res.node_map]
                cur_g, cur_k = res.graph, res.thresholds
            res = symmetric_expansion(g, k)
            assert (res.graph, res.thresholds, res.lift, res.node_map) == (
                cur_g, cur_k, lift, tuple(node_map)
            )

    def test_long_path_builds_once(self, monkeypatch):
        # every interior node of a k = 1 path pivots; one build for all of them
        import threshold_lab.expansions as ex

        builds = []
        real = ex.build_graph

        def counting(*args, **kwargs):
            builds.append(args[0])
            return real(*args, **kwargs)

        g = build_graph(2000, [(i, i + 1) for i in range(1999)])
        monkeypatch.setattr(ex, "build_graph", counting)
        res = symmetric_expansion(g, (1,) * 2000)
        assert builds == [res.graph.n] == [2000 + 1998 * 9]
        assert is_symmetric_model(res.graph, res.thresholds)


class TestCombineExpansions:
    def test_orders_commute_up_to_isomorphism(self, rng):
        checked = 0
        while checked < 4:
            g = random_connected_graph(rng.randint(3, 5), rng, extra_edge_prob=0.5)
            k = random_thresholds(g, rng)
            if is_bipartite(g) or is_symmetric_model(g, k):
                continue
            bip = bipartite_expansion(g, k)
            sym = symmetric_expansion(g, k)
            bip_then_sym = symmetric_expansion(bip.graph, bip.thresholds)
            sym_then_bip = bipartite_expansion(sym.graph, sym.thresholds)
            assert instances_isomorphic(
                bip_then_sym.graph,
                bip_then_sym.thresholds,
                sym_then_bip.graph,
                sym_then_bip.thresholds,
            )
            checked += 1


    def test_bipartite_doubling_then_symmetric(self, rng):
        # the doubling of a bipartite instance splits in two; the gadgets keep it split
        cases = [(build_graph(2, [(0, 1)]), (1, 2)), (build_graph(3, [(0, 1), (1, 2)]), (1, 1, 1))]
        while len(cases) < 14:
            g = random_connected_graph(rng.randint(1, 6), rng, extra_edge_prob=0.3)
            if is_bipartite(g):
                cases.append((g, tuple(rng.randint(0, d + 1) for d in g.degrees)))
        for g, k in cases:
            bip = bipartite_expansion(g, k)
            sym = symmetric_expansion(bip.graph, bip.thresholds)
            assert is_symmetric_model(sym.graph, sym.thresholds)
            results = [sym]
            if sym.graph.n > bip.graph.n:
                results.append(one_step_symmetric_expansion(bip.graph, bip.thresholds))
            for res in results:
                lift = compose_lifts(res.lift, bip.lift)
                ok, bad = commutation_check(
                    make_step(g, k), res.target_step(), lift, range(1 << g.n)
                )
                assert ok, f"counterexample {bad}"


class TestInvertedToPrimary:
    def test_mirror_thresholds(self, triangle):
        res = inverted_to_primary(triangle, (1, 1, 1))
        # originals get d - k + 1 = 2, mirrors keep k = 1
        assert res.thresholds == (2, 2, 2, 1, 1, 1)

    def test_commutation_exhaustive_small(self, rng):
        for _ in range(30):
            g = random_connected_graph(rng.randint(2, 5), rng)
            k = random_thresholds(g, rng)
            res = inverted_to_primary(g, k)
            ok, bad = commutation_check(
                inverted_step(g, k), res.target_step(), res.lift, range(1 << g.n)
            )
            assert ok, f"counterexample {bad}"


class TestSignedToPrimary:
    def test_all_positive_gives_two_copies(self):
        w, k = build_graph(3, [(0, 1, 1), (1, 2, 1)]), (0, 1, 1)
        res = signed_to_primary(w, k)
        assert res.graph.n == 6
        original_edges = {(i, j) for i, j in res.graph.edges if i < 3 and j < 3}
        mirror_edges = {(i - 3, j - 3) for i, j in res.graph.edges if i >= 3 and j >= 3}
        assert original_edges == mirror_edges == {(0, 1), (1, 2)}
        ok, _ = commutation_check(weighted_step(w, k), res.target_step(), res.lift, range(8))
        assert ok

    def test_single_negative_edge(self):
        w, k = build_graph(2, [(0, 1, -1)]), (0, 0)
        res = signed_to_primary(w, k)
        assert set(res.graph.edges) == {(0, 3), (1, 2)}
        ok, _ = commutation_check(weighted_step(w, k), res.target_step(), res.lift, range(4))
        assert ok

    def test_commutation_random(self, rng):
        for _ in range(30):
            w, k = random_signed_instance(rng.randint(2, 6), rng)
            res = signed_to_primary(w, k)
            ok, bad = commutation_check(
                weighted_step(w, k), res.target_step(), res.lift, range(1 << w.n)
            )
            assert ok, f"counterexample {bad}"

    def test_rejects_big_weights(self):
        with pytest.raises(WeightOutOfRangeError):
            signed_to_primary(build_graph(2, [(0, 1, 2)]), (0, 0))

    def test_rejects_invalid_thresholds(self):
        with pytest.raises(ValidityViolatedError):
            signed_to_primary(build_graph(2, [(0, 1, 1)]), (2, 0))


class TestIntegerWeightBlowup:
    def test_unit_weights_identity_blowup(self):
        res = integer_weights_to_unit(build_graph(2, [(0, 1, -1)]), (0, 0))
        assert res.graph.n == 2
        assert res.graph.weighted_edges() == [(0, 1, -1)]

    def test_single_heavy_edge(self):
        w, k = build_graph(2, [(0, 1, 2)]), (1, 1)
        res = integer_weights_to_unit(w, k)
        assert res.graph.n == 4
        # each copy of node 0 is adjacent to both copies of node 1
        degs = [res.graph.degree(i) for i in range(4)]
        assert degs == [2, 2, 2, 2]
        ok, _ = commutation_check(weighted_step(w, k), res.target_step(), res.lift, range(4))
        assert ok

    def test_path_with_mixed_weights(self):
        w, k = build_graph(3, [(0, 1, 2), (1, 2, -1)]), (1, 0, 0)
        res = integer_weights_to_unit(w, k)
        assert res.graph.n == 6
        ok, bad = commutation_check(weighted_step(w, k), res.target_step(), res.lift, range(8))
        assert ok, f"counterexample {bad}"

    def test_commutation_random(self, rng):
        for _ in range(20):
            w, k = random_small_blowup_instance(rng.randint(2, 4), rng)
            res = integer_weights_to_unit(w, k)
            ok, bad = commutation_check(
                weighted_step(w, k), res.target_step(), res.lift, range(1 << w.n)
            )
            assert ok, f"counterexample {bad}"

    def test_guard(self):
        with pytest.raises(GuardExceededError):
            integer_weights_to_unit(build_graph(2, [(0, 1, 100)]), (0, 0), max_nodes=64)

    def test_rejects_unweighted_graph(self, triangle):
        for transform in (integer_weights_to_unit, remove_self_loops):
            with pytest.raises(BadParameterError, match="needs a weighted instance"):
                transform(triangle, (1, 1, 1))


class TestRemoveSelfLoops:
    def test_no_loops_plain_doubling(self):
        res = remove_self_loops(build_graph(2, [(0, 1, 3)]), (1, 1))
        assert res.graph.n == 4
        assert set(res.graph.weighted_edges()) == {(0, 1, 3), (2, 3, 3)}
        assert res.to_dict()["self_loops"] == []

    def test_loop_becomes_cross_edge(self):
        w, k = build_graph(2, [(0, 1, 1)], [(0, 1)]), (1, 1)
        res = remove_self_loops(w, k)
        assert (0, 2, 1) in res.graph.weighted_edges()
        assert res.graph.loops == ()
        ok, _ = commutation_check(weighted_step(w, k), res.target_step(), res.lift, range(4))
        assert ok

    def test_commutation_random(self, rng):
        for _ in range(25):
            w, k = random_weighted_instance(rng.randint(2, 5), rng)
            res = remove_self_loops(w, k)
            ok, bad = commutation_check(
                weighted_step(w, k), res.target_step(), res.lift, range(1 << w.n)
            )
            assert ok, f"counterexample {bad}"


class TestRemoveConstantNode:
    def test_path_remove_middle_white(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        comps = remove_constant_node(g, (1, 1, 1), 1, "W")
        assert len(comps) == 2
        assert all(c.graph.n == 1 for c in comps)
        assert [c.thresholds for c in comps] == [(1,), (1,)]

    def test_path_remove_end_black(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        comps = remove_constant_node(g, (1, 2, 1), 0, "B")
        assert len(comps) == 1
        comp = comps[0]
        assert comp.nodes == (1, 2)
        assert comp.thresholds == (1, 1)  # neighbor threshold decremented

    def test_threshold_floor_at_zero(self, triangle):
        comps = remove_constant_node(triangle, (1, 0, 2), 0, "B")
        assert comps[0].thresholds == (0, 1)

    def test_pinned_simulation_equality(self, rng):
        # component dynamics equal the original dynamics with node i frozen
        for _ in range(25):
            g = random_connected_graph(rng.randint(2, 6), rng)
            k = random_thresholds(g, rng)
            i = rng.randrange(g.n)
            for pin, bit in (("W", 0), ("B", 1)):
                comps = remove_constant_node(g, k, i, pin)
                others = [v for v in range(g.n) if v != i]
                for a in range(1 << g.n):
                    if (a >> i) & 1 != bit:
                        continue
                    frozen = step_restricted(g, k, a, others)
                    for comp in comps:
                        sub_a = sum(
                            ((a >> old) & 1) << new for new, old in enumerate(comp.nodes)
                        )
                        sub_next = step(comp.graph, comp.thresholds, sub_a)
                        for new, old in enumerate(comp.nodes):
                            assert (sub_next >> new) & 1 == (frozen >> old) & 1


class TestInstancesIsomorphic:
    """Color refinement with individualization against the VF2 test
    that networkx (a test dependency) provides."""

    @staticmethod
    def vf2(g1, k1, g2, k2):
        import networkx as nx

        if g1.n != g2.n or sorted(zip(g1.degrees, k1)) != sorted(zip(g2.degrees, k2)):
            return False
        h1, h2 = nx.Graph(), nx.Graph()
        for h, g, k in ((h1, g1, k1), (h2, g2, k2)):
            h.add_nodes_from((i, {"k": k[i]}) for i in range(g.n))
            h.add_edges_from(g.edges)
        return nx.is_isomorphic(h1, h2, node_match=lambda x, y: x["k"] == y["k"])

    def test_agrees_with_vf2_on_random_pairs(self):
        rng = random.Random(2024)
        answers = []
        for t in range(2000):
            n = rng.randint(1, 9)
            g = random_connected_graph(n, rng, rng.choice((0.1, 0.3, 0.6)))
            k = tuple(rng.randint(0, 2) for _ in range(n))
            perm = rng.sample(range(n), n)
            h = build_graph(n, [(perm[i], perm[j]) for i, j in g.edges])
            kh = [0] * n
            for i in range(n):
                kh[perm[i]] = k[i]
            if t % 2 and rng.random() < 0.5:
                kh[rng.randrange(n)] ^= 1  # one threshold changed
            elif t % 2:  # an unrelated graph on as many nodes
                h = random_connected_graph(n, rng, rng.choice((0.1, 0.3, 0.6)))
                kh = [rng.randint(0, 2) for _ in range(n)]
            answer = instances_isomorphic(g, k, h, kh)
            assert answer == self.vf2(g, k, h, kh), (g.edges, k, h.edges, kh)
            answers.append(answer)
        assert 1000 < sum(answers) < 2000  # both answers are well represented

    def test_agrees_with_vf2_on_combined_expansions(self):
        rng = random.Random(77)
        pairs = 0
        while pairs < 12:
            g = random_connected_graph(rng.randint(3, 6), rng, extra_edge_prob=0.5)
            k = random_thresholds(g, rng)
            if is_bipartite(g) or is_symmetric_model(g, k):
                continue
            bip, sym = bipartite_expansion(g, k), symmetric_expansion(g, k)
            a = symmetric_expansion(bip.graph, bip.thresholds)
            b = bipartite_expansion(sym.graph, sym.thresholds)
            changed = list(b.thresholds)
            i = rng.randrange(len(changed))
            changed[i] += 1
            for kb in (b.thresholds, changed):
                assert instances_isomorphic(a.graph, a.thresholds, b.graph, kb) == self.vf2(
                    a.graph, a.thresholds, b.graph, kb
                ) == (kb is b.thresholds)
            pairs += 1

    def test_regular_graphs_need_the_search(self):
        # refinement leaves a regular graph in one cell, so only the search
        # tells these apart: the prism has triangles and K_{3,3} none
        prism = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
        k33 = build_graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
        assert not instances_isomorphic(prism, (2,) * 6, k33, (2,) * 6)
        assert instances_isomorphic(k33, (2,) * 6, k33, (2,) * 6)
        # a triangle plus a square, against the square first: the first
        # candidate for node 0 lies on the square, so the search backtracks
        def cycles(*lengths):
            edges, start = [], 0
            for m in lengths:
                edges += [(start + i, start + (i + 1) % m) for i in range(m)]
                start += m
            return build_graph(start, edges, require_connected=False)

        k = (1,) * 7
        assert instances_isomorphic(cycles(3, 4), k, cycles(4, 3), k)
        assert not instances_isomorphic(cycles(3, 4), k, cycles(7), k)

    def test_twins_are_searched_without_recursion(self):
        # 400 twin leaves force 400 nested individualizations
        star = build_graph(401, [(0, i) for i in range(1, 401)])
        k = (1,) * 401
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            assert instances_isomorphic(star, k, star, k)
        finally:
            sys.setrecursionlimit(limit)

    def test_weighted_graphs_are_rejected(self):
        # the weights 5 and -7, and the loop, used to be ignored
        w1 = build_graph(3, [(0, 1, 1), (1, 2, 5)])
        w2 = build_graph(3, [(0, 1, 1), (1, 2, -7)], [(0, 3)])
        with pytest.raises(BadParameterError, match="unweighted"):
            instances_isomorphic(w1, (0, 0, 0), w2, (0, 0, 0))

    def test_thresholds_are_validated(self):
        path = build_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(LengthMismatchError):
            instances_isomorphic(path, (1,), path, (1,))
        with pytest.raises(BadParameterError, match="must be an integer"):
            instances_isomorphic(path, (1, 1, 1), path, (1, 1.0, True))
        with pytest.raises(BadParameterError, match="negative"):
            instances_isomorphic(path, (1, -1, 1), path, (1, -1, 1))


class TestLiftComposition:
    def test_compose_matches_sequential_application(self, triangle):
        res1 = bipartite_expansion(triangle, (1, 1, 2))
        res2 = inverted_to_primary(res1.graph, res1.thresholds)
        combo = compose_lifts(res2.lift, res1.lift)
        for a in range(8):
            assert combo(a) == res2.lift(res1.lift(a))

    def test_compose_through_constants(self, rng):
        # symmetric -> bipartite -> inverted: the bipartite lift copies the Y-gadget
        # constants onto mirrors and the inverted lift negates them
        gadgets = 0
        for _ in range(30):
            g = random_connected_graph(rng.randint(1, 4), rng, extra_edge_prob=0.3)
            k = tuple(rng.randint(0, d + 2) for d in g.degrees)
            sym = symmetric_expansion(g, k)
            bip = bipartite_expansion(sym.graph, sym.thresholds)
            inv = inverted_to_primary(bip.graph, bip.thresholds)
            gadgets += sym.graph.n > g.n
            lifts = (sym.lift, bip.lift, inv.lift)
            inner_first = compose_lifts(inv.lift, compose_lifts(bip.lift, sym.lift))
            outer_first = compose_lifts(compose_lifts(inv.lift, bip.lift), sym.lift)
            assert inner_first == outer_first
            assert (inner_first.source_n, inner_first.target_n) == (g.n, inv.graph.n)
            for a in range(1 << g.n):
                b = a
                for lift in lifts:
                    b = lift(b)
                assert inner_first(a) == b
        assert gadgets >= 10
