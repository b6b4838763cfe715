from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_lab import (
    BadParameterError,
    DisconnectedError,
    DuplicateEdgeError,
    NodeOutOfRangeError,
    NotBipartiteError,
    SelfLoopError,
    WeightOutOfRangeError,
    bipartite_expansion,
    build_graph,
    count_fixed_points_backtracking,
    enumerate_limits,
    greedy_upper_bound_q,
    make_step,
    predecessors,
    resilience_bruteforce,
    transition_table,
    format_profile,
    instance_from_dict,
    instance_to_dict,
    is_bipartite,
    is_valid_node,
    parse_profile,
    step,
    step_types,
    two_partition,
    types_to_thresholds,
)
from threshold_lab.instances import random_connected_graph, random_types

import random


class TestBuildGraph:
    def test_triangle(self, triangle):
        assert triangle.n == 3
        assert triangle.edges == ((0, 1), (0, 2), (1, 2))
        assert triangle.degrees == (2, 2, 2)
        assert triangle.neighbor_masks == (0b110, 0b101, 0b011)

    def test_single_edge(self):
        g = build_graph(2, [(0, 1)])
        assert g.degrees == (1, 1)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError, match="node 2"):
            build_graph(3, [(0, 1)])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError, match="node 1"):
            build_graph(3, [(0, 1), (1, 1), (1, 2)])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEdgeError, match=r"\(0,1\)"):
            build_graph(2, [(0, 1), (1, 0)])

    def test_node_out_of_range(self):
        with pytest.raises(NodeOutOfRangeError, match=r"\(1,3\)"):
            build_graph(3, [(0, 1), (1, 3)])

    def test_single_node(self):
        g = build_graph(1, [])
        assert g.n == 1 and g.edges == ()

    def test_weighted_rows(self):
        g = build_graph(3, [(2, 1, -2), (0, 1)], [(2, 5)])
        assert g.edges == ((0, 1), (1, 2)) and g.weights == (1, -2) and g.loops == ((2, 5),)
        assert g.adjacency == ((1,), (0, 2), (1,)) and g.degrees == (1, 2, 1)
        assert build_graph(3, [(0, 1), (1, 2)]).weights is None
        assert build_graph(1, [], weighted=True).weights == ()
        assert build_graph(2, [(0, 1)], [(0, 1)]).weights == (1,)

    @pytest.mark.parametrize(
        "edges, loops, error",
        [
            ([(0, 1, 0)], (), WeightOutOfRangeError),
            ([(0, 1)], [(0, 0)], WeightOutOfRangeError),
            ([(0, 1)], [(0, 1), (0, 2)], DuplicateEdgeError),
            ([(0, 1)], [(2, 1)], NodeOutOfRangeError),
            ([(0, 1, 1, 1)], (), BadParameterError),
            ([(0, 1)], [(0,)], BadParameterError),
            ([0], (), BadParameterError),
        ],
    )
    def test_bad_weighted_rows(self, edges, loops, error):
        with pytest.raises(error):
            build_graph(2, edges, loops)


WEIGHTED = build_graph(3, [(0, 1, 2), (1, 2, 1)])


@pytest.mark.parametrize(
    "call",
    [
        lambda: enumerate_limits(WEIGHTED, (1, 1, 1)),
        lambda: transition_table(WEIGHTED, (1, 1, 1)),
        lambda: predecessors(WEIGHTED, (1, 1, 1), 0),
        lambda: count_fixed_points_backtracking(WEIGHTED, (1, 1, 1)),
        lambda: make_step(WEIGHTED, (1, 1, 1)),
        lambda: resilience_bruteforce(WEIGHTED, 1),
        lambda: greedy_upper_bound_q(WEIGHTED),
        lambda: bipartite_expansion(WEIGHTED, (1, 1, 1)),
    ],
    ids=["enumerate_limits", "transition_table", "predecessors",
         "count_fixed_points_backtracking", "make_step", "resilience_bruteforce",
         "greedy_upper_bound_q", "bipartite_expansion"],
)
def test_unit_weight_entry_points_reject_weighted_graphs(call):
    with pytest.raises(BadParameterError, match="needs an unweighted instance"):
        call()


class TestValidity:
    def test_threshold_zero_not_valid(self, triangle):
        assert not is_valid_node(triangle, (0, 1, 1), 0)

    def test_threshold_above_degree_not_valid(self, triangle):
        assert not is_valid_node(triangle, (3, 1, 1), 0)

    def test_threshold_in_range_valid(self, triangle):
        assert is_valid_node(triangle, (1, 1, 1), 0)
        assert is_valid_node(triangle, (2, 1, 1), 0)


class TestTwoPartition:
    def test_four_cycle(self, four_cycle):
        part = two_partition(four_cycle)
        assert part.p_even == (0, 2)
        assert part.p_odd == (1, 3)

    def test_path(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        part = two_partition(g)
        assert part.p_even == (0, 2)
        assert part.p_odd == (1,)

    def test_triangle_witness(self, triangle):
        with pytest.raises(NotBipartiteError) as err:
            two_partition(triangle)
        assert err.value.witness == (0, 1, 2)

    def test_witness_is_an_odd_cycle(self, rng):
        for _ in range(50):
            g = random_connected_graph(rng.randint(3, 8), rng, extra_edge_prob=0.4)
            try:
                part = two_partition(g)
            except NotBipartiteError as err:
                cyc = err.witness
                assert len(cyc) % 2 == 1
                edge_set = set(g.edges)
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    assert (min(a, b), max(a, b)) in edge_set
            else:
                # no intra-part edges
                for side in (part.p_odd, part.p_even):
                    s = set(side)
                    assert not any(i in s and j in s for i, j in g.edges)
                assert sorted(part.p_odd + part.p_even) == list(range(g.n))

    def test_bipartite_flag(self, triangle, four_cycle):
        assert not is_bipartite(triangle)
        assert is_bipartite(four_cycle)


class TestTypesToThresholds:
    def test_half_of_two(self):
        g = build_graph(3, [(0, 1), (1, 2)])  # node 1 has degree 2
        k = types_to_thresholds(g, [(0, 1), (1, 2), (0, 1)])
        assert k[1] == 2

    def test_zero_type(self):
        g = build_graph(6, [(0, i) for i in range(1, 6)])  # star, center degree 5
        k = types_to_thresholds(g, [0, 0, 0, 0, 0, 0])
        assert k[0] == 1

    def test_type_one_never_fires(self, triangle):
        # q_i = 1 with d_i = 2 -> k_i = 3, a non-valid always-W node
        k = types_to_thresholds(triangle, [1, 0, 0])
        assert k[0] == 3
        assert not is_valid_node(triangle, k, 0)

    def test_thresholds_from_types_always_positive(self, rng):
        for _ in range(100):
            g = random_connected_graph(rng.randint(2, 7), rng)
            k = types_to_thresholds(g, random_types(g, rng))
            assert all(ki >= 1 for ki in k)

    def test_rule_equivalence_exhaustive(self, rng):
        # the strict type rule and the converted threshold rule trace
        # identical updates on every profile
        for _ in range(60):
            g = random_connected_graph(rng.randint(2, 6), rng)
            q = random_types(g, rng)
            k = types_to_thresholds(g, q)
            for a in range(1 << g.n):
                assert step_types(g, q, a) == step(g, k, a)

    def test_boundary_tie_breaks_exactly(self):
        # q*d an exact integer: count == q*d must NOT fire (strict rule)
        g = build_graph(5, [(0, i) for i in range(1, 5)])
        q = [Fraction(1, 2), 0, 0, 0, 0]
        k = types_to_thresholds(g, q)
        assert k[0] == 3  # 2 of 4 neighbors is not strictly more than half

    def test_floats_rejected(self, triangle):
        with pytest.raises(BadParameterError):
            types_to_thresholds(triangle, [0.5, 0, 0])


class TestProfiles:
    def test_parse_format(self):
        assert parse_profile("BWB") == 0b101
        assert format_profile(0b101, 3) == "BWB"
        assert parse_profile("WWW") == 0

    def test_parse_rejects_garbage(self):
        with pytest.raises(BadParameterError):
            parse_profile("BXW")

    @given(st.integers(min_value=1, max_value=16), st.data())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, n, data):
        a = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        assert parse_profile(format_profile(a, n), n) == a

    def test_profile_order_is_integer_order(self):
        profiles = ["WWW", "BWW", "WBW", "BBW"]
        values = [parse_profile(p) for p in profiles]
        assert values == sorted(values)


class TestInstanceJson:
    def test_threshold_roundtrip(self, four_cycle):
        d = instance_to_dict(four_cycle, (1, 2, 1, 2))
        g, k = instance_from_dict(d)
        assert g == four_cycle and k == (1, 2, 1, 2)

    def test_types_roundtrip(self, triangle):
        d = instance_to_dict(triangle, q=[(1, 2), (0, 1), (1, 1)])
        g, q = instance_from_dict(d)
        assert q == (Fraction(1, 2), Fraction(0), Fraction(1))

    def test_missing_keys(self):
        with pytest.raises(BadParameterError):
            instance_from_dict({"n": 2, "edges": [[0, 1]]})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 3.9),
            ("n", 3.0),
            ("n", True),
            ("n", "3"),
            ("edges", [[0, 1], [1, 1.5]]),
            ("edges", [[0, 1], [1, True]]),
            ("edges", [[0, 1], ["1", 2]]),
            ("edges", [[0, 1], 2]),
            ("edges", [[0, 1], [1, 2, 0]]),
            ("thresholds", [1.7, 1, 2]),
            ("thresholds", [1, True, 2]),
            ("thresholds", [1, 1, "2"]),
            ("thresholds", 2),
        ],
    )
    def test_non_integer_fields_rejected(self, field, value):
        d = {"n": 3, "edges": [[0, 1], [1, 2]], "thresholds": [1, 1, 2]}
        d[field] = value
        with pytest.raises(BadParameterError, match="must be"):
            instance_from_dict(d)

    @pytest.mark.parametrize(
        "pair",
        [["1", 2], [True, 2], [1, True], [1, 2.0], [1, 0], [1, 2, 3], [1], "1/2", True, None],
    )
    def test_non_integer_type_pairs_rejected(self, pair):
        d = {"n": 3, "edges": [[0, 1], [1, 2]], "types": [[1, 2], pair, [0, 1]]}
        with pytest.raises(BadParameterError, match="must be"):
            instance_from_dict(d)

    def test_weighted_format_is_kept(self):
        # all weights 1 and no self-loops: still a weighted instance
        d = {"n": 2, "weighted_edges": [[0, 1, 1]], "self_loops": [], "thresholds": [1, -1]}
        g, k = instance_from_dict(d)
        assert g.weights == (1,) and k == (1, -1)
        assert instance_to_dict(g, k) == d
        g, k = instance_from_dict({"n": 2, "weighted_edges": [[0, 1, 3]]})
        assert k == (0, 0)

    @given(st.integers(min_value=1, max_value=8), st.integers(0, 10**6), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_weighted_roundtrip(self, n, seed, unit):
        rng = random.Random(seed)
        g = random_connected_graph(n, rng)
        weights = (1,) if unit else (-3, -1, 1, 2, 10**20)
        d = {
            "n": n,
            "weighted_edges": [[i, j, rng.choice(weights)] for i, j in g.edges],
            "self_loops": [] if unit else [[i, rng.choice(weights)] for i in range(n)
                                           if rng.random() < 0.3],
            "thresholds": [rng.randint(-5, 5) for _ in range(n)],
        }
        assert instance_to_dict(*instance_from_dict(d)) == d

    def test_load_instance_from_file(self, tmp_path, four_cycle):
        import json

        from threshold_lab import load_instance

        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance_to_dict(four_cycle, (1, 2, 1, 2))))
        g, k = load_instance(str(path))
        assert g == four_cycle and k == (1, 2, 1, 2)
