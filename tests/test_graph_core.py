import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_lab import (
    BadParameterError,
    Graph,
    NotBipartiteError,
    bipartite_expansion,
    build_graph,
    count_fixed_points_backtracking,
    enumerate_limits,
    greedy_upper_bound_q,
    make_step,
    predecessors,
    resilience_bruteforce,
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
from threshold_lab.graph_core import as_int
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
        with pytest.raises(BadParameterError, match=re.escape(
                "graph is not connected: node 2 unreachable from node 0")):
            build_graph(3, [(0, 1)])

    @pytest.mark.parametrize(
        "d",
        [{"n": 300000, "edges": [], "thresholds": [0]}, {"n": 300000, "weighted_edges": []}],
        ids=["unweighted", "weighted"],
    )
    def test_too_few_edges_rejected_before_per_node_work(self, d):
        # fewer than n - 1 edges cannot connect n nodes, so a tiny file
        # must not cost memory linear in n before it is refused
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(BadParameterError, match=re.escape(
                    "graph is not connected: node 1 unreachable from node 0")):
                instance_from_dict(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_disconnected_with_enough_edges_rejected(self):
        # a triangle plus an isolated node: n - 1 edges, still disconnected
        with pytest.raises(BadParameterError, match=re.escape(
                "graph is not connected: node 3 unreachable from node 0")):
            build_graph(4, [(0, 1), (1, 2), (0, 2)])

    def test_random_graphs_against_brute_force(self):
        # a disconnected graph names the smallest node that node 0 does
        # not reach; a connected one gets sorted neighbor lists
        rng = random.Random(7)
        for _ in range(600):
            n = rng.randint(2, 9)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            edges = [e[::-1] if rng.random() < 0.5 else e
                     for e in rng.sample(pairs, rng.randint(0, len(pairs)))]
            reached = {0}
            for _ in range(n):
                reached |= {v for e in edges if reached & set(e) for v in e}
            if len(reached) == n:
                nbrs = [sorted(v for e in edges if u in e for v in e if v != u) for u in range(n)]
                assert build_graph(n, edges).adjacency == tuple(map(tuple, nbrs))
                continue
            unreached = min(set(range(n)) - reached)
            with pytest.raises(BadParameterError, match=re.escape(
                    f"graph is not connected: node {unreached} unreachable from node 0")):
                build_graph(n, edges)

    def test_self_loop_rejected(self):
        with pytest.raises(BadParameterError, match=re.escape(
                "self-loop at node 1: self-loops go in the loops argument")):
            build_graph(3, [(0, 1), (1, 1), (1, 2)])

    def test_duplicate_rejected(self):
        with pytest.raises(BadParameterError, match=re.escape("duplicate edge (0,1)")):
            build_graph(2, [(0, 1), (1, 0)])

    def test_node_out_of_range(self):
        with pytest.raises(BadParameterError,
                           match=re.escape("edge (1,3) references a node outside 0..2")):
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
        "edges, loops, message",
        [
            ([(0, 1, 0)], (), "edge (0,1) has zero weight"),
            ([(0, 1)], [(0, 0)], "self-loop at node 0 has zero weight"),
            ([(0, 1)], [(0, 1), (0, 2)], "duplicate self-loop at node 0"),
            ([(0, 1)], [(2, 1)], "self-loop at node 2 outside 0..1"),
            ([(0, 1, 1, 1)], (), "edge row (0, 1, 1, 1) must have 2 or 3 entries"),
            ([(0, 1)], [(0,)], "self-loop row (0,) must have 2 entries"),
            ([0], (), "edge row 0 must have 2 or 3 entries"),
        ],
        ids=lambda v: "BadParameterError" if isinstance(v, str) else None,  # the class raised
    )
    def test_bad_weighted_rows(self, edges, loops, message):
        with pytest.raises(BadParameterError, match=re.escape(message)):
            build_graph(2, edges, loops)


WEIGHTED = build_graph(3, [(0, 1, 2), (1, 2, 1)])


@pytest.mark.parametrize(
    "call",
    [
        lambda: enumerate_limits(WEIGHTED, (1, 1, 1)),
        lambda: predecessors(WEIGHTED, (1, 1, 1), 0),
        lambda: count_fixed_points_backtracking(WEIGHTED, (1, 1, 1)),
        lambda: make_step(WEIGHTED, (1, 1, 1)),
        lambda: resilience_bruteforce(WEIGHTED, 1),
        lambda: greedy_upper_bound_q(WEIGHTED),
        lambda: bipartite_expansion(WEIGHTED, (1, 1, 1)),
    ],
    ids=["enumerate_limits", "predecessors",
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

    def test_chorded_cycle_witness(self):
        # a relabelled 15-cycle with one chord: the walks up the BFS tree
        # meet at node 0 and close the 9-cycle through the chord (14, 3)
        order = [(7 * i) % 15 for i in range(15)]
        edges = [(order[i], order[(i + 1) % 15]) for i in range(15)] + [(order[2], order[9])]
        with pytest.raises(NotBipartiteError) as err:
            two_partition(build_graph(15, edges))
        assert err.value.witness == (0, 7, 14, 3, 10, 2, 9, 1, 8)

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

    def test_colors_every_component(self):
        # each component's smallest node goes in p_even
        g = build_graph(5, [(0, 1), (2, 3), (3, 4)], require_connected=False)
        part = two_partition(g)
        assert part.p_even == (0, 2, 4)
        assert part.p_odd == (1, 3)

    def test_odd_cycle_outside_node_zeros_component(self):
        g = build_graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)], require_connected=False)
        assert not is_bipartite(g)
        with pytest.raises(NotBipartiteError) as err:
            two_partition(g)
        assert err.value.witness == (2, 3, 4)


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

    def test_against_the_fraction_formula(self, rng):
        # k_i = floor(q_i * d_i) + 1 on random pairs; a pair with a
        # negative denominator is read as its Fraction, and one outside
        # [0, 1] or with a zero denominator is refused
        for _ in range(300):
            g = random_connected_graph(rng.randint(1, 9), rng)
            pairs = []
            for _ in range(g.n):
                den = rng.choice((1, 2, 3, 5, 8, -2, -3, 0))
                pairs.append([rng.randint(-2, abs(den) + 1) * (1 if den >= 0 else -1), den])
            pairs = [rng.choice(pairs) if rng.random() < 0.3 else p for p in pairs]
            try:
                q = [Fraction(*p) for p in pairs]
                ok = all(0 <= f <= 1 for f in q)
            except ZeroDivisionError:
                ok = False
            if not ok:
                with pytest.raises(BadParameterError):
                    types_to_thresholds(g, pairs)
                continue
            assert types_to_thresholds(g, pairs) == tuple(
                math.floor(f * d) + 1 for f, d in zip(q, g.degrees))
        star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert types_to_thresholds(star, [[-1, -2], [1, 1], [1, 1], [0, 1]]) == (2, 2, 2, 1)
        assert types_to_thresholds(star, [[1, 1]] * 4) == (4, 2, 2, 2)
        for pair, message in (([1, -2], "type value -1/2 outside [0, 1]"),
                              ([1, 0], "must be a Fraction, an int, or an integer pair")):
            with pytest.raises(BadParameterError, match=re.escape(message)):
                types_to_thresholds(star, [[0, 1], pair, [0, 1], [0, 1]])


class TestProfiles:
    def test_parse_format(self):
        assert parse_profile("BWB") == 0b101
        assert format_profile(0b101, 3) == "BWB"
        assert parse_profile("WWW") == 0

    def test_parse_rejects_garbage(self):
        with pytest.raises(BadParameterError):
            parse_profile("BXW")
        for text, ch, i in (("BXW", "X", 1), ("BW1", "1", 2), ("0BW", "0", 0),
                            ("WW b", " ", 2), ("WWWb", "b", 3)):
            with pytest.raises(BadParameterError, match=f"{ch!r} at position {i} "):
                parse_profile(text)

    @given(st.integers(min_value=1, max_value=300), st.data())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, n, data):
        a = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        text = format_profile(a, n)
        assert parse_profile(text, n) == a
        # the bit-by-bit definitions
        assert text == "".join("B" if (a >> i) & 1 else "W" for i in range(n))
        assert parse_profile(text) == sum(1 << i for i, ch in enumerate(text) if ch == "B")

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
        # types decode to thresholds: floor(q_i * 2) + 1 on the triangle
        d = {"n": 3, "edges": [list(e) for e in triangle.edges],
             "types": [[1, 2], [0, 1], [1, 1]]}
        g, k = instance_from_dict(d)
        assert g == triangle and k == (2, 1, 3)
        assert instance_to_dict(g, k) == {"n": 3, "edges": d["edges"], "thresholds": [2, 1, 3]}

    def test_missing_keys(self):
        with pytest.raises(BadParameterError):
            instance_from_dict({"n": 2, "edges": [[0, 1]]})

    @pytest.mark.parametrize("d, pair", [
        # each of these was read by dropping one key of the pair
        ({"n": 2, "weighted_edges": [[0, 1, 1]], "types": [[1, 1], [1, 1]]},
         ("weighted_edges", "types")),
        ({"n": 2, "weighted_edges": [[0, 1, 1]], "thresholds": [1, 1], "types": [[1, 1], [1, 1]]},
         ("thresholds", "types")),
        ({"n": 2, "edges": [[0, 1]], "thresholds": [1, 1], "types": [[1, 1], [1, 1]]},
         ("thresholds", "types")),
        ({"n": 2, "edges": [[0, 1]], "weighted_edges": [[0, 1, 1]], "thresholds": [1, 1]},
         ("edges", "weighted_edges")),
        ({"n": 2, "edges": [[0, 1]], "self_loops": [[0, 5]], "thresholds": [1, 1]},
         ("edges", "self_loops")),
        ({"n": 2, "edges": [[0, 1]], "self_loops": [], "thresholds": [1, 1]},
         ("edges", "self_loops")),
    ])
    def test_conflicting_keys_rejected(self, d, pair):
        with pytest.raises(BadParameterError, match=re.escape(
                f"instance has both {pair[0]!r} and {pair[1]!r}")):
            instance_from_dict(d)

    def test_other_extra_keys_ignored(self, four_cycle):
        # expand writes a node_map next to the instance, and reduce its
        # labels and checks; a key the package does not write is refused
        # by test_unknown_keys_rejected
        d = dict(instance_to_dict(four_cycle, (1, 2, 1, 2)), node_map=[0, 1, 2, 3],
                 labels=["a", "b", "c", "d"], target="BWBW", verification={})
        assert instance_from_dict(d) == (four_cycle, (1, 2, 1, 2))

    @pytest.mark.parametrize("d, key", [
        # the weighted file read no thresholds, and printed BB, exit 0
        ({"n": 2, "weighted_edges": [[0, 1, 1]], "threshold": [5, 5]}, "threshold"),
        ({"n": 2, "weighted_edges": [[0, 1, 1]], "self_loop": [[0, 5]]}, "self_loop"),
        ({"n": 2, "edges": [[0, 1]], "thresholds": [1, 1], "note": "x"}, "note"),
        ({"n": 2, "edges": [[0, 1]], "type": [[1, 2], [1, 2]], "thresholds": [1, 1]}, "type"),
        ({"n": 2, "edges": [[0, 1]], "thresholds": [1, 1], "variant": "3cnf"}, "variant"),
        ({"n": 2, "edges": [[0, 1]], "thresholds": [1, 1], "clauses": []}, "clauses"),
    ])
    def test_unknown_keys_rejected(self, d, key):
        with pytest.raises(BadParameterError, match=re.escape(f"instance has unknown key {key!r}")):
            instance_from_dict(d)

    @pytest.mark.parametrize("d, message", [
        # a 2-entry weighted row would load with weight 1, and a 3-entry
        # unweighted row would make the instance weighted
        ({"n": 2, "weighted_edges": [[0, 1]], "thresholds": [1, 1]},
         "each entry of weighted_edges must be a list of 3 integers, got [0, 1]"),
        ({"n": 2, "edges": [[0, 1, 5]], "thresholds": [1, 1]},
         "each entry of edges must be a list of 2 integers, got [0, 1, 5]"),
    ])
    def test_row_width_per_format(self, d, message):
        with pytest.raises(BadParameterError, match=f"^{re.escape(message)}$"):
            instance_from_dict(d)

    def test_null_weighted_thresholds_rejected(self):
        # an explicit null read as all-zero thresholds (BB, exit 0); a
        # missing key keeps that default
        d = {"n": 2, "weighted_edges": [[0, 1, 1]], "thresholds": None}
        with pytest.raises(BadParameterError, match="^thresholds must be a list, got None$"):
            instance_from_dict(d)
        with pytest.raises(BadParameterError, match="^thresholds must be a list, got None$"):
            instance_from_dict({"n": 2, "edges": [[0, 1]], "thresholds": None})
        del d["thresholds"]
        assert instance_from_dict(d)[1] == (0, 0)

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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
            ('{"n": 2, "edges": [[0, 1]],', "Expecting"),
        ],
        ids=["deeply-nested", "truncated"],
    )
    def test_load_instance_rejects_undecodable_files(self, tmp_path, text, message):
        from threshold_lab import load_instance

        path = tmp_path / "bad.json"
        path.write_text(text)
        expected = f"cannot decode {re.escape(str(path))} as JSON: {message}"
        with pytest.raises(BadParameterError, match=expected):
            load_instance(str(path))

    def test_types_must_be_a_list(self):
        with pytest.raises(BadParameterError, match="types must be a list, got 5"):
            instance_from_dict({"n": 2, "edges": [[0, 1]], "types": 5})


# ---------------------------------------------------------------------------
# Loader equivalence: the loaders check the JSON shape only and leave
# every number to build_graph, so a file must give the graph, or the error,
# of the row-by-row build_graph kept here as the oracle


def _oracle_fields(row, widths, what):
    try:
        fields = list(row)
    except TypeError:
        fields = None
    if fields is None or len(fields) not in widths:
        raise BadParameterError(f"{what} {row!r} must have {' or '.join(map(str, widths))} entries")
    return fields


def _oracle_check_connected(n, nbrs_of):
    seen = {0}
    queue = [0]
    for u in queue:
        for v in nbrs_of.get(u, ()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    if len(seen) < n:
        unreached = next(v for v in range(n) if v not in seen)
        raise BadParameterError(f"graph is not connected: node {unreached} unreachable from node 0")


def oracle_build_graph(n, edges, loops=(), *, weighted=False, require_connected=True):
    n = as_int(n, "node count")
    if n < 1:
        raise BadParameterError(f"node count must be positive, got {n}")
    weight_of = {}
    for row in edges:
        fields = _oracle_fields(row, (2, 3), "edge row")
        i = as_int(fields[0], "edge endpoint")
        j = as_int(fields[1], "edge endpoint")
        w = 1
        if len(fields) == 3:
            w = as_int(fields[2], "edge weight")
            weighted = True
        if not (0 <= i < n) or not (0 <= j < n):
            raise BadParameterError(f"edge ({i},{j}) references a node outside 0..{n - 1}")
        if i == j:
            raise BadParameterError(f"self-loop at node {i}: self-loops go in the loops argument")
        if w == 0:
            raise BadParameterError(f"edge ({i},{j}) has zero weight")
        e = (i, j) if i < j else (j, i)
        if e in weight_of:
            raise BadParameterError(f"duplicate edge ({e[0]},{e[1]})")
        weight_of[e] = w
    loop_of = {}
    for row in loops:
        i, w = _oracle_fields(row, (2,), "self-loop row")
        i = as_int(i, "self-loop node")
        w = as_int(w, "self-loop weight")
        weighted = True
        if not 0 <= i < n:
            raise BadParameterError(f"self-loop at node {i} outside 0..{n - 1}")
        if w == 0:
            raise BadParameterError(f"self-loop at node {i} has zero weight")
        if i in loop_of:
            raise BadParameterError(f"duplicate self-loop at node {i}")
        loop_of[i] = w
    canon = sorted(weight_of)
    nbrs_of = {}
    for i, j in canon:
        nbrs_of.setdefault(i, []).append(j)
        nbrs_of.setdefault(j, []).append(i)
    if require_connected:
        _oracle_check_connected(n, nbrs_of)
    adjacency = tuple(tuple(nbrs_of.get(i, ())) for i in range(n))
    return Graph(
        n=n,
        edges=tuple(canon),
        adjacency=adjacency,
        degrees=tuple(len(nbrs) for nbrs in adjacency),
        weights=tuple(weight_of[e] for e in canon) if weighted else None,
        loops=tuple(sorted(loop_of.items())),
    )


def _outcome(build, *args, **kwargs):
    """The Graph's fields, or the exception class and message."""
    try:
        g = build(*args, **kwargs)
    except BadParameterError as exc:
        return type(exc), str(exc)
    return tuple(g), g.neighbor_masks


def _random_rows(rng, n, weighted):
    """Edge rows of a random graph, in random order and orientation,
    sometimes disconnected; a weighted row ends in its weight."""
    g = random_connected_graph(n, rng)
    edges = [e for e in g.edges if rng.random() < 0.95]
    rows = []
    for i, j in edges:
        row = [j, i] if rng.random() < 0.5 else [i, j]
        if weighted:
            row.append(rng.choice((-7, -1, 1, 2, 3, 10**20)))
        rows.append(row)
    rng.shuffle(rows)
    return rows


class TestLoaderEquivalence:
    def test_random_unweighted_graphs(self):
        rng = random.Random(21)
        for _ in range(400):
            n = rng.randint(1, 30)
            rows = _random_rows(rng, n, weighted=False)
            d = {"n": n, "edges": rows, "thresholds": [1] * n}
            assert _outcome(lambda: instance_from_dict(d)[0]) == _outcome(
                oracle_build_graph, n, rows)

    def test_random_weighted_graphs_with_loops(self):
        rng = random.Random(22)
        for _ in range(400):
            n = rng.randint(1, 30)
            rows = _random_rows(rng, n, weighted=True)
            loops = [[i, rng.choice((-2, 1, 5))] for i in range(n) if rng.random() < 0.3]
            rng.shuffle(loops)
            d = {"n": n, "weighted_edges": rows, "self_loops": loops}
            assert _outcome(lambda: instance_from_dict(d)[0]) == _outcome(
                oracle_build_graph, n, rows, loops, weighted=True)

    def test_numpy_rows(self):
        import numpy as np

        rng = random.Random(23)
        for _ in range(50):
            n = rng.randint(2, 20)
            arr = np.array(random_connected_graph(n, rng).edges, dtype=np.int64)[:, ::-1]
            loops = np.array([[0, 3]], dtype=np.int32)
            got = _outcome(build_graph, np.int64(n), arr, loops)
            assert got == _outcome(oracle_build_graph, np.int64(n), arr, loops)
            assert got[0][0] == n and type(got[0][0]) is int

    def test_irregular_rows(self):
        # tuple and list rows of both widths, reversed and repeated edges,
        # non-int values and out-of-range nodes, mostly one defect a call
        rng = random.Random(25)
        odd = (True, False, 1.0, 2.5, "1", None, -1)
        outcomes = set()
        for _ in range(1500):
            n = rng.randint(1, 12)
            rows = [list(r) for r in _random_rows(rng, n, weighted=False)]
            for row in rows:
                if rng.random() < 0.3:
                    row.append(rng.choice((-2, 1, 3, 0)))
            loops = [[i, rng.choice((-2, 1, 5))] for i in range(n) if rng.random() < 0.2]
            if rows and rng.random() < 0.2:
                rows.append(rng.choice(rows)[::-1])
            for table in (rows, loops):
                if table and rng.random() < 0.15:
                    rng.choice(table)[rng.randrange(2)] = rng.choice((n, n + 3, -1))
                if table and rng.random() < 0.15:
                    row = rng.choice(table)
                    row[rng.randrange(len(row))] = rng.choice(odd)
            edges = [tuple(r) if rng.random() < 0.5 else r for r in rows]
            loops = [tuple(r) if rng.random() < 0.5 else r for r in loops]
            connected = rng.random() < 0.9
            expected = _outcome(oracle_build_graph, n, edges, loops, require_connected=connected)
            assert _outcome(build_graph, n, edges, loops, require_connected=connected) == expected
            outcomes.add(expected[1] if expected[0] is BadParameterError
                         else "weighted" if expected[0][4] is not None else "unweighted")
        # every kind of defect above was drawn, and graphs of both kinds
        for pattern in (r"^duplicate edge", r"^edge \(.*references a node outside",
                        r"^self-loop at node -?\d+ outside", r"go in the loops argument$",
                        r"^edge endpoint must be an integer, got (True|False|1\.0|'1'|None)$",
                        r"^edge weight must be an integer", r"^self-loop weight must be",
                        r"^self-loop node must be", r"^edge \(.*\) has zero weight$",
                        r"^graph is not connected", r"^weighted$", r"^unweighted$"):
            assert any(re.search(pattern, o) for o in outcomes), pattern

    def test_numpy_rows_and_values(self):
        import numpy as np

        rng = random.Random(26)
        for _ in range(200):
            n = rng.randint(1, 12)
            rows = [r + [rng.choice((-3, 1, 2))] if rng.random() < 0.3 else r
                    for r in _random_rows(rng, n, weighted=False)]
            loops = [[i, 2] for i in range(n) if rng.random() < 0.3]
            if rng.random() < 0.3:
                loops.append([rng.choice((n, -1, 0)), 1])
            dtype = rng.choice((np.int64, np.int32))
            edges = [np.array(r, dtype=dtype) if rng.random() < 0.5 else [dtype(x) for x in r]
                     for r in rows]
            np_loops = np.array(loops, dtype=np.int64).reshape(-1, 2)
            expected = _outcome(oracle_build_graph, dtype(n), edges, np_loops)
            assert _outcome(build_graph, dtype(n), edges, np_loops) == expected

    def test_random_types_instances(self):
        rng = random.Random(24)
        for _ in range(200):
            n = rng.randint(2, 30)
            rows = [r[:2] for r in _random_rows(rng, n, weighted=False)]
            types = []
            for _ in range(n):
                den = rng.choice((1, 2, 3, 7, -4))
                types.append([rng.randint(0, abs(den)) * (1 if den > 0 else -1), den])
            d = {"n": n, "edges": rows, "types": types}
            expected = _outcome(oracle_build_graph, n, rows)
            assert _outcome(lambda: instance_from_dict(d)[0]) == expected
            if isinstance(expected[0], tuple):  # a graph, not an error
                g, k = instance_from_dict(d)
                q = [Fraction(p, den) for p, den in types]
                assert k == tuple(math.floor(qi * di) + 1 for qi, di in zip(q, g.degrees))

    @pytest.mark.parametrize(
        "n, edges, loops, message",
        [
            (3, [(0, 1), (1, 3)], (), "edge (1,3) references a node outside 0..2"),
            (3, [(0, 1), (1, 2)], [(3, 1)], "self-loop at node 3 outside 0..2"),
            (3, [(0, 1), (1, 1), (1, 2)], (),
             "self-loop at node 1: self-loops go in the loops argument"),
            (3, [(0, 1, 2), (2, 1, 0)], (), "edge (2,1) has zero weight"),
            (3, [(0, 1), (1, 2)], [(2, 0)], "self-loop at node 2 has zero weight"),
            (3, [(0, 1), (1, 2), (1, 0)], (), "duplicate edge (0,1)"),
            (3, [(0, 1), (1, 2)], [(1, 5), (0, 1), (1, -1)], "duplicate self-loop at node 1"),
            (3, [(0, 1), (1, True)], (), "edge endpoint must be an integer, got True"),
            (3, [(0, 1, True), (1, 2)], (), "edge weight must be an integer, got True"),
            (3, [(0, 1), (1, 2)], [(False, 1)], "self-loop node must be an integer, got False"),
            (3, [(0, 1), (1, 2.0)], (), "edge endpoint must be an integer, got 2.0"),
            (3, [(0, 1), (1, 2)], [(1, 1.5)], "self-loop weight must be an integer, got 1.5"),
            (3, [(0, "1"), (1, 2)], (), "edge endpoint must be an integer, got '1'"),
            (3.0, [(0, 1), (1, 2)], (), "node count must be an integer, got 3.0"),
            (3, [(0, 1), (1, 2, 3, 4)], (), "edge row (1, 2, 3, 4) must have 2 or 3 entries"),
            (3, [(0, 1), 2], (), "edge row 2 must have 2 or 3 entries"),
            (3, [(0, 1), (1, 2)], [(1,)], "self-loop row (1,) must have 2 entries"),
            (3, [(0, 1)], (), "graph is not connected: node 2 unreachable from node 0"),
            (4, [(0, 1), (1, 2), (0, 2)], (),
             "graph is not connected: node 3 unreachable from node 0"),
        ],
        ids=["edge-range", "loop-range", "self-loop", "zero-weight", "zero-loop-weight",
             "duplicate-edge", "duplicate-loop", "bool", "bool-weight", "bool-loop-node",
             "float", "float-loop-weight", "string", "float-n", "wide-row", "scalar-row",
             "short-loop-row", "disconnected-few-edges", "disconnected"],
    )
    def test_single_defect_messages(self, n, edges, loops, message):
        assert _outcome(build_graph, n, edges, loops) == (BadParameterError, message)
        assert _outcome(oracle_build_graph, n, edges, loops) == (BadParameterError, message)
