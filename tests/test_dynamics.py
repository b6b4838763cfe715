import os
import re
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_lab import (
    BadParameterError,
    GuardExceededError,
    InvariantViolationError,
    LimitReport,
    Rule,
    build_graph,
    conflict_links,
    convergence_time_bound,
    default_guard,
    instance_from_dict,
    limit_cycle,
    make_step,
    parse_profile,
    ring_two_step,
    step,
    step_restricted,
    step_types,
    step_weighted,
    strong_assignments,
    types_to_thresholds,
)
from threshold_lab.enumeration import enumerate_limits
from threshold_lab.instances import (
    cycle_graph,
    random_connected_graph,
    random_thresholds,
    random_types,
    random_weighted_instance,
    star_graph,
)

from conftest import as_int, inverted_step, slow_step


def negated(g):
    """g with every edge weight -1: with thresholds 1 - k_i it runs the
    inverted rule, B iff at most k_i - 1 neighbors play B."""
    return build_graph(g.n, [(i, j, -1) for i, j in g.edges])


class TestStep:
    def test_triangle_hand_example(self, triangle):
        assert step(triangle, (1, 1, 2), parse_profile("BWW")) == parse_profile("WBW")

    def test_all_white_fixed_with_positive_thresholds(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng.randint(2, 7), rng)
            k = tuple(rng.randint(1, d + 1) for d in g.degrees)
            assert step(g, k, 0) == 0

    def test_zero_threshold_always_black(self, four_cycle):
        for a in range(16):
            assert step(four_cycle, (0, 2, 2, 2), a) & 1

    def test_matches_reference_rule(self, rng):
        for _ in range(30):
            g = random_connected_graph(rng.randint(2, 7), rng)
            k = random_thresholds(g, rng)
            for _ in range(20):
                a = rng.randrange(1 << g.n)
                bits = tuple(bool((a >> i) & 1) for i in range(g.n))
                assert step(g, k, a) == as_int(slow_step(g.adjacency, k, bits))

    def test_length_mismatch(self, triangle):
        with pytest.raises(BadParameterError,
                           match=re.escape("threshold vector has length 2, expected 3")):
            step(triangle, (1, 1), 0)
        with pytest.raises(BadParameterError, match=re.escape("profile 8 does not fit in 3 bits")):
            step(triangle, (1, 1, 1), 8)


class TestStepTypes:
    def test_star_center_type_one_plays_white(self):
        g = star_graph(5)
        q = [Fraction(1), 0, 0, 0, 0]
        for a in range(1 << 5):
            assert not step_types(g, q, a) & 1

    def test_zero_type_fires_on_one_neighbor(self):
        g = build_graph(2, [(0, 1)])
        assert step_types(g, [0, 1], 0b10) & 1

    def test_triangle_types_example(self, triangle):
        q = [Fraction(2, 5), Fraction(2, 5), Fraction(9, 10)]
        assert step_types(triangle, q, parse_profile("BBW")) == parse_profile("BBB")

    def test_make_step_types_matches_literal_rule(self, rng):
        # off-grid types too, so floor(q_i * d_i) + 1 is checked between grid points
        for _ in range(25):
            g = random_connected_graph(rng.randint(2, 7), rng)
            q = [Fraction(rng.randint(0, 12), 12) for _ in range(g.n)]
            fn = make_step(g, types_to_thresholds(g, q))
            for a in range(1 << g.n):
                assert fn(a) == step_types(g, q, a)


class TestStepRestricted:
    def test_full_set_equals_step(self, four_cycle, rng):
        k = (1, 2, 1, 2)
        for a in range(16):
            assert step_restricted(four_cycle, k, a, range(4)) == step(four_cycle, k, a)

    def test_empty_set_is_identity(self, four_cycle):
        for a in range(16):
            assert step_restricted(four_cycle, (1, 1, 1, 1), a, ()) == a

    def test_odd_part_only(self, four_cycle):
        a = parse_profile("BWWW")
        assert step_restricted(four_cycle, (1, 1, 1, 1), a, (1, 3)) == parse_profile("BBWB")


class TestStepInverted:
    """The inverted rule is the weighted rule with weights -1 and
    thresholds 1 - k_i."""

    def test_complement_property(self, rng):
        for _ in range(30):
            g = random_connected_graph(rng.randint(2, 7), rng)
            k = random_thresholds(g, rng)
            full = (1 << g.n) - 1
            inv = [1 - x for x in k]
            for _ in range(20):
                a = rng.randrange(1 << g.n)
                assert step_weighted(negated(g), inv, a) ^ step(g, k, a) == full

    def test_triangle_example(self, triangle):
        a = parse_profile("BWW")
        assert step_weighted(negated(triangle), (0, 0, -1), a) == parse_profile("BWB")

    def test_all_white_goes_all_black(self, four_cycle):
        assert step_weighted(negated(four_cycle), (0, 0, 0, 0), 0) == 0b1111


class TestStepWeighted:
    def test_unit_weights_match_primary(self, rng):
        for _ in range(25):
            g = random_connected_graph(rng.randint(2, 8), rng)
            k = tuple(rng.randint(0, d + 1) for d in g.degrees)
            w = build_graph(g.n, [(i, j, 1) for i, j in g.edges])
            assert w.weights is not None and w.edges == g.edges
            for a in range(1 << g.n):
                assert step_weighted(w, k, a) == step(g, k, a) == step_weighted(g, k, a)

    def test_negative_edge_fixed_point(self):
        w = build_graph(2, [(0, 1, -1)])
        a = parse_profile("BW")
        assert step_weighted(w, (0, 0), a) == a

    def test_self_loop_feeds_back(self):
        w = build_graph(2, [(0, 1, 1)], [(0, 2)])
        assert step_weighted(w, (2, 1), parse_profile("BW")) & 1

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 2.5),
            ("n", 3.0),
            ("n", True),
            ("n", "3"),
            ("weighted_edges", [[0, 1, 1.5], [1, 2, 1]]),
            ("weighted_edges", [[0, 1, True], [1, 2, 1]]),
            ("weighted_edges", [[0, "1", 1], [1, 2, 1]]),
            ("weighted_edges", [[0, 1], [1, 2, 1]]),
            ("weighted_edges", {"0": [1, 1]}),
            ("self_loops", [[0, 1.0]]),
            ("self_loops", [[True, 1]]),
            ("self_loops", [[0, 1, 1]]),
            ("thresholds", [0.5, 1, 1]),
            ("thresholds", [True, 1, 1]),
            ("thresholds", ["1", 1, 1]),
            ("thresholds", 2),
        ],
    )
    def test_loader_rejects_non_integers(self, field, value):
        d = {"n": 3, "weighted_edges": [[0, 1, 2], [1, 2, -1]], "self_loops": [[1, 1]],
             "thresholds": [1, 0, 1]}
        assert instance_from_dict(dict(d))[1] == (1, 0, 1)
        d[field] = value
        with pytest.raises(BadParameterError, match="must be"):
            instance_from_dict(d)


class TestLimitCycle:
    def test_fixed_point_input(self, four_cycle):
        report = limit_cycle(make_step(four_cycle, (1, 1, 1, 1)), 0, 100)
        assert report.transient == 0 and report.cycle == (0,)

    def test_triangle_transient_two(self, triangle):
        report = limit_cycle(make_step(triangle, (1, 1, 1)), parse_profile("BWW"), 100)
        assert report.transient == 2
        assert report.cycle == (parse_profile("BBB"),)
        assert report.trajectory_length == 3

    def test_alternating_two_cycle(self, four_cycle):
        a = parse_profile("BWBW")
        report = limit_cycle(make_step(four_cycle, (1, 1, 1, 1)), a, 100)
        assert report.transient == 0
        assert set(report.cycle) == {a, parse_profile("WBWB")}

    def test_cycle_wraps(self, rng):
        # step applied to the last cycle element returns the first
        for _ in range(20):
            g = random_connected_graph(rng.randint(2, 6), rng)
            k = random_thresholds(g, rng)
            fn = make_step(g, k)
            report = limit_cycle(fn, rng.randrange(1 << g.n), default_guard(g))
            assert fn(report.cycle[-1]) == report.cycle[0]
            assert len(report.cycle) <= 2

    def test_guard_trips(self, four_cycle):
        with pytest.raises(GuardExceededError):
            limit_cycle(lambda a: (a + 1) % 1000, 0, guard=5)

    def test_bound_formula(self, four_cycle):
        assert convergence_time_bound(four_cycle) == 14 * 4 + 6 * 4

    def test_convergence_time_uses_default_guard(self, triangle):
        from threshold_lab import convergence_time

        assert convergence_time(triangle, (1, 1, 1), parse_profile("BWW")) == 2


class TestConflictLinks:
    def test_monochromatic(self, four_cycle):
        assert conflict_links(four_cycle, 0) == 0
        assert conflict_links(four_cycle, 0b1111) == 0

    def test_alternating_four_cycle(self, four_cycle):
        assert conflict_links(four_cycle, parse_profile("BWBW")) == 4

    def test_triangle(self, triangle):
        assert conflict_links(triangle, parse_profile("BWW")) == 2


class TestStrongAssignments:
    def test_or_or_or_makes_black_strong(self):
        g = cycle_graph(5)
        assert "B" in strong_assignments(g, (1, 1, 1, 1, 1), 0)

    def test_interior_tree_node_has_both(self):
        # node 1 with leaf children and 1 < k_1 < d_1
        g = star_graph(4)
        res = strong_assignments(g, (2, 1, 1, 1), 0)
        assert res == {"B", "W"}

    def test_every_ring_node_has_one(self, rng):
        for n in (4, 5, 6):
            g = cycle_graph(n)
            for _ in range(15):
                k = tuple(rng.randint(1, 2) for _ in range(n))
                for i in range(n):
                    assert strong_assignments(g, k, i)

    def test_no_local_state_limit(self):
        # K_24 has a radius-2 region of 23 nodes; the check reads only N(i)
        g = build_graph(24, [(i, j) for i in range(24) for j in range(i + 1, 24)])
        assert strong_assignments(g, (1,) * 24, 0) == {"B"}
        # every node of a 2,000-node tree, in a fresh interpreter that never
        # loads the 2^n engine
        probe = (
            "import random, sys\n"
            "from threshold_lab import build_graph, strong_assignments\n"
            "rng = random.Random(3)\n"
            "g = build_graph(2000, [(rng.randrange(v), v) for v in range(1, 2000)])\n"
            "k = [rng.randint(0, d + 1) for d in g.degrees]\n"
            "res = [strong_assignments(g, k, i) for i in range(g.n)]\n"
            "print(len(res), 'threshold_lab.enumeration' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             timeout=120, env=env)
        assert out.stdout.split() == ["2000", "False"], out.stderr

    def test_matches_brute_force_two_steps(self, rng):
        # f^2 over every profile, from the independent slow_step
        for _ in range(500):
            g = random_connected_graph(rng.randint(1, 8), rng)
            k = random_thresholds(g, rng)
            seen = [set() for _ in range(g.n)]  # (a_i, f^2(a)_i) pairs per node
            for a in product((False, True), repeat=g.n):
                b = slow_step(g.adjacency, k, slow_step(g.adjacency, k, a))
                for i in range(g.n):
                    seen[i].add((a[i], b[i]))
            for i in range(g.n):
                want = {action for action, bit in (("B", True), ("W", False))
                        if (bit, not bit) not in seen[i]}
                assert strong_assignments(g, k, i) == want, (g.edges, k, i)

    def test_matches_per_pattern_definition_on_wide_regions(self, rng):
        # the definition, pattern by pattern: node i's two-step value over
        # every assignment of its radius-2 region with a_i held fixed
        def reference(g, k, i):
            free = sorted({x for j in g.adjacency[i] for x in (j, *g.adjacency[j])} - {i})
            out = set()
            for action, bit in (("B", 1), ("W", 0)):
                for pattern in range(1 << len(free)):
                    a = bit << i
                    for pos, j in enumerate(free):
                        a |= (pattern >> pos & 1) << j
                    count = sum(
                        sum(a >> x & 1 for x in g.adjacency[j]) >= k[j] for j in g.adjacency[i]
                    )
                    if (count >= k[i]) != bit:
                        break
                else:
                    out.add(action)
            return out

        widths = set()
        while len(widths) < 5 or min(widths) > 10 or max(widths) < 14:
            g = random_connected_graph(rng.randint(11, 16), rng, extra_edge_prob=0.15)
            i = rng.randrange(g.n)
            free = {x for j in g.adjacency[i] for x in (j, *g.adjacency[j])} - {i}
            if not 10 <= len(free) <= 14:
                continue
            widths.add(len(free))
            for _ in range(2):
                k = tuple(rng.randint(0, d + 1) for d in g.degrees)
                assert strong_assignments(g, k, i) == reference(g, k, i)

    def test_strongness_is_real(self, rng):
        # once played, a strong action recurs after two parallel steps
        for _ in range(15):
            g = random_connected_graph(rng.randint(2, 5), rng)
            k = random_thresholds(g, rng)
            fn = make_step(g, k)
            for i in range(g.n):
                for action in strong_assignments(g, k, i):
                    want = 1 if action == "B" else 0
                    for a in range(1 << g.n):
                        if (a >> i) & 1 == want:
                            assert (fn(fn(a)) >> i) & 1 == want


class TestRingTwoStepTable:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_table_matches_two_steps(self, n):
        g = cycle_graph(n)
        for k in product((1, 2), repeat=n):
            for a in range(1 << n):
                b = step(g, k, step(g, k, a))
                for i in range(n):
                    assert ring_two_step(g, k, a, i) == (b >> i) & 1

    def test_requires_two_regular(self, triangle):
        with pytest.raises(BadParameterError):
            ring_two_step(star_graph(4), (1, 1, 1, 1), 0, 0)

    def test_requires_a_single_cycle(self):
        # two disjoint triangles are 2-regular, and node 0's cycle length
        # divides n, but the walk from node 0 misses nodes 3..5
        g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
                        require_connected=False)
        for i in (0, 4):
            with pytest.raises(BadParameterError, match="not a single cycle"):
                ring_two_step(g, (1,) * 6, 0, i)


@st.composite
def small_instance(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    import random as _random

    rng = _random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    g = random_connected_graph(n, rng)
    k = tuple(draw(st.integers(min_value=0, max_value=d + 1)) for d in g.degrees)
    a = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    return g, k, a


@given(small_instance())
@settings(max_examples=150, deadline=None)
def test_limit_cycles_never_exceed_two(inst):
    g, k, a = inst
    report = limit_cycle(make_step(g, k), a, default_guard(g))
    assert len(report.cycle) in (1, 2)
    assert report.transient <= convergence_time_bound(g)


@given(small_instance())
@settings(max_examples=100, deadline=None)
def test_inverted_cycles_never_exceed_two(inst):
    g, k, a = inst
    report = limit_cycle(inverted_step(g, k), a, default_guard(g))
    assert len(report.cycle) in (1, 2)


def test_weighted_cycles_never_exceed_two(rng):
    for _ in range(60):
        g, k = random_weighted_instance(rng.randint(2, 6), rng)
        for a in range(1 << g.n):
            report = limit_cycle(lambda b: step_weighted(g, k, b), a, default_guard(g))
            assert len(report.cycle) in (1, 2)


class TestStrictIntegers:
    """Library entry points reject bools, floats and strings instead of
    truncating them with int()."""

    @pytest.mark.parametrize("k", [(1.9, True), ("1", 1.5), (1, 1.0), (1, False)])
    def test_thresholds(self, k):
        g = build_graph(2, [(0, 1)])
        for call in (lambda: make_step(g, k), lambda: step(g, k, 0),
                     lambda: enumerate_limits(g, k), lambda: Rule.from_graph(g, k)):
            with pytest.raises(BadParameterError, match="must be an integer"):
                call()

    @pytest.mark.parametrize(
        "edges, loops, k",
        [
            ([(0, 1, 1.5)], (), (0, 0)),
            ([(0, 1, True)], (), (0, 0)),
            ([(0, 1.0, 1)], (), (0, 0)),
            ([(0, 1, 1)], [(0, 2.5)], (0, 0)),
            ([(0, 1, 1)], [(False, 2)], (0, 0)),
            ([(0, 1, 1)], (), (0.5, True)),
            ([(0, 1, 1)], (), ("0", 0)),
        ],
    )
    def test_weighted_builder(self, edges, loops, k):
        with pytest.raises(BadParameterError, match="must be an integer"):
            Rule.from_graph(build_graph(2, edges, loops), k)

    def test_weighted_node_count(self):
        for n in (2.0, True, "2"):
            with pytest.raises(BadParameterError, match="must be an integer"):
                build_graph(n, [(0, 1, 1)])

    def test_weighted_thresholds(self):
        w = build_graph(2, [(0, 1, -1)])
        for call in (lambda k: Rule.from_graph(w, k), lambda k: step_weighted(w, k, 0)):
            with pytest.raises(BadParameterError, match="must be an integer"):
                call((2.7, False))
            call((5, -3))  # weighted thresholds may be negative

    @pytest.mark.parametrize(
        "call",
        [
            lambda: build_graph(True, []),
            lambda: build_graph(2.0, [(0, 1)]),
            lambda: build_graph(2, [(0, 1.0)]),
            lambda: build_graph(2, [(0, 1, 1.5)]),
            lambda: build_graph(2, [(0, 1)], [(0, True)]),
            lambda: step(build_graph(2, [(0, 1)]), (1, 1), 1.9),
            lambda: limit_cycle(Rule.from_graph(build_graph(2, [(0, 1)]), (1, 1)), True, 10),
        ],
        ids=["n-bool", "n-float", "endpoint-float", "weight-float", "loop-weight-bool",
             "profile-float", "profile-bool"],
    )
    def test_graph_and_profile_numbers(self, call):
        with pytest.raises(BadParameterError, match="must be an integer"):
            call()

    def test_numpy_integers_accepted(self):
        import numpy as np

        g = build_graph(2, [(0, 1)])
        fn = make_step(g, np.array([1, 1]))
        assert fn(0b01) == 0b10
        w = build_graph(np.int64(2), [(np.int32(0), 1, np.int64(-3))], [(1, np.int8(2))])
        assert w.weighted_edges() == [(0, 1, -3)] and w.loops == ((1, 2),)
        assert all(type(x) is int for x in (w.n,) + w.edges[0] + w.weights + w.loops[0])
        rule = Rule.from_graph(w, np.array([0, -1]))
        assert rule.thresholds == (0, -1)
        with pytest.raises(BadParameterError):
            make_step(g, np.array([True, False]))

    @pytest.mark.parametrize("bad", [True, 2.5, 1.0, "1"])
    def test_budgets_node_counts_and_guards(self, bad):
        from threshold_lab import check_recovery, resilience_bruteforce, resilience_closed_form

        c5 = cycle_graph(5)
        q = (Fraction(1, 2),) * 5
        calls = [lambda: resilience_bruteforce(c5, bad), lambda: check_recovery(c5, q, bad),
                 lambda: resilience_closed_form("cycle", 5, bad),
                 lambda: resilience_closed_form("cycle", bad, 1),
                 lambda: limit_cycle(make_step(c5, (1,) * 5), 0, bad),
                 lambda: limit_cycle(Rule.from_graph(c5, (1,) * 5), 0, bad)]
        for call in calls:
            with pytest.raises(BadParameterError, match="must be an integer"):
                call()

    def test_budgets_node_counts_and_guards_take_numpy_integers(self):
        import numpy as np

        from threshold_lab import resilience_closed_form

        assert resilience_closed_form("cycle", np.int64(5), np.int32(1)) == 2
        report = limit_cycle(make_step(cycle_graph(4), (1,) * 4), 0b0101, np.int64(10))
        assert report.cycle == (0b0101, 0b1010)

    def test_node_ids(self):
        import numpy as np

        from threshold_lab import is_valid_node, remove_constant_node

        c5, k = cycle_graph(5), (1, 2, 1, 2, 1)
        for i in (-1, 5, 9):
            with pytest.raises(BadParameterError, match=re.escape(f"node {i} outside 0..4")):
                ring_two_step(c5, k, 3, i)
        calls = [lambda: is_valid_node(c5, k, True), lambda: strong_assignments(c5, k, 1.0),
                 lambda: step_restricted(c5, k, 3, [1.0]), lambda: step_restricted(c5, k, 3, [True]),
                 lambda: remove_constant_node(c5, k, True, "B")]
        for call in calls:
            with pytest.raises(BadParameterError, match="node must be an integer"):
                call()
        with pytest.raises(BadParameterError,
                           match=re.escape("threshold vector has length 1, expected 5")):
            is_valid_node(c5, (1,), 3)
        assert is_valid_node(c5, k, np.int64(1)) and ring_two_step(c5, k, 3, np.int32(4)) in (0, 1)

    @pytest.mark.parametrize("pin", [1.0, True, 0.0, False, "1", "b", None])
    def test_pinned_action(self, pin):
        from threshold_lab import remove_constant_node

        g = build_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(BadParameterError, match="is not 'B', 'W', 1 or 0"):
            remove_constant_node(g, (1, 2, 1), 0, pin)
        for ok in ("B", 1):
            assert remove_constant_node(g, (1, 2, 1), 0, ok)[0].thresholds == (1, 1)
        for ok in ("W", 0):
            assert remove_constant_node(g, (1, 2, 1), 0, ok)[0].thresholds == (2, 1)


# ---------------------------------------------------------------------------
# The Rule engine against the dict-loop reference


def _report_or_guard(step_map, a, guard):
    try:
        return limit_cycle(step_map, a, guard)
    except GuardExceededError:
        return "guard"


_SCALES = (1, 1 << 20, 1 << 58, 10**24)


@st.composite
def rule_case(draw):
    """(reference step map, Rule, n) for one of the four rules; every Rule
    comes from build_graph and Rule.from_graph."""
    import random as _random

    n = draw(st.integers(min_value=1, max_value=10))
    rng = _random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    kind = draw(st.sampled_from(["threshold", "types", "inverted", "weighted"]))
    if kind == "weighted":
        scale = draw(st.sampled_from(_SCALES))
        g, k = random_weighted_instance(n, rng)
        g = build_graph(
            n,
            [(i, j, wt * scale) for i, j, wt in g.weighted_edges()],
            [(i, wt * scale) for i, wt in g.loops],
            weighted=True,
        )
        k = [x * scale + rng.randint(-1, 1) for x in k]
        return (lambda a: step_weighted(g, k, a)), Rule.from_graph(g, k), n
    g = random_connected_graph(n, rng)
    if kind == "types":
        q = random_types(g, rng)
        return (lambda a: step_types(g, q, a)), Rule.from_graph(g, types_to_thresholds(g, q)), n
    k = random_thresholds(g, rng)
    if kind == "threshold":
        return make_step(g, k), Rule.from_graph(g, k), n
    return inverted_step(g, k), Rule.from_graph(negated(g), [1 - x for x in k]), n


@given(rule_case(), st.data())
@settings(max_examples=300, deadline=None)
def test_rule_engine_matches_reference(case, data):
    ref, rule, n = case
    a = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    report = limit_cycle(ref, a, 1 << (n + 1))
    assert limit_cycle(rule, a, 1 << (n + 1)) == report
    # the guard boundary: success iff trajectory_length <= guard + 1
    for guard in range(max(1, report.trajectory_length - 3), report.trajectory_length + 2):
        assert _report_or_guard(rule, a, guard) == _report_or_guard(ref, a, guard)


class TestRuleEngine:
    def test_int64_path_near_the_bound(self):
        # sum|w_ij| = 2^61 - 32 over both directions, 4 sum|k| = 2^60 - 4
        big = (1 << 59) - 8
        w = build_graph(3, [(0, 1, big), (1, 2, -big)], [(2, -3)])
        k = ((1 << 57) - 2, -(1 << 57) + 2, -3)
        rule = Rule.from_graph(w, k)
        for a in range(8):
            ref = limit_cycle(lambda b: step_weighted(w, k, b), a, 100)
            assert limit_cycle(rule, a, 100) == ref

    def test_planted_directed_three_cycle_is_caught(self):
        # node i copies node i - 1: x(t+1) is x(t) rotated, a 3-cycle
        rule = Rule(n=3, readers=(((1, 1),), ((2, 1),), ((0, 1),)), thresholds=(1, 1, 1))
        rotate = lambda a: ((a << 1) | (a >> 2)) & 0b111
        assert len(limit_cycle(rotate, 0b001, 10).cycle) == 3
        with pytest.raises(InvariantViolationError, match="energy certificate failed at step 2"):
            limit_cycle(rule, 0b001, 10)

    def test_convergence_time_runs_the_rule(self, triangle, monkeypatch):
        import threshold_lab.dynamics as dyn

        seen = []
        real = dyn._rule_limit_cycle
        monkeypatch.setattr(dyn, "_rule_limit_cycle", lambda *a: seen.append(a) or real(*a))
        assert dyn.convergence_time(triangle, (1, 1, 1), parse_profile("BWW")) == 2
        assert len(seen) == 1

    def test_long_cascade_on_a_path(self):
        # contagion from one end of a path under k = 1: x(t) is the nodes
        # of t's parity within distance t of node 0, so the trajectory
        # enters the 2-cycle of the two parity classes at t = n - 2
        def closed_form(n):
            parity = lambda r: parse_profile("".join("BW"[(i + r) % 2] for i in range(n)))
            return LimitReport(transient=n - 2, cycle=(parity(n), parity(n + 1)),
                               trajectory_length=n)

        for n in range(3, 14):
            g = build_graph(n, [(i, i + 1) for i in range(n - 1)])
            assert limit_cycle(make_step(g, [1] * n), 1, default_guard(g)) == closed_form(n)
        n = 20_000
        g = build_graph(n, [(i, i + 1) for i in range(n - 1)])
        report = limit_cycle(Rule.from_graph(g, [1] * n), 1, default_guard(g))
        assert report == closed_form(n)
        assert not report.cycle[0] >> (n - 1) & 1

    def test_profile_out_of_range(self, triangle):
        with pytest.raises(BadParameterError, match=re.escape("profile 8 does not fit in 3 bits")):
            limit_cycle(Rule.from_graph(triangle, (1, 1, 1)), 8, 10)
