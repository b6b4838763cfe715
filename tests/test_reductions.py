import itertools
import re

import pytest

from threshold_lab import (
    BadParameterError,
    Formula,
    GuardExceededError,
    InvariantViolationError,
    MONOTONE_2CNF,
    MONOTONE_2DNF,
    THREE_CNF,
    count_fixed_points_backtracking,
    count_predecessors,
    count_sat,
    fix_reduction,
    fixed_points,
    formula_from_dict,
    is_bipartite,
    is_reachable,
    pred_reduction,
    reachable_pred_reduction,
    recover_sat_count,
)


def brute_sat_count(f: Formula) -> int:
    """Test-local model counter, independent of reductions.count_sat."""
    total = 0
    for x in range(1 << f.num_vars):
        vals = []
        for clause in f.clauses:
            lits = [((x >> (abs(l) - 1)) & 1) == (l > 0) for l in clause]
            vals.append(all(lits) if f.variant == MONOTONE_2DNF else any(lits))
        sat = any(vals) if f.variant == MONOTONE_2DNF else all(vals)
        total += sat
    return total


def random_2dnf(rng, max_clauses=2, max_vars=4):
    m = rng.randint(1, max_clauses)
    n = rng.randint(1, min(max_vars, 2 * m))
    while True:
        clauses = tuple(
            tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, min(2, n)))))
            for _ in range(m)
        )
        if {v for c in clauses for v in c} == set(range(1, n + 1)):
            return Formula(MONOTONE_2DNF, n, clauses)


def random_3cnf(rng, max_vars=4, max_clauses=3):
    n = rng.randint(1, max_vars)
    m = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(m):
        size = rng.randint(1, min(3, n))
        variables = rng.sample(range(1, n + 1), size)
        clauses.append(tuple(sorted(v * rng.choice((1, -1)) for v in variables)))
    return Formula(THREE_CNF, n, tuple(clauses))


class TestFormula:
    def test_arity_enforced(self):
        with pytest.raises(BadParameterError):
            Formula(MONOTONE_2DNF, 3, ((1, 2, 3),))

    def test_monotone_rejects_negation(self):
        with pytest.raises(BadParameterError):
            Formula(MONOTONE_2CNF, 2, ((1, -2),))

    def test_2dnf_requires_all_variables(self):
        with pytest.raises(BadParameterError,
                           match=re.escape("variables [3] never appear in the 2-DNF formula")):
            Formula(MONOTONE_2DNF, 3, ((1, 2),))

    def test_2dnf_names_ten_unused_variables(self):
        # a declared count of 10^9 built the set of every variable and a
        # message naming each unused one
        with pytest.raises(BadParameterError) as exc:
            Formula(MONOTONE_2DNF, 10**9, ((1, 3),))
        assert str(exc.value) == ("variables [2, 4, 5, 6, 7, 8, 9, 10, 11, 12] and 999999988 "
                                  "more never appear in the 2-DNF formula")
        with pytest.raises(BadParameterError, match=re.escape(
                "variables [2, 4, 5, 6, 7, 8, 9, 10, 11, 12] never appear in the 2-DNF")):
            Formula(MONOTONE_2DNF, 12, ((1, 3),))

    def test_3cnf_allows_negation(self):
        f = Formula(THREE_CNF, 2, ((1, -2),))
        assert f.clauses == ((1, -2),)

    def test_json_roundtrip(self):
        f = Formula(THREE_CNF, 3, ((1, -2, 3), (-1,)))
        assert formula_from_dict(f.to_dict()) == f

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 2.9),
            ("n", 3.0),
            ("n", True),
            ("n", "3"),
            ("clauses", [[1.7, True]]),
            ("clauses", [[1, 2], [1.0]]),
            ("clauses", [[1, True]]),
            ("clauses", [[1, "-2"]]),
            ("clauses", [[1, 2], 3]),
            ("clauses", "1 2"),
        ],
    )
    def test_non_integer_fields_rejected(self, field, value):
        d = {"variant": "3cnf", "n": 3, "clauses": [[1, -2, 3]]}
        d[field] = value
        with pytest.raises(BadParameterError, match="must be"):
            formula_from_dict(d)


    @pytest.mark.parametrize(
        "num_vars, clauses, message",
        [
            (2, ((True, 2),), "literal must be an integer, got True"),
            (2, ((1, 2.0),), "literal must be an integer, got 2.0"),
            (2.0, ((1, 2),), "variable count must be an integer, got 2.0"),
            (True, ((1,),), "variable count must be an integer, got True"),
        ],
        ids=["bool-literal", "float-literal", "float-count", "bool-count"],
    )
    def test_construction_rejects_non_integers(self, num_vars, clauses, message):
        with pytest.raises(BadParameterError, match=f"^{message}$"):
            Formula(MONOTONE_2DNF, num_vars, clauses)

    def test_construction_accepts_numpy_integers(self):
        import numpy as np

        f = Formula(THREE_CNF, np.int64(2), [[np.int32(1), -2]])
        assert f == Formula(THREE_CNF, 2, ((1, -2),))
        assert type(f.num_vars) is int and type(f.clauses[0][0]) is int
        assert count_sat(f) == 3


class TestCountSat:
    def test_conjunction(self):
        assert count_sat(Formula(MONOTONE_2DNF, 2, ((1, 2),))) == 1

    def test_disjunction(self):
        assert count_sat(Formula(MONOTONE_2CNF, 2, ((1, 2),))) == 3

    def test_three_cnf_clause(self):
        assert count_sat(Formula(THREE_CNF, 3, ((1, 2, -3),))) == 7

    def test_hard_cap_ignores_guard(self):
        import tracemalloc

        f = Formula(THREE_CNF, 33, ((1,),))
        tracemalloc.start()
        try:
            with pytest.raises(GuardExceededError, match="exceeds 32"):
                count_sat(f, guard_n=40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_matches_independent_counter(self, rng):
        for _ in range(40):
            f = random_3cnf(rng)
            assert count_sat(f) == brute_sat_count(f)
        for _ in range(40):
            f = random_2dnf(rng)
            assert count_sat(f) == brute_sat_count(f)

    def test_chunked_scan_matches_independent_counter(self, rng, monkeypatch):
        # 4-assignment blocks: every formula with n >= 3 spans several
        import threshold_lab.enumeration as en

        monkeypatch.setattr(en, "_BLOCK_BITS", 2)
        for _ in range(30):
            f = random_3cnf(rng, max_vars=8, max_clauses=6)
            assert count_sat(f) == brute_sat_count(f), f
        for _ in range(30):
            f = random_2dnf(rng, max_clauses=5, max_vars=8)
            assert count_sat(f) == brute_sat_count(f), f
        for _ in range(30):
            n = rng.randint(1, 8)
            clauses = tuple(
                tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, min(2, n)))))
                for _ in range(rng.randint(1, 5))
            )
            f = Formula(MONOTONE_2CNF, n, clauses)
            assert count_sat(f) == brute_sat_count(f), f


class TestFixReduction:
    def test_anchor_formula(self):
        f = Formula(MONOTONE_2DNF, 2, ((1, 2),))
        gadget = fix_reduction(f)
        assert gadget.graph.n == 18  # 3 * (2 + 3*1 + 1)
        assert gadget.target is None
        assert count_fixed_points_backtracking(gadget.graph, gadget.thresholds) == 18

    def test_structure(self, rng):
        # connectivity is enforced by build_graph inside the builder, so
        # constructing at the op's full size range is itself a check
        for _ in range(100):
            f = random_2dnf(rng, max_clauses=4, max_vars=5)
            gadget = fix_reduction(f)
            n, m = f.num_vars, len(f.clauses)
            assert gadget.graph.n == 3 * (n + 3 * m + 1)
            assert is_bipartite(gadget.graph)
            d_nodes = [i for i, lab in enumerate(gadget.labels) if lab.startswith("d")]
            assert all(gadget.thresholds[i] == 1 for i in d_nodes)
            assert all(
                gadget.thresholds[i] == 2
                for i in range(gadget.graph.n)
                if i not in d_nodes
            )

    def test_single_literal_clause_squared(self):
        f = Formula(MONOTONE_2DNF, 1, ((1,),))
        gadget = fix_reduction(f)
        # y and z of the clause both attach to the s-triple of x1
        count = count_fixed_points_backtracking(gadget.graph, gadget.thresholds)
        sat, nsat = recover_sat_count(count, 1)
        assert (sat, nsat) == (1, 1)

    def test_counts_invert_to_sat_counts(self, rng):
        for _ in range(25):
            f = random_2dnf(rng)
            gadget = fix_reduction(f)
            count = count_fixed_points_backtracking(gadget.graph, gadget.thresholds)
            sat, nsat = recover_sat_count(count, f.num_vars)
            assert sat == brute_sat_count(f)
            assert sat + nsat == 1 << f.num_vars

    @pytest.mark.parametrize("nv, m", [(3, 2), (4, 4)])
    def test_covering_family_identity(self, nv, m):
        # every set of m distinct positive 2-clauses covering all nv
        # variables: the family the benchmark's fix jobs run
        pairs = list(itertools.combinations(range(1, nv + 1), 2))
        family = [c for c in itertools.combinations(pairs, m)
                  if len({v for clause in c for v in clause}) == nv]
        assert len(family) == {(3, 2): 3, (4, 4): 15}[nv, m]
        for clauses in family:
            f = Formula(MONOTONE_2DNF, nv, clauses)
            gadget = fix_reduction(f)
            sat = brute_sat_count(f)
            count = count_fixed_points_backtracking(gadget.graph, gadget.thresholds)
            assert count == sat + 8 * ((1 << nv) - sat - 1) + 1, clauses

    def test_fixed_points_uniform_on_variable_blocks(self):
        # every fixed point colors each s-triple and its y/z occurrences alike
        f = Formula(MONOTONE_2DNF, 2, ((1, 2),))
        gadget = fix_reduction(f)
        fixed = fixed_points(gadget.graph, gadget.thresholds)
        by_var = {}
        for i, lab in enumerate(gadget.labels):
            if lab.startswith("s"):
                by_var.setdefault(lab.split("_")[1], []).append(i)
        occ = {"x1": [], "x2": []}
        for i, lab in enumerate(gadget.labels):
            if lab.startswith(("y", "z")):
                c = int(lab.split("_c")[1]) - 1
                lits = f.clauses[c] if len(f.clauses[c]) == 2 else f.clauses[c] * 2
                var = lits[0] if lab.startswith("y") else lits[1]
                occ[f"x{var}"].append(i)
        for a in fixed:
            for var, nodes in by_var.items():
                bits = {(a >> i) & 1 for i in nodes + occ[var]}
                assert len(bits) == 1

    def test_wrong_variant_rejected(self):
        with pytest.raises(BadParameterError):
            fix_reduction(Formula(MONOTONE_2CNF, 2, ((1, 2),)))


class TestRecoverSatCount:
    def test_anchor(self):
        assert recover_sat_count(18, 2) == (1, 3)

    def test_inconsistent(self):
        with pytest.raises(InvariantViolationError,
                           match=re.escape("F = 17 has no integral solution for n = 2")):
            recover_sat_count(17, 2)

    def test_negative_solution_rejected(self):
        with pytest.raises(InvariantViolationError,
                           match=re.escape("F = 1 has no integral solution for n = 2")):
            recover_sat_count(1, 2)  # would need #nsat = 4/7


class TestPredReduction:
    def test_satisfiable_single_variable(self):
        f = Formula(THREE_CNF, 1, ((1,),))
        gadget = pred_reduction(f)
        assert gadget.graph.n == 6
        assert is_reachable(gadget.graph, gadget.thresholds, gadget.target)

    def test_contradiction_unreachable(self):
        f = Formula(THREE_CNF, 1, ((1,), (-1,)))
        gadget = pred_reduction(f)
        assert not is_reachable(gadget.graph, gadget.thresholds, gadget.target)

    def test_target_profile_shape(self):
        f = Formula(THREE_CNF, 2, ((1, -2),))
        gadget = pred_reduction(f)
        n = f.num_vars
        for node in range(gadget.graph.n):
            expect_w = 3 * n <= node < 4 * n
            assert ((gadget.target >> node) & 1) == (0 if expect_w else 1)
            assert gadget.thresholds[node] == (2 if expect_w else 1)

    def test_large_gadget_skips_the_neighbor_masks(self):
        # 40,002 nodes around a hub of degree 20,000: the masks, n bits
        # per node, are left until a step or a scan asks for them
        import tracemalloc

        f = Formula(THREE_CNF, 10000, ((1, 2, 3),))
        tracemalloc.start()
        try:
            gadget = pred_reduction(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gadget.graph.n == 40002
        assert peak < 64 << 20

    def test_equivalence_random(self, rng):
        for _ in range(60):
            f = random_3cnf(rng, max_vars=3, max_clauses=3)
            gadget = pred_reduction(f)
            assert gadget.graph.n == 4 * f.num_vars + len(f.clauses) + 1
            reach = is_reachable(gadget.graph, gadget.thresholds, gadget.target)
            assert reach == (brute_sat_count(f) > 0), f.clauses


class TestReachablePredReduction:
    def test_documented_discrepancy(self):
        f = Formula(MONOTONE_2CNF, 2, ((1, 2),))
        gadget = reachable_pred_reduction(f)
        assert gadget.graph.n == 4
        assert count_sat(f) == 3
        assert count_predecessors(gadget.graph, gadget.thresholds, gadget.target) == 9

    def test_target_is_reachable_fixed_point(self, rng):
        for _ in range(20):
            f = random_monotone_2cnf(rng)
            gadget = reachable_pred_reduction(f)
            # all-B is a fixed point: every node has at least one B neighbor
            from threshold_lab import step

            assert step(gadget.graph, gadget.thresholds, gadget.target) == gadget.target

    def test_measured_count_factorizes(self, rng):
        # measured = #sat(f) * #sat(coverage CNF over the u/d coordinates)
        for _ in range(20):
            f = random_monotone_2cnf(rng)
            gadget = reachable_pred_reduction(f)
            n, m = f.num_vars, len(f.clauses)
            coverage = 0
            for x in range(1 << (m + 1)):
                ok = True
                for p in range(n):
                    mask = 1 << m  # d is the last coordinate
                    for c, clause in enumerate(f.clauses):
                        if p + 1 in clause:
                            mask |= 1 << c
                    if not x & mask:
                        ok = False
                        break
                coverage += ok
            measured = count_predecessors(gadget.graph, gadget.thresholds, gadget.target)
            assert measured == brute_sat_count(f) * coverage

    def test_node_cap_before_build(self):
        # 200,000 declared variables, one clause: the gadget's 200,002
        # nodes are refused before any of them is built
        import tracemalloc

        f = Formula(MONOTONE_2CNF, 200_000, ((1,),))
        tracemalloc.start()
        try:
            with pytest.raises(GuardExceededError) as exc:
                reachable_pred_reduction(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == "reachable-pred gadget needs 200002 nodes, guard is 100000"
        assert peak < 1 << 20


def random_monotone_2cnf(rng):
    n = rng.randint(1, 3)
    m = rng.randint(1, 3)
    clauses = tuple(
        tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, min(2, n)))))
        for _ in range(m)
    )
    return Formula(MONOTONE_2CNF, n, clauses)
