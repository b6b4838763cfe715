import pytest

from threshold_lab import (
    BadParameterError,
    Formula,
    GuardExceededError,
    InconsistentCountError,
    MONOTONE_2CNF,
    MONOTONE_2DNF,
    THREE_CNF,
    VariableMissingError,
    count_fixed_points_backtracking,
    count_sat,
    enumerate_limits,
    fix_reduction,
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
        with pytest.raises(VariableMissingError):
            Formula(MONOTONE_2DNF, 3, ((1, 2),))

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


class TestCountSat:
    def test_conjunction(self):
        assert count_sat(Formula(MONOTONE_2DNF, 2, ((1, 2),))) == 1

    def test_disjunction(self):
        assert count_sat(Formula(MONOTONE_2CNF, 2, ((1, 2),))) == 3

    def test_three_cnf_clause(self):
        assert count_sat(Formula(THREE_CNF, 3, ((1, 2, -3),))) == 7

    def test_hard_cap_ignores_guard(self, monkeypatch):
        import threshold_lab.reductions as red

        def unreachable(*args, **kwargs):
            raise AssertionError("the scan started past the hard cap")

        monkeypatch.setattr(red.np, "arange", unreachable)
        f = Formula(THREE_CNF, 33, ((1,),))
        with pytest.raises(GuardExceededError, match="exceeds 32"):
            count_sat(f, guard_n=40)

    def test_matches_independent_counter(self, rng):
        for _ in range(40):
            f = random_3cnf(rng)
            assert count_sat(f) == brute_sat_count(f)
        for _ in range(40):
            f = random_2dnf(rng)
            assert count_sat(f) == brute_sat_count(f)

    def test_chunked_scan_matches_independent_counter(self, rng, monkeypatch):
        # 16-assignment chunks: every formula with n >= 5 spans several
        import threshold_lab.enumeration as en

        monkeypatch.setattr(en, "_CHUNK", 16)
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

    def test_fixed_points_uniform_on_variable_blocks(self):
        # every fixed point colors each s-triple and its y/z occurrences alike
        f = Formula(MONOTONE_2DNF, 2, ((1, 2),))
        gadget = fix_reduction(f)
        census = enumerate_limits(gadget.graph, gadget.thresholds, witness_cap=1 << 18)
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
        for a in census.fixed_witnesses:
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
        with pytest.raises(InconsistentCountError):
            recover_sat_count(17, 2)

    def test_negative_solution_rejected(self):
        with pytest.raises(InconsistentCountError):
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
        assert gadget.claimed_count == 3
        assert gadget.measured_count == 9
        assert gadget.matches_claim is False

    def test_target_is_reachable_fixed_point(self, rng):
        for _ in range(20):
            f = random_monotone_2cnf(rng)
            gadget = reachable_pred_reduction(f, measure=False)
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
            assert gadget.measured_count == brute_sat_count(f) * coverage


def random_monotone_2cnf(rng):
    n = rng.randint(1, 3)
    m = rng.randint(1, 3)
    clauses = tuple(
        tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, min(2, n)))))
        for _ in range(m)
    )
    return Formula(MONOTONE_2CNF, n, clauses)
