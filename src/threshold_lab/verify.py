"""Machine-checked invariant suites behind `threshold-lab verify`.

Each suite re-verifies one family of structural claims on exhaustive
small instances plus seeded random ones, at desk scale in well under a
minute; the full-strength versions live in the acceptance test suite.

A suite is a function named ``_check_*`` or ``_probe_*`` that takes a
seeded ``random.Random``; ``run_all`` finds the suites by name and runs
them in definition order. A check raises InvariantViolationError, from
``_require`` or from the library call it makes, or returns None. A probe
asserts nothing and returns the finding that `verify` prints. No 2^n
scan here passes the default guard.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from itertools import product

from . import dynamics, enumeration, expansions, instances, reductions, resilience
from .errors import InvariantViolationError, ThresholdLabError
from .graph_core import (
    build_graph,
    convergence_time_bound,
    default_guard,
    is_bipartite,
    make_step,
    two_partition,
    types_to_thresholds,
)

Result = tuple[str, bool, str]


def run_all(seed: int = 0) -> list[Result]:
    """Run every suite, each with a fresh rng from seed."""
    results = []
    for name, check in list(globals().items()):
        if not name.startswith(("_check_", "_probe_")):
            continue
        name = name.strip("_").removeprefix("check_").replace("_", "-")
        try:
            detail = check(random.Random(seed))
            results.append((name, True, detail or ""))
        except ThresholdLabError as exc:
            results.append((name, False, str(exc)))
    return results


def _require(ok, message: str = "", *args) -> None:
    """Raise InvariantViolationError with ``message % args`` unless ok.
    Unlike ``assert`` it also runs under ``python -O``, and the message
    is formatted only on failure."""
    if not ok:
        raise InvariantViolationError(message % args if args else message)


def _random_instances(rng, count, max_n):
    for _ in range(count):
        g = instances.random_connected_graph(rng.randint(2, max_n), rng)
        yield g, instances.random_thresholds(g, rng)


def _check_type_threshold_equivalence(rng) -> None:
    for _ in range(40):
        g = instances.random_connected_graph(rng.randint(2, 5), rng)
        q = instances.random_types(g, rng)
        k = types_to_thresholds(g, q)
        _require(all(ki >= 1 for ki in k), "types produced a zero threshold")
        for a in range(1 << g.n):
            _require(dynamics.step_types(g, q, a) == dynamics.step(g, k, a),
                     "type/threshold rules disagree on %s q=%s a=%s", g.edges, q, a)


def _check_two_step_table(rng) -> None:
    for n in (4, 5, 6):
        g = instances.cycle_graph(n)
        for k in product((1, 2), repeat=n):
            for a in range(1 << n):
                b = dynamics.step(g, k, dynamics.step(g, k, a))
                for i in range(n):
                    _require(dynamics.ring_two_step(g, k, a, i) == (b >> i) & 1,
                             "table row mismatch at n=%s k=%s a=%s i=%s", n, k, a, i)


def _check_cycle_length_bound(rng) -> None:
    """scan_limits raises on a limit cycle longer than 2."""
    for n in (1, 2, 3, 4):
        for g in instances.connected_graphs(n):
            for k in instances.all_threshold_vectors(g):
                enumeration.scan_limits(g, k)
    for g, k in _random_instances(rng, 25, 7):
        enumeration.scan_limits(g, k)


def _check_inverted_and_weighted_cycles(rng) -> None:
    """The Rule engine, with its energy certificate, returns the dict
    loop's report from every start profile; every cycle has length <= 2."""
    for g, k in _random_instances(rng, 20, 6):
        # the inverted rule as weights -1 and thresholds 1 - k
        negated = build_graph(g.n, [(i, j, -1) for i, j in g.edges])
        rule = dynamics.Rule.from_graph(negated, [1 - x for x in k])
        _compare_engines(_inverted_step(g, k), rule, g, "inverted")
    for _ in range(20):
        g, k = instances.random_weighted_instance(rng.randint(2, 6), rng)
        rule = dynamics.Rule.from_graph(g, k)
        _compare_engines(partial(dynamics.step_weighted, g, k), rule, g, "weighted")


def _inverted_step(g, k):
    """The inverted rule, B iff at most k_i - 1 neighbors play B, as the
    complement of the threshold step."""
    base = make_step(g, k)
    full = (1 << g.n) - 1
    return lambda a: base(a) ^ full


def _compare_engines(step, rule, g, what) -> None:
    guard = default_guard(g)
    for a in range(1 << g.n):
        report = dynamics.limit_cycle(step, a, guard)
        _require(len(report.cycle) <= 2, "%s cycle of length %s", what, len(report.cycle))
        _require(dynamics.limit_cycle(rule, a, guard) == report,
                 "%s Rule engine disagrees with the reference from profile %s", what, a)


def _bipartite_sample(rng, count, max_n):
    out = []
    while len(out) < count:
        g = instances.random_connected_graph(rng.randint(2, max_n), rng, extra_edge_prob=0.15)
        if is_bipartite(g):
            out.append((g, instances.random_thresholds(g, rng)))
    return out


def _check_decoupling_identities(rng) -> None:
    for g, k in _bipartite_sample(rng, 25, 7):
        part = two_partition(g)
        odd_mask = sum(1 << i for i in part.p_odd)
        even_mask = sum(1 << i for i in part.p_even)
        for a in range(1 << g.n):
            s1 = dynamics.step(g, k, a)
            s2 = dynamics.step(g, k, s1)
            oe = dynamics.step_restricted(g, k, dynamics.step_restricted(g, k, a, part.p_odd), part.p_even)
            eo = dynamics.step_restricted(g, k, dynamics.step_restricted(g, k, a, part.p_even), part.p_odd)
            _require(oe & odd_mask == s1 & odd_mask and oe & even_mask == s2 & even_mask
                     and eo & odd_mask == s2 & odd_mask and eo & even_mask == s1 & even_mask,
                     "decoupling fails on %s k=%s a=%s", g.edges, k, a)


def _symmetric_bipartite_sample(rng, count):
    out = []
    while len(out) < count:
        g, k = _bipartite_sample(rng, 1, 4)[0]
        res = expansions.symmetric_expansion(g, k)
        if res.graph.n <= 16:
            out.append((res.graph, res.thresholds))
    return out


def _check_conflict_potential(rng) -> None:
    for g, k in _symmetric_bipartite_sample(rng, 6):
        _require(expansions.is_symmetric_model(g, k), "symmetric expansion is not symmetric")
        part = two_partition(g)
        for _ in range(200):
            b = rng.randrange(1 << g.n)
            for p in (part.p_odd, part.p_even):
                after = dynamics.step_restricted(g, k, b, p)
                changed = after != b
                decreased = dynamics.conflict_links(g, after) < dynamics.conflict_links(g, b)
                _require(changed == decreased, "one-side update without a conflict-link drop")


def _check_fixed_point_coincidence(rng) -> None:
    for g, k in _bipartite_sample(rng, 15, 7):
        part = two_partition(g)
        for a in range(1 << g.n):
            fixed_parallel = dynamics.step(g, k, a) == a
            comp = dynamics.step_restricted(
                g, k, dynamics.step_restricted(g, k, a, part.p_odd), part.p_even
            )
            _require(fixed_parallel == (comp == a),
                     "fixed points differ on %s k=%s a=%s", g.edges, k, a)


def _check_expansion_commutation(rng) -> None:
    for g, k in _random_instances(rng, 12, 5):
        profiles = range(1 << g.n)
        src = make_step(g, k)
        for res, source in (
            (expansions.bipartite_expansion(g, k), src),
            (expansions.symmetric_expansion(g, k), src),
            (expansions.inverted_to_primary(g, k), _inverted_step(g, k)),
        ):
            ok, bad = expansions.commutation_check(source, res.target_step(), res.lift, profiles)
            _require(ok, "commutation failed at profile %s", bad)
        if not expansions.is_symmetric_model(g, k):
            res = expansions.one_step_symmetric_expansion(g, k)
            ok, bad = expansions.commutation_check(src, res.target_step(), res.lift, profiles)
            _require(ok, "one-step commutation failed at profile %s", bad)
    for _ in range(8):
        for make, max_n, transform, what in (
            (instances.random_signed_instance, 5, expansions.signed_to_primary, "signed"),
            (instances.random_small_blowup_instance, 4, expansions.integer_weights_to_unit, "blowup"),
            (instances.random_weighted_instance, 5, expansions.remove_self_loops, "self-loop doubling"),
        ):
            g, k = make(rng.randint(2, max_n), rng)
            res = transform(g, k)
            ok, bad = expansions.commutation_check(
                partial(dynamics.step_weighted, g, k), res.target_step(), res.lift, range(1 << g.n)
            )
            _require(ok, "%s commutation failed at profile %s", what, bad)


def _check_combined_expansion_isomorphism(rng) -> None:
    for _ in range(6):
        g = instances.random_connected_graph(rng.randint(3, 5), rng, extra_edge_prob=0.5)
        k = instances.random_thresholds(g, rng)
        if is_bipartite(g) or expansions.is_symmetric_model(g, k):
            continue
        bip = expansions.bipartite_expansion(g, k)
        sym = expansions.symmetric_expansion(g, k)
        a = expansions.symmetric_expansion(bip.graph, bip.thresholds)
        b = expansions.bipartite_expansion(sym.graph, sym.thresholds)
        _require(expansions.instances_isomorphic(a.graph, a.thresholds, b.graph, b.thresholds),
                 "bipartite-then-symmetric differs from symmetric-then-bipartite")


def _check_census_backtracking_agreement(rng) -> None:
    for g, k in _random_instances(rng, 30, 9):
        scan = enumeration.scan_limits(g, k)
        census = enumeration.enumerate_limits(g, k)
        _require(census == scan, "the census %s disagrees with the scan %s on %s k=%s",
                 census, scan, g.edges, k)
        _require(enumeration.count_fixed_points_backtracking(g, k) == scan.fixed_points,
                 "backtracking disagrees with the scan on %s k=%s", g.edges, k)


def _check_bipartite_cycle_identity(rng) -> None:
    """bipartite_cycle_identity raises unless the T = F(F-1)/2 2-cycles are
    the splices of fixed points."""
    for g, k in _bipartite_sample(rng, 20, 8):
        enumeration.bipartite_cycle_identity(g, k)


def _check_extremal_instances(rng) -> None:
    g, k = enumeration.build_extremal_cycle_instance(5, "min")
    census = enumeration.enumerate_limits(g, k)
    _require(census.fixed_points == 2 and census.two_cycles == 0, "min instance census %s", census)
    g, k = enumeration.build_extremal_cycle_instance(6, "max")
    census = enumeration.enumerate_limits(g, k)
    _require(census.fixed_points >= 4 and census.two_cycles >= 3, "max instance census %s", census)


def _check_fix_gadget(rng) -> None:
    f = reductions.Formula(reductions.MONOTONE_2DNF, 2, ((1, 2),))
    gadget = reductions.fix_reduction(f)
    count = enumeration.count_fixed_points_backtracking(gadget.graph, gadget.thresholds)
    _require(count == 18, "anchor gadget has %s fixed points, expected 18", count)
    _require(reductions.recover_sat_count(count, 2) == (1, 3), "anchor counts do not invert")
    for _ in range(10):
        f = _random_2dnf(rng)
        gadget = reductions.fix_reduction(f)
        _require(is_bipartite(gadget.graph), "fix gadget of %s is not bipartite", f.clauses)
        count = enumeration.count_fixed_points_backtracking(gadget.graph, gadget.thresholds)
        sat, _nsat = reductions.recover_sat_count(count, f.num_vars)
        _require(sat == reductions.count_sat(f),
                 "fix gadget of %s recovers #sat = %s", f.clauses, sat)


def _random_2dnf(rng) -> reductions.Formula:
    m = rng.randint(1, 2)
    n = rng.randint(1, 2 * m)
    while True:
        clauses = tuple(
            tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, min(2, n)))))
            for _ in range(m)
        )
        if {abs(l) for c in clauses for l in c} == set(range(1, n + 1)):
            return reductions.Formula(reductions.MONOTONE_2DNF, n, clauses)


def _check_pred_gadget(rng) -> None:
    for _ in range(15):
        n = rng.randint(1, 3)
        m = rng.randint(1, 2)
        clauses = []
        for _ in range(m):
            size = rng.randint(1, 3)
            lits = tuple(
                sorted(rng.choice((1, -1)) * v for v in rng.sample(range(1, n + 1), min(size, n)))
            )
            clauses.append(lits)
        f = reductions.Formula(reductions.THREE_CNF, n, tuple(clauses))
        gadget = reductions.pred_reduction(f)
        reachable = enumeration.is_reachable(gadget.graph, gadget.thresholds, gadget.target)
        _require(reachable == (reductions.count_sat(f) > 0),
                 "PRED mismatch on %s", f.clauses)


def _check_reachable_pred_gadget(rng) -> None:
    f = reductions.Formula(reductions.MONOTONE_2CNF, 2, ((1, 2),))
    gadget = reductions.reachable_pred_reduction(f)
    claimed = reductions.count_sat(f)
    measured = enumeration.count_predecessors(gadget.graph, gadget.thresholds, gadget.target)
    _require(claimed == 3 and measured == 9,
             "expected the documented 9-vs-3 discrepancy, got %s vs %s", measured, claimed)


def _check_convergence_time_bounds(rng) -> None:
    for n in (4, 6):
        g = instances.cycle_graph(n)
        for _ in range(60):
            k = instances.random_thresholds(g, rng)
            a = rng.randrange(1 << n)
            transient = dynamics.convergence_time(g, k, a)
            _require(transient <= n, "even cycle transient %s > %s", transient, n)
    for n in range(2, 7):
        for g in instances.trees(n):
            for _ in range(40):
                k = instances.random_thresholds(g, rng)
                a = rng.randrange(1 << n)
                transient = dynamics.convergence_time(g, k, a)
                _require(transient <= n, "tree transient %s > %s", transient, n)
    for g, k in _random_instances(rng, 25, 7):
        bound = convergence_time_bound(g)
        for _ in range(30):
            a = rng.randrange(1 << g.n)
            transient = dynamics.convergence_time(g, k, a)
            _require(transient <= bound, "transient %s > %s", transient, bound)


def _check_resilience_closed_forms(rng) -> None:
    pairs = []
    for n in (3, 4, 5):
        pairs.append((instances.star_graph(n), "star", range(1, n + 1)))
        pairs.append((instances.complete_graph(n), "complete", range(1, n + 1)))
    pairs.append((instances.path_graph(5), "path", (1, 2)))
    pairs.append((instances.cycle_graph(5), "cycle", (1, 2, 3)))
    for n in range(6, 11):
        pairs.append((instances.path_graph(n), "path", (1, 2)))
        pairs.append((instances.cycle_graph(n), "cycle", (1, 2)))
    for g, family, budgets in pairs:
        for K in budgets:
            mu = resilience.resilience_bruteforce(g, K).mu
            _require(mu == resilience.resilience_closed_form(family, g.n, K),
                     "%s n=%s K=%s: brute force %s", family, g.n, K, mu)


def _check_resilience_monotone(rng) -> None:
    """The step is monotone in the profile and antitone in k: a within
    a' and k >= k' keep f_k^t(a) within f_k'^t(a') at every t. So every
    digit vector in a failure box the search learns fails from the
    box's seed."""
    for g, k in _random_instances(rng, 40, 7):
        k_low = [rng.randint(0, x) for x in k]
        for _ in range(20):
            a = rng.randrange(1 << g.n)
            a_high = a | rng.randrange(1 << g.n)
            for _ in range(g.n):
                a, a_high = dynamics.step(g, k, a), dynamics.step(g, k_low, a_high)
                _require(a & ~a_high == 0, "step not monotone on %s k=%s k'=%s", g.edges, k, k_low)
    boxes = 0
    while boxes < 20:
        g = instances.random_connected_graph(rng.randint(2, 6), rng)
        k = [rng.randint(0, d) + 1 for d in g.degrees]
        seed = rng.randrange(1, 1 << g.n)
        ok, walk, _ = resilience._check_recovery_counted(g, k, [seed])
        if ok:
            continue
        box = resilience._failure_box(g, walk)
        for m in product(*(range(ub + 1) for ub in box)):
            step = make_step(g, [x + 1 for x in m])
            _require(dynamics.limit_cycle(step, seed, 1 << g.n).cycle != (0,),
                     "digits %s in the box %s of seed %s recover on %s", m, box, seed, g.edges)
        boxes += 1


def _check_greedy_recovery(rng) -> None:
    for _ in range(15):
        g = instances.random_connected_graph(rng.randint(2, 6), rng)
        q = resilience.greedy_upper_bound_q(g)
        l1 = sum(q, Fraction(0))
        _require(l1 <= Fraction(g.n, 2), "greedy allocation costs %s > n/2", l1)
        edge_sum = sum(
            min(Fraction(1, g.degrees[i]), Fraction(1, g.degrees[j])) for i, j in g.edges
        )
        _require(l1 == edge_sum, "greedy allocation costs %s, not %s", l1, edge_sum)
        ok, seed = resilience.check_recovery(g, q, g.n)
        _require(ok, "greedy allocation failed to recover from seed %s", seed)


def _probe_bipartite_linear_time(rng) -> str:
    # Experimental probe only: a linear transient bound on general
    # bipartite graphs is conjectured, not established. The probe reports
    # the worst observed ratio and flags any violation as a finding
    # rather than asserting it away.
    worst = Fraction(0)
    violations = 0
    for g, k in _bipartite_sample(rng, 40, 8):
        for _ in range(30):
            a = rng.randrange(1 << g.n)
            transient = dynamics.convergence_time(g, k, a)
            worst = max(worst, Fraction(transient, g.n))
            violations += transient > g.n
    note = f"worst transient/n = {worst} over 1200 bipartite trajectories"
    if violations:
        note += f"; {violations} exceeded n (conjecture counterexamples, please report)"
    return note
