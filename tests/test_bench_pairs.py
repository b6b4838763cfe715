"""The summarising step of tools/bench_pairs.py, on made-up run results."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def pair(seed, first, parent, change):
    return {"seed": seed, "first": first, "parent": parent, "change": change}


def test_summary_counts_wins_in_the_better_direction():
    pairs = [
        pair(1, "parent", {"jobs_per_s": 2.0, "job_s_p50": 0.30, "ok_frac": 1.0},
             {"jobs_per_s": 3.0, "job_s_p50": 0.20, "ok_frac": 1.0}),
        pair(2, "change", {"jobs_per_s": 2.5, "job_s_p50": 0.25, "ok_frac": 1.0},
             {"jobs_per_s": 2.4, "job_s_p50": 0.20, "ok_frac": 1.0}),
        pair(3, "parent", {"jobs_per_s": 2.2, "job_s_p50": 0.35, "ok_frac": 1.0},
             {"jobs_per_s": 4.0, "job_s_p50": 0.35, "ok_frac": 0.5}),
    ]
    better = {"jobs_per_s": "higher", "job_s_p50": "lower", "ok_frac": "higher"}
    s = bench_pairs.summarize(pairs, better)
    assert (s["pairs"], s["runs_per_side"], s["seeds"]) == (3, 3, [1, 2, 3])
    assert s["runs"] == pairs
    m = s["metrics"]
    assert m["jobs_per_s"]["change_wins"] == 2
    assert m["job_s_p50"]["change_wins"] == 2  # the tie in pair 3 counts for neither
    assert m["ok_frac"]["change_wins"] == 0
    assert m["jobs_per_s"]["better"] == "higher"
    assert m["jobs_per_s"]["parent"] == {"median": 2.2, "q1": 2.1, "q3": 2.35}
    assert m["jobs_per_s"]["change"] == {"median": 3.0, "q1": 2.7, "q3": 3.5}
    assert m["ok_frac"]["change"] == {"median": 1.0, "q1": 0.75, "q3": 1.0}
    # change/parent per pair: jobs_per_s 1.5, 0.96, 1.8182; job_s_p50 0.6667, 0.8, 1.0
    assert m["jobs_per_s"]["ratio"] == {"median": 1.5, "q1": 1.23, "q3": 1.6591}
    assert m["job_s_p50"]["ratio"] == {"median": 0.8, "q1": 0.7333, "q3": 0.9}
    assert m["ok_frac"]["ratio"] == {"median": 1.0, "q1": 0.75, "q3": 1.0}


def test_ratio_skips_pairs_with_a_zero_parent():
    pairs = [
        pair(1, "parent", {"errors": 0.0, "job_s_p50": 0.2}, {"errors": 1.0, "job_s_p50": 0.3}),
        pair(2, "change", {"errors": 2.0, "job_s_p50": 0.4}, {"errors": 1.0, "job_s_p50": 0.2}),
    ]
    m = bench_pairs.summarize(pairs, {"errors": "lower", "job_s_p50": "lower"})["metrics"]
    assert m["errors"]["ratio"] == {"median": 0.5, "q1": 0.5, "q3": 0.5}
    assert m["job_s_p50"]["ratio"] == {"median": 1.0, "q1": 0.75, "q3": 1.25}
    only_zero = bench_pairs.summarize(pairs[:1], {"errors": "lower"})["metrics"]
    assert only_zero["errors"]["ratio"] is None


def test_quartiles_of_one_run():
    assert bench_pairs.quartiles([0.123456]) == {"median": 0.1235, "q1": 0.1235, "q3": 0.1235}


def test_quartiles_round_to_four_places():
    q = bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert q == {"median": 3.0, "q1": 2.0, "q3": 4.0}


def test_unresolved_when_the_parent_spread_exceeds_the_bound():
    # parent job_s_p50: q1 1.0, median 1.5, q3 2.0, a spread of 2/3
    parent = [1.0, 1.0, 1.5, 2.0, 2.0]
    steady = [10.0, 10.1, 10.2, 10.3, 10.4]

    def pairs(change):
        return [pair(i, "parent", {"job_s_p50": p, "jobs_per_s": s},
                     {"job_s_p50": c, "jobs_per_s": s + 1})
                for i, (p, s, c) in enumerate(zip(parent, steady, change))]

    better = {"job_s_p50": "lower", "jobs_per_s": "higher"}
    bounds = {"job_s_p50": 0.25, "jobs_per_s": 0.25}
    m = bench_pairs.summarize(pairs([1.2] * 5), better, bounds)["metrics"]
    assert bench_pairs.spread(parent) == 2 / 3
    assert (m["job_s_p50"]["bound"], m["job_s_p50"]["unresolved"]) == (0.25, True)
    assert m["jobs_per_s"]["unresolved"] is False
    # every change run below every parent run: resolved despite the spread
    m = bench_pairs.summarize(pairs([0.9] * 5), better, bounds)["metrics"]
    assert m["job_s_p50"]["unresolved"] is False
    # a bound the spread stays within
    m = bench_pairs.summarize(pairs([1.2] * 5), better, {"job_s_p50": 0.7})["metrics"]
    assert m["job_s_p50"]["unresolved"] is False
    assert (m["jobs_per_s"]["bound"], m["jobs_per_s"]["unresolved"]) == (None, None)


def test_traced_metrics_take_the_median_of_the_runs():
    runs = [{"dynamics.steps": 10.0, "resilience.us_per_evaluation": 8.2},
            {"dynamics.steps": 10.0, "resilience.us_per_evaluation": 12.7},
            {"dynamics.steps": 10.0, "resilience.us_per_evaluation": 8.4, "cli.errors": 1.0}]
    assert bench_pairs.TRACE_RUNS == 3
    assert bench_pairs.median_metrics(runs) == {
        "cli.errors": 0.0,  # missing from two runs: 0 there
        "dynamics.steps": 10.0,
        "resilience.us_per_evaluation": 8.4,
    }
