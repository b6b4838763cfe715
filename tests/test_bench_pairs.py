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
    # the median and quartiles of five runs, so that a layer's move can be
    # read against the side's own spread
    runs = [{"dynamics.steps": 10.0, "resilience.us_per_evaluation": 8.2},
            {"dynamics.steps": 10.0, "resilience.us_per_evaluation": 12.7},
            {"dynamics.steps": 10.0, "resilience.us_per_evaluation": 8.4, "cli.errors": 1.0},
            {"dynamics.steps": 10.0, "resilience.us_per_evaluation": 9.1234567},
            {"dynamics.steps": 10.0, "resilience.us_per_evaluation": 7.9}]
    assert bench_pairs.TRACE_RUNS == 5
    assert bench_pairs.layer_quartiles(runs) == {
        "cli.errors": {"median": 0.0, "q1": 0.0, "q3": 0.0},  # missing from four runs: 0 there
        "dynamics.steps": {"median": 10.0, "q1": 10.0, "q3": 10.0},
        "resilience.us_per_evaluation": {"median": 8.4, "q1": 8.2, "q3": 9.123457},
    }


def test_traced_summary_keeps_the_metrics_non_zero_on_either_side():
    parent = [{"cli.self_s": 0.002, "dynamics.steps": 0.0, "enumeration.profiles": 0.0}] * 5
    change = [{"cli.self_s": 0.003, "dynamics.steps": 0.0, "reductions.build_s": 0.001}] * 4
    change.append({"cli.self_s": 0.004, "dynamics.steps": 0.0})
    summary = bench_pairs.traced_summary({"parent": parent, "change": change})
    zero = {"median": 0.0, "q1": 0.0, "q3": 0.0}
    assert summary == {
        "parent": {"cli.self_s": {"median": 0.002, "q1": 0.002, "q3": 0.002},
                   "reductions.build_s": zero},
        "change": {"cli.self_s": {"median": 0.003, "q1": 0.003, "q3": 0.003},
                   "reductions.build_s": {"median": 0.001, "q1": 0.001, "q3": 0.001}},
    }


def test_machine_speed_takes_the_median_per_side_alternating():
    calls = []

    def timer(argv, cwd):
        calls.append((cwd, tuple(argv[1:])))
        return len(calls) / 1000  # each run slower than the last

    dirs = {"parent": "P", "change": "C"}
    speed = bench_pairs.machine_speed(dirs, runs=3, timer=timer)
    probes = list(bench_pairs.SPEED_PROBES.values())
    assert probes == [("-c", "pass"), ("-S", "-c", "pass")]
    # run 0: parent then change; run 1: change then parent; run 2 as run 0
    assert [cwd for cwd, _ in calls] == ["P", "P", "C", "C", "C", "C", "P", "P", "P", "P", "C", "C"]
    assert [args for _, args in calls] == probes * 6
    assert speed == {
        "parent": {"python_c_pass_s": 0.007, "python_S_c_pass_s": 0.008},
        "change": {"python_c_pass_s": 0.005, "python_S_c_pass_s": 0.006},
    }
    assert bench_pairs.SPEED_RUNS == 15


def test_claim_needs_nine_tenths_of_the_pairs_and_a_gain_past_the_parent_spread():
    # parent jobs_per_s: q1 9.5, median 10.0, q3 10.5 over ten pairs
    parent = [9.0, 9.4, 9.5, 9.5, 9.9, 10.1, 10.5, 10.5, 10.6, 11.0]

    def verdict(change, metric="jobs_per_s", direction="higher", base=parent):
        pairs = [pair(i, "parent" if i % 2 == 0 else "change", {metric: p}, {metric: c})
                 for i, (p, c) in enumerate(zip(base, change))]
        return bench_pairs.claim(pairs, "census", metric, direction)

    met = verdict([p * 1.5 for p in parent])
    assert met == {"workload": "census", "metric": "jobs_per_s", "better": "higher", "pairs": 10,
                   "change_wins": 10, "median_gain": 5.0, "parent_spread": 1.0,
                   "verdict": "claim_met"}
    # nine wins of ten still meet it; eight do not
    nine = [p * 1.5 for p in parent[:9]] + [parent[9]]
    assert (verdict(nine)["change_wins"], verdict(nine)["verdict"]) == (9, "claim_met")
    eight = [p * 1.5 for p in parent[:8]] + parent[8:]
    assert (verdict(eight)["change_wins"], verdict(eight)["verdict"]) == (8, "claim_not_met")
    # every pair won, but by less than the parent's own q3 - q1
    small = verdict([p + 0.5 for p in parent])
    assert (small["change_wins"], small["median_gain"], small["verdict"]) == (10, 0.5, "claim_not_met")
    # lower is better: a median time 5 % lower wins every pair, but by
    # 0.005 s against a parent q3 - q1 of 0.01 s
    times = [p / 100 for p in parent]
    slower = verdict([t * 0.95 for t in times], "job_s_p50", "lower", times)
    assert (slower["change_wins"], slower["median_gain"], slower["parent_spread"],
            slower["verdict"]) == (10, 0.005, 0.01, "claim_not_met")
    faster = verdict([t * 0.5 for t in times], "job_s_p50", "lower", times)
    assert (faster["median_gain"], faster["verdict"]) == (0.05, "claim_met")
