"""Paired parent/change benchmark runs, summarised into a BENCH_<pr>.json record.

    python3 tools/bench_pairs.py --pr N --parent HEAD~1 --change HEAD \
        --seeds 931 932 933 934 935 936 937 938 939 940 \
        --what "one line on what the change does" [--claim census/jobs_per_s]

Both commits are extracted with ``git archive`` into a temporary
directory. For every seed, and within it every workload of
``BENCHMARK.json``, each checkout runs

    python3 perfbench/run.py --workload W --seed S --seconds 20 --trace 0

once, with the run length ``BENCHMARK.json`` sets; the pair alternates
which side runs first. Running the workloads in turn within each seed
spreads slow drift in machine load over all of them instead of over one
workload's block of pairs. The end-to-end metrics of every run are kept
under ``runs``, and each metric is summarised per side as median and
quartiles, with ``change_wins``: the pairs in which the change is
strictly better in the direction ``BENCHMARK.json`` gives, and
``ratio``: median and quartiles of change/parent over the pairs whose
parent value is not 0 (None if there are none). Each metric also keeps
its ``BENCHMARK.json`` ``bound`` and is ``unresolved`` when the parent's
quartile spread (q3 - q1) / median exceeds that bound, unless every
change run beats every parent run: such a metric is too noisy to show
either a gain or a loss of the bound's size.
Each checkout also makes TRACE_RUNS traced runs per workload at seed 7,
the seed of every traced comparison in the project's notes, alternating
which side runs first; the median and inclusive quartiles of each
per-layer metric over those runs are recorded, for the metrics that are
non-zero on either side, so that one slow traced run does not read as a
per-layer change and a layer's move can be read against that side's own
spread (q3 - q1). With ``--claim WORKLOAD/METRIC``, ``claim`` records
whether the change's gain in that metric is met: it must win at least
nine tenths of the pairs, and its median must beat the parent's by more
than the parent's q3 - q1. Any failed run stops the tool. Before the pairs,
``machine_speed`` records how fast the machine was for each side: the
median wall time of a fresh ``python3 -c pass`` and ``python3 -S -c
pass`` over SPEED_RUNS runs per side, alternating sides, each run in
that side's checkout.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
TRACE_SEED = 7
TRACE_RUNS = 5
SPEED_RUNS = 15
SPEED_PROBES = {"python_c_pass_s": ("-c", "pass"), "python_S_c_pass_s": ("-S", "-c", "pass")}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def quartiles(values: list[float], digits: int = 4) -> dict:
    """Median and inclusive quartiles, rounded to ``digits`` decimals."""
    q1, med, q3 = _quartiles(values)
    return {"median": round(med, digits), "q1": round(q1, digits), "q3": round(q3, digits)}


def layer_quartiles(runs: list[dict]) -> dict:
    """Each metric's median and inclusive quartiles over runs, rounded
    to 6 decimals; a metric missing from a run counts as 0 there."""
    names = sorted({k for run in runs for k in run})
    return {k: quartiles([run.get(k, 0.0) for run in runs], 6) for k in names}


def traced_summary(traced_runs: dict[str, list[dict]]) -> dict:
    """{side: {metric: median and quartiles}} of each side's traced runs,
    for the metrics that are non-zero on either side; a metric missing
    from a side reads 0 there."""
    traced = {side: layer_quartiles(traced_runs[side]) for side in SIDES}
    zero = quartiles([0.0], 6)
    keep = sorted({k for side in SIDES for k, q in traced[side].items() if q != zero})
    return {side: {k: traced[side].get(k, zero) for k in keep} for side in SIDES}


def spread(values: list[float]) -> float:
    """(q3 - q1) / median with inclusive quartiles; infinite when the
    median is 0 and the quartiles differ."""
    q1, med, q3 = _quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / med


def summarize(pairs: list[dict], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """One workload's record from its pairs.

    Each pair is {"seed", "first", "parent": {metric: value},
    "change": {metric: value}}; ``better`` maps each end-to-end metric
    to "lower" or "higher", and ``bounds`` to its bound. Ties count as
    no win. ``unresolved`` is None for a metric without a bound.
    """
    metrics = {}
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        wins = sum(1 for p in pairs if sign * (p["change"][name] - p["parent"][name]) > 0)
        ratios = [p["change"][name] / p["parent"][name] for p in pairs if p["parent"][name]]
        runs = {side: [p[side][name] for p in pairs] for side in SIDES}
        bound = (bounds or {}).get(name)
        unresolved = None
        if bound is not None:
            separated = all(sign * (c - q) > 0 for c in runs["change"] for q in runs["parent"])
            unresolved = spread(runs["parent"]) > bound and not separated
        metrics[name] = {
            "better": direction,
            "bound": bound,
            "change_wins": wins,
            "ratio": quartiles(ratios) if ratios else None,
            "unresolved": unresolved,
            **{side: quartiles(runs[side]) for side in SIDES},
        }
    return {
        "metrics": metrics,
        "pairs": len(pairs),
        "runs_per_side": len(pairs),
        "seeds": [p["seed"] for p in pairs],
        "runs": pairs,
    }


def claim(pairs: list[dict], workload: str, metric: str, direction: str) -> dict:
    """The verdict on a claimed gain in one metric of one workload.

    The claim is met when the change is strictly better in at least
    nine tenths of the pairs and its median is better than the parent's
    by more than the parent's own quartile distance, q3 - q1; a claim
    that fails either test is not met.
    """
    sign = 1 if direction == "higher" else -1
    wins = sum(1 for p in pairs if sign * (p["change"][metric] - p["parent"][metric]) > 0)
    parent_q1, parent_median, parent_q3 = _quartiles([p["parent"][metric] for p in pairs])
    gain = sign * (statistics.median(p["change"][metric] for p in pairs) - parent_median)
    met = 10 * wins >= 9 * len(pairs) and gain > parent_q3 - parent_q1
    return {
        "workload": workload,
        "metric": metric,
        "better": direction,
        "pairs": len(pairs),
        "change_wins": wins,
        "median_gain": round(gain, 6),
        "parent_spread": round(parent_q3 - parent_q1, 6),
        "verdict": "claim_met" if met else "claim_not_met",
    }


def wall_time(argv: list[str], cwd: Path) -> float:
    """Wall time of one process that must exit 0."""
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=cwd, check=True, capture_output=True)
    return time.perf_counter() - t0


def machine_speed(dirs: dict, runs: int = SPEED_RUNS, timer=wall_time) -> dict:
    """{side: {probe: median wall time}} over ``runs`` runs of each
    SPEED_PROBES process per side, the sides alternating which runs
    first."""
    times = {side: {name: [] for name in SPEED_PROBES} for side in SIDES}
    for i in range(runs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            for name, args in SPEED_PROBES.items():
                times[side][name].append(timer([sys.executable, *args], dirs[side]))
    return {side: {name: round(statistics.median(v), 4) for name, v in probes.items()}
            for side, probes in times.items()}


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def extract(sha: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", sha))) as tar:
        tar.extractall(dest, filter="data")


def bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One perfbench run: ({metric: value}, the run's machine facts)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} in {checkout} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} in {checkout}: {result['failed']} jobs failed")
    records = sorted((checkout / ".perfbench_runs").glob(f"{workload}-seed{seed}-trace{trace}-*.json"))
    machine = json.loads(records[-1].read_text())["machine"]
    return {k: m["value"] for k, m in result["metrics"].items()}, machine


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json at the repo root")
    ap.add_argument("--parent", default="HEAD~1")
    ap.add_argument("--change", default="HEAD")
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--what", required=True, help="one line on what the change does")
    ap.add_argument("--claim", metavar="WORKLOAD/METRIC",
                    help="record the verdict on a claimed gain in this end-to-end metric")
    args = ap.parse_args(argv)

    shas = {side: _git("rev-parse", f"{ref}^{{commit}}").decode().strip()
            for side, ref in zip(SIDES, (args.parent, args.change))}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.claim is not None:
        claimed_workload, _, claimed_metric = args.claim.partition("/")
        if (claimed_workload not in {w["name"] for w in spec["workloads"]}
                or claimed_metric not in better):
            ap.error(f"--claim {args.claim}: not a workload/end-to-end metric of BENCHMARK.json")
    record = {"what": args.what, "workloads": {}, f"traced_seed{TRACE_SEED}": {}}
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            extract(shas[side], dirs[side])
        record["machine_speed"] = machine_speed(dirs)
        machine = None
        pairs = {w["name"]: [] for w in spec["workloads"]}
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in pairs:
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side], machine = bench(dirs[side], workload, seed, seconds, 0)
                    print(f"{workload} seed {seed} {side}: jobs_per_s {pair[side]['jobs_per_s']:.4g}",
                          file=sys.stderr)
                pairs[workload].append(pair)
        for workload in pairs:
            record["workloads"][workload] = summarize(pairs[workload], better, bounds)
            traced_runs = {side: [] for side in SIDES}
            for i in range(TRACE_RUNS):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    traced_runs[side].append(bench(dirs[side], workload, TRACE_SEED, seconds, 1)[0])
            record[f"traced_seed{TRACE_SEED}"][workload] = traced_summary(traced_runs)
    if args.claim is not None:
        record["claim"] = claim(pairs[claimed_workload], claimed_workload, claimed_metric,
                                better[claimed_metric])
        print(f"claim {args.claim}: {record['claim']['verdict']}", file=sys.stderr)
    machine = {k: v for k, v in machine.items() if k not in ("git_sha", "src_sha256")}
    record.update(
        parent_sha=shas["parent"],
        change_sha=shas["change"],
        machine=machine,
        method=(f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} "
                "--trace 0 in fresh git-archive checkouts of both commits; the seed loop is "
                "outermost and the workloads run in turn within each seed; parent and change "
                "alternate which runs first in each pair; medians and inclusive quartiles are "
                "over the runs of one side; change_wins counts pairs where the change is "
                "strictly better; ratio is change/parent per pair, pairs with a parent value "
                "of 0 skipped; unresolved marks a metric whose parent quartile spread "
                "(q3 - q1) / median exceeds its bound, unless every change run beats every "
                f"parent run; each per-layer metric under traced_seed{TRACE_SEED} is the median "
                f"and inclusive quartiles of {TRACE_RUNS} traced runs per side, alternating "
                "which side runs first; "
                f"machine_speed is the median wall time of {SPEED_RUNS} fresh "
                "python3 -c pass and python3 -S -c pass processes per side, taken before "
                "the pairs, alternating which side runs first"),
    )
    (ROOT / f"BENCH_{args.pr}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
