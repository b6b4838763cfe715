"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

From the root of a source checkout. It shows that:
  * every workload runs correctly in both modes and emits exactly the
    metrics BENCHMARK.json names, each with its unit;
  * two traced runs with one seed give the same exact counts;
  * every output check passes the right output and rejects corrupted
    ones, and a rejected output counts as a failed job (ok_frac < 1);
  * without the program's sources the benchmark exits non-zero and
    prints no result.
Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import checks
import run
import tracing
import workloads

ROOT = Path.cwd()


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"selftest: FAILED: {what}")
        sys.exit(1)


def metric_units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def check_runs() -> None:
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        want = metric_units(section)
        for workload in workloads.WORKLOADS:
            res = run.run(workload, 1, 0.1, trace, tiny=True)
            what = f"{workload} trace={int(trace)}"
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{what} ran correctly")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{what} emits every named metric with its unit: {got}")
            if trace:
                again = run.run(workload, 1, 0.1, True, tiny=True)
                expect(again["record"]["counts"] == res["record"]["counts"],
                       f"{workload}: exact counts repeat across runs with one seed")
        print(f"selftest: trace={int(trace)} metrics and units ok on every workload")


def _corrupt_census(out):
    out["fixed_points"] += 1
    out["cycle_classes"] += 1


def _corrupt_cycle(out):
    first = out["cycle"][0]
    out["cycle"][0] = ("W" if first[0] == "B" else "B") + first[1:]


def _corrupt_transient(out):
    out["transient"] += 1
    out["trajectory_length"] += 1


def _corrupt_fixed_points(out):
    out["verification"]["fixed_points"] += 1


def _corrupt_reachable(out):
    out["verification"]["reachable"] = not out["verification"]["reachable"]


def _corrupt_predecessors(out):
    out["measured_predecessors"] += 1


def _corrupt_mu(out):
    mu = Fraction(*out["mu"]) + Fraction(1, 2)
    out["mu"] = [mu.numerator, mu.denominator]


def _corrupt_witness(out):
    out["witness_q"] = [[0, 1]] * len(out["witness_q"])
    out["mu"] = [0, 1]


CORRUPTIONS = {
    "enumerate": [_corrupt_census],
    "simulate": [_corrupt_cycle, _corrupt_transient],
    "fix": [_corrupt_fixed_points],
    "pred": [_corrupt_reachable],
    "reachable-pred": [_corrupt_predecessors],
    "resilience": [_corrupt_mu, _corrupt_witness],
}


def check_rejections() -> None:
    lib = run.load_library(ROOT / "src")
    work = ROOT / ".perfbench_work" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for workload in workloads.WORKLOADS:
            execs = []
            for job in workloads.build(workload, 1, tiny=True):
                path = work / f"{job.jid}.json"
                path.write_text(job.text())
                text, _ = tracing.replay(lib, job, str(path))
                good = json.loads(text)
                expected = checks.expected_answer(job)
                expect(checks.check(job, good, expected) is None, f"{job.jid}: right output passes")
                execs.append(run.Execution(job, 0, 1.0, 1.0, 0, False, text.encode(), b""))
                for corrupt in CORRUPTIONS[job.meta.get("kind", job.command)]:
                    bad = copy.deepcopy(good)
                    corrupt(bad)
                    expect(checks.check(job, bad, expected) is not None,
                           f"{job.jid}: {corrupt.__name__} is rejected")
                    # a job of its own, so the output check (not the repeat check) rejects it
                    alias = dataclasses.replace(job, jid=f"{job.jid}/{corrupt.__name__}")
                    execs.append(run.Execution(alias, 0, 1.0, 1.0, 0, False,
                                               json.dumps(bad).encode(), b""))
            run.check_executions(execs)
            failed = sum(1 for ex in execs if ex.error)
            expect(failed == len(execs) - len(workloads.build(workload, 1, tiny=True)),
                   f"{workload}: exactly the corrupted outputs count as failed jobs")
        print("selftest: every check rejects its corrupted outputs")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_without_program() -> None:
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(Path(__file__).resolve().parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False)
        expect(proc.returncode != 0, "the benchmark fails without the program")
        expect(not proc.stdout.strip(), "no result is printed without the program")
        print("selftest: without the program the run exits", proc.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_rejections()
    check_runs()
    check_without_program()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
