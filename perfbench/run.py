"""threshold-lab benchmark: seeded CLI jobs in a closed loop, or a traced replay.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

--trace 0 runs the workload's jobs as `python3 -m threshold_lab ...`
subprocesses, one at a time (a closed loop with one client), in the
number of whole rounds that comes nearest to --seconds at this commit's
speed, then checks every output and prints the end-to-end metrics.
--trace 1 replays every job of the workload in-process through
threshold_lab.cli.main, once untraced and once with the library calls
wrapped in spans, and prints the per-layer metrics. Either way the last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. The run record and the spans go to .perfbench_runs/.

The program is imported from ./src only; without it the run exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
JOB_TIMEOUT_S = 60.0
OVERRUN_S = 100.0  # no job starts this long after the planned --seconds
LIB_MODULES = ("cli", "graph_core", "enumeration", "reductions")


class BenchError(Exception):
    """The benchmark cannot produce a result (no program, broken inputs)."""


@dataclass
class Execution:
    job: workloads.Job
    round: int
    wall_s: float
    max_rss_mb: float
    exit_code: int
    timed_out: bool
    stdout: bytes
    stderr: bytes
    error: str | None = None


# ---------------------------------------------------------------------------
# Processes


def _spawn(argv: list[str], env: dict, out: Path, err: Path, timeout: float):
    """Run argv in its own session; returns (wall s, rusage, exit code, timed out).

    The rusage comes from wait4 on the child, so its max RSS covers any
    pool workers the child waited for.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
    ]
    killed = threading.Event()

    def kill_group():
        killed.set()
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions, setsid=True)
    timer = threading.Timer(timeout, kill_group)
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
        timer.join()
    wall = time.perf_counter() - t0
    return wall, usage, os.waitstatus_to_exitcode(status), killed.is_set()


def _program_env(src: Path) -> dict:
    env = dict(os.environ)
    env.pop("THRESHOLD_LAB_GUARD_N", None)  # measure the defaults users get
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def _timed_python(args: list[str], env: dict, work: Path, what: str) -> tuple[float, bytes]:
    out, err = work / "probe.out", work / "probe.err"
    wall, _, code, timed_out = _spawn([sys.executable, *args], env, out, err, JOB_TIMEOUT_S)
    if code != 0 or timed_out:
        raise BenchError(f"{what} failed (exit {code}): {err.read_bytes()[-500:].decode(errors='replace')}")
    return wall, out.read_bytes()


def measure_setup(env: dict, work: Path, inputs: list[Path]) -> list[float]:
    """Fresh interpreters that import threshold_lab.cli and load and
    validate every input file of the workload; the first run, which may
    compile bytecode, is not kept."""
    args = [str(HERE / "load_inputs.py"), *map(str, inputs)]
    return [_timed_python(args, env, work, "set-up")[0] for _ in range(SETUP_REPEATS + 1)][1:]


def measure_import(env: dict, work: Path) -> list[float]:
    code = ("import time; t = time.perf_counter(); import threshold_lab.cli; "
            "print(time.perf_counter() - t)")
    _timed_python(["-c", code], env, work, "import")  # warm the bytecode cache
    return [float(_timed_python(["-c", code], env, work, "import")[1])
            for _ in range(IMPORT_REPEATS)]


# ---------------------------------------------------------------------------
# End-to-end run


def closed_loop(jobs, paths, env, work: Path, rounds: int, seconds: float
                ) -> tuple[list[Execution], float]:
    """`rounds` passes over the job list, one job at a time."""
    execs: list[Execution] = []
    start = time.perf_counter()
    for r in range(rounds):
        for job in jobs:
            left = start + seconds + OVERRUN_S - time.perf_counter()
            if left <= 0:
                raise BenchError("the run overran its time budget")
            argv = [sys.executable, "-m", "threshold_lab", job.command,
                    job.input_flag, str(paths[job.jid]), *job.options]
            out, err = work / "job.out", work / "job.err"
            wall, usage, code, timed_out = _spawn(argv, env, out, err, min(JOB_TIMEOUT_S, left))
            execs.append(Execution(job, r, wall, usage.ru_maxrss / 1024.0, code, timed_out,
                                   out.read_bytes(), err.read_bytes()))
    return execs, time.perf_counter() - start


def check_executions(execs: list[Execution]) -> None:
    """Sets Execution.error for every failed job: non-zero exit, timeout,
    a wrong output, or an output that differs from an earlier run of the
    same job."""
    expected, first_output = {}, {}
    for ex in execs:
        jid = ex.job.jid
        if ex.timed_out:
            ex.error = "timed out"
        elif ex.exit_code != 0:
            ex.error = f"exit {ex.exit_code}: {ex.stderr[-300:].decode(errors='replace')}"
        elif first_output.setdefault(jid, ex.stdout) != ex.stdout:
            ex.error = "output differs from an earlier run of the same job"
        else:
            if jid not in expected:
                expected[jid] = checks.expected_answer(ex.job)
            try:
                out = json.loads(ex.stdout)
            except ValueError:
                ex.error = "stdout is not JSON"
                continue
            ex.error = checks.check(ex.job, out, expected[jid])


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile of job time that
    still has at least ten jobs beyond it; the maximum below 11 jobs."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(jobs, paths, env, work, rounds, seconds, record) -> tuple[dict, int, int]:
    setup = measure_setup(env, work, sorted(paths.values()))
    execs, wall = closed_loop(jobs, paths, env, work, rounds, seconds)
    check_executions(execs)
    times = [ex.wall_s for ex in execs]
    failed = sum(1 for ex in execs if ex.error)
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "job_s_p50": (statistics.median(times), "s"),
        "job_s_tail": (tail_s, "s"),
        "jobs_per_s": ((len(execs) - failed) / wall, "1/s"),
        "peak_rss_mb": (max(ex.max_rss_mb for ex in execs), "MB"),
        "ok_frac": ((len(execs) - failed) / len(execs), "ratio"),
    }
    record.update(
        setup_samples_s=setup,
        loop_wall_s=wall,
        rounds=rounds,
        job_s_tail={"percentile": tail_pct, "jobs": len(execs)},
        failed_frac=failed / len(execs),
        jobs=[{"jid": ex.job.jid, "round": ex.round, "wall_s": ex.wall_s,
               "max_rss_mb": ex.max_rss_mb, "exit": ex.exit_code, "error": ex.error}
              for ex in execs],
        inputs=summarize(jobs, {ex.job.jid: ex.stdout for ex in execs if not ex.error}),
    )
    for ex in execs:
        if ex.error:
            print(f"FAILED {ex.job.jid} (round {ex.round}): {ex.error}", file=sys.stderr)
    return metrics, len(execs), failed


# ---------------------------------------------------------------------------
# Traced run


def load_library(src: Path):
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"threshold_lab.{name}") for name in LIB_MODULES}
    origin = Path(mods["graph_core"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise BenchError(f"threshold_lab was imported from {origin}, not from {src}")
    return SimpleNamespace(**mods)


def traced(jobs, paths, src, env, work, record) -> tuple[dict, set, list]:
    import_s = measure_import(env, work)
    os.environ.pop("THRESHOLD_LAB_GUARD_N", None)  # the defaults users get, as in the loop
    lib = load_library(src)
    tracer = tracing.Tracer()
    replay_s = {"untraced": 0.0, "traced": 0.0}
    failed: set[str] = set()
    outputs = {}
    for i, job in enumerate(jobs):
        path = str(paths[job.jid])
        texts, errors = {}, []
        # alternate which replay goes first, so warm-up favours neither; a
        # failed replay does not stop the other, so the spans show where it failed
        for mode in ("untraced", "traced") if i % 2 == 0 else ("traced", "untraced"):
            t0 = time.perf_counter()
            try:
                texts[mode], counts = tracing.replay(
                    lib, job, path, tracer if mode == "traced" else None)
            except tracing.JobFailed as exc:
                errors.append(f"{mode} replay: {exc}")
                continue
            except Exception:  # a failing job is counted, the run goes on
                errors.append(f"{mode} replay: {traceback.format_exc()}")
                continue
            replay_s[mode] += time.perf_counter() - t0
            if mode == "traced":
                record.setdefault("counts", {})[job.jid] = counts
        if job.command == "enumerate" and not errors:
            try:
                tracing.transition_table_probe(lib, job, path, tracer)
            except Exception:
                errors.append(f"transition table probe: {traceback.format_exc()}")
        if errors:
            print(f"FAILED {job.jid}: {'; '.join(errors)}", file=sys.stderr)
            failed.add(job.jid)
            continue
        if texts["untraced"] != texts["traced"]:
            error = "two replays of the same input disagree"
        else:
            error = checks.check(job, json.loads(texts["traced"]), checks.expected_answer(job))
        if error:
            print(f"FAILED {job.jid}: {error}", file=sys.stderr)
            failed.add(job.jid)
        else:
            outputs[job.jid] = texts["traced"].encode()
    record.update(import_samples_s=import_s, replay_s=replay_s, inputs=summarize(jobs, outputs))
    overhead = replay_s["traced"] / replay_s["untraced"] - 1.0 if replay_s["untraced"] else 0.0
    metrics = tracing.layer_metrics(tracer.spans, statistics.median(import_s), overhead)
    return metrics, failed, tracer.spans


def count_drift(runs: Path, record: dict) -> set[str]:
    """Jobs whose exact counts differ from the latest earlier traced run
    of the same sources on the same inputs."""
    stem = f"{record['workload']}-seed{record['seed']}-trace1-"
    for path in sorted(runs.glob(stem + "*.json"), reverse=True):
        if path.name.endswith("-spans.json"):
            continue
        old = json.loads(path.read_text())
        if (old.get("inputs_sha256") == record["inputs_sha256"]
                and old["machine"]["src_sha256"] == record["machine"]["src_sha256"]):
            before = old.get("counts", {})
            return {jid for jid, c in record.get("counts", {}).items() if before.get(jid) != c}
    return set()


# ---------------------------------------------------------------------------
# Run record


def summarize(jobs, outputs: dict[str, bytes]) -> list[dict]:
    """Per distinct job: its size facts and, where it ran correctly, the
    facts its output adds (transients, gadget sizes, evaluations)."""
    rows = []
    for job in jobs:
        d = job.data
        row = {"jid": job.jid, "command": job.command, **job.meta}
        if "clauses" in d:
            row.update(variables=d["n"], clauses=len(d["clauses"]))
        else:
            row.update(n=d["n"], edges=len(d.get("edges", d.get("weighted_edges", []))))
        if job.jid in outputs:
            out = json.loads(outputs[job.jid])
            for key in ("transient", "trajectory_length", "evaluations"):
                if key in out:
                    row[key] = out[key]
            if job.command == "reduce":
                row["gadget_nodes"] = out["n"]
        rows.append(row)
    return rows


def machine_facts(root: Path) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((root / "src" / "threshold_lab").rglob("*.py")):
        src_hash.update(path.name.encode())
        src_hash.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "networkx": importlib.metadata.version("networkx"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False) -> dict:
    """One benchmark run in the current directory; returns the result object."""
    root = Path.cwd()
    src = root / "src"
    if not (src / "threshold_lab" / "cli.py").is_file():
        raise BenchError(f"no threshold_lab sources under {src}")
    jobs = workloads.build(workload, seed, tiny=tiny)
    inputs_sha = workloads.digest(jobs)
    if workloads.digest(workloads.build(workload, seed, tiny=tiny)) != inputs_sha:
        raise BenchError("the input generator is not deterministic for this seed")
    name = f"{workload}-seed{seed}-trace{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    work = root / ".perfbench_work" / name
    work.mkdir(parents=True)
    try:
        paths = {}
        for job in jobs:
            paths[job.jid] = work / f"{job.jid}.json"
            paths[job.jid].write_text(job.text(), encoding="utf-8")
        record = {"name": name, "workload": workload, "seed": seed, "seconds": seconds,
                  "trace": int(trace), "tiny": tiny, "inputs_sha256": inputs_sha,
                  "machine": machine_facts(root)}
        env = _program_env(src)
        spans = None
        if trace:
            metrics, failed_ids, spans = traced(jobs, paths, src, env, work, record)
            attempted = len(jobs)
        else:
            rounds = max(1, round(seconds / workloads.ROUND_S[workload]))
            metrics, attempted, failed = end_to_end(jobs, paths, env, work, rounds, seconds,
                                                    record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    runs = root / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    if spans is not None:
        drift = count_drift(runs, record)
        for jid in sorted(drift):
            print(f"FAILED {jid}: exact counts differ from an earlier run", file=sys.stderr)
        failed = len(failed_ids | drift)
        record["spans_file"] = f"{name}-spans.json"
        (runs / record["spans_file"]).write_text(json.dumps(spans))
    (runs / f"{name}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": record["metrics"], "record": record}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    record = result.pop("record")
    if not args.trace:
        tail_info = record["job_s_tail"]
        print(f"# job_s_tail is p{tail_info['percentile']:.1f} of {tail_info['jobs']} jobs; "
              f"failed_frac {record['failed_frac']:.4f}; rounds {record['rounds']}")
    for key, m in result["metrics"].items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
