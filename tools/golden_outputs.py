"""Pinned CLI outputs on the benchmark inputs, and the script that re-pins them.

    PYTHONPATH=src python3 tools/golden_outputs.py

regenerates the inputs of every workload for seeds 7 and 11 with
``perfbench/workloads.py`` and runs, in-process through
``threshold_lab.cli.main``: each job; ``simulate`` on each census
instance from the alternating start BWBW... (every ``trajectories`` job
ends on a fixed point, and several of these runs reach a 2-cycle, so
the order of a printed cycle is pinned too); and ``verify --seed 0``.
It rewrites ``tests/golden_outputs.json`` with, per run, keyed
``<workload>/<seed>/<job id>``, the exit code and the sha256 of stdout.
A ``resilience`` job's ``evaluations`` count is hashed on its own, and
its stdout is hashed with that value blanked, so a change that only
moves the search's work re-pins that one field and leaves ``mu`` and
``witness_q`` pinned. ``tests/test_golden_outputs.py`` recomputes the
same table and compares it with the file. The script lists on stderr
every key it adds, drops or changes. Re-pin only when an output changes
on purpose, and name the jobs that changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PIN = ROOT / "tests" / "golden_outputs.json"
SEEDS = (7, 11)
VERIFY_SEED = 0
_EVALUATIONS = re.compile(rb'"evaluations": (\d+)')


def workloads():
    """perfbench/workloads.py, the benchmark's input generators, as a module."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses looks its module up there
        spec.loader.exec_module(module)
    return sys.modules[name]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pin(argv: list[str]) -> dict:
    """{"exit", "stdout"[, "evaluations"]} of one in-process CLI run."""
    from threshold_lab.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    text = out.getvalue().encode()
    entry = {"exit": code}
    found = _EVALUATIONS.search(text)
    if found:
        entry["evaluations"] = _sha(found.group(1))
        text = text[: found.start(1)] + b"null" + text[found.end(1) :]
    entry["stdout"] = _sha(text)
    return entry


def outputs(work: Path) -> dict:
    """The pinned table, with the job inputs written under ``work``. The
    scan guard is the default one: THRESHOLD_LAB_GUARD_N must be unset."""
    if "THRESHOLD_LAB_GUARD_N" in os.environ:
        raise RuntimeError("unset THRESHOLD_LAB_GUARD_N: the pins are taken at the default guard")
    generators = workloads()
    table = {}
    for workload in generators.WORKLOADS:
        for seed in SEEDS:
            for job in generators.build(workload, seed):
                key = f"{workload}/{seed}/{job.jid}"
                path = work / f"{key.replace('/', '-')}.json"
                path.write_text(job.text())
                table[key] = pin([job.command, job.input_flag, str(path), *job.options])
                if workload == "census":
                    n = job.data["n"]
                    start = "BW" * (n // 2) + "B" * (n % 2)
                    table[f"simulate/{seed}/{job.jid}"] = pin(
                        ["simulate", "--input", str(path), "--initial", start])
    table[f"verify/{VERIFY_SEED}"] = pin(["verify", "--seed", str(VERIFY_SEED)])
    return table


def main() -> int:
    """Rewrite PIN, and list on stderr every key it adds, drops or changes."""
    with tempfile.TemporaryDirectory() as tmp:
        table = outputs(Path(tmp))
    old = json.loads(PIN.read_text()) if PIN.exists() else {}
    for key in sorted(old.keys() | table.keys()):
        if key not in old:
            print(f"added {key}", file=sys.stderr)
        elif key not in table:
            print(f"dropped {key}", file=sys.stderr)
        elif old[key] != table[key]:
            print(f"changed {key}", file=sys.stderr)
    PIN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(table)} runs in {PIN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
