"""Run the packaged invariant suites end to end under pytest."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from threshold_lab import dynamics, verify
from threshold_lab.cli import main


def test_all_invariant_suites_pass():
    results = verify.run_all(seed=0)
    failures = [(name, detail) for name, ok, detail in results if not ok]
    assert not failures, failures
    assert len(results) == 20


SUITES = [
    "type-threshold-equivalence", "two-step-table", "cycle-length-bound",
    "inverted-and-weighted-cycles", "decoupling-identities", "conflict-potential",
    "fixed-point-coincidence", "expansion-commutation", "combined-expansion-isomorphism",
    "census-backtracking-agreement", "bipartite-cycle-identity", "extremal-instances",
    "fix-gadget", "pred-gadget", "reachable-pred-gadget", "convergence-time-bounds",
    "resilience-closed-forms", "resilience-monotone", "greedy-recovery",
    "probe-bipartite-linear-time",
]


def test_suites_are_found_by_name_in_order(monkeypatch):
    # run_all finds every _check_* and _probe_* function, and names a
    # suite after its global, so a stub set here keeps the real name
    seen = []
    for name in dir(verify):
        if name.startswith(("_check_", "_probe_")):
            monkeypatch.setattr(verify, name, lambda rng, name=name: seen.append(name) or name)
    results = verify.run_all(seed=3)
    assert [r[0] for r in results] == SUITES
    assert all(ok for _, ok, _ in results)
    assert [r[2] for r in results] == seen


@pytest.mark.parametrize("seed", [0, 1])
def test_checks_return_none_and_the_probe_its_finding(capsys, monkeypatch, seed):
    # a _check_* suite raises or returns None, so its line is PASS or FAIL
    # only; the probe returns its finding, and verify prints it
    returned = {}
    for name in dir(verify):
        if name.startswith(("_check_", "_probe_")):
            suite = getattr(verify, name)
            monkeypatch.setattr(verify, name, lambda rng, name=name, suite=suite:
                                returned.setdefault(name, suite(rng)))
    assert main(["verify", "--seed", str(seed)]) == 0
    lines = capsys.readouterr().out.splitlines()
    probe = returned.pop("_probe_bipartite_linear_time")
    assert len(returned) == 19 and set(returned.values()) == {None}
    assert probe.startswith("worst transient/n = ")
    assert lines[:19] == [f"PASS  {name}" for name in SUITES[:19]]
    assert lines[19] == f"PASS  probe-bipartite-linear-time  ({probe})"


def test_planted_probe_violation_is_reported_not_failed(capsys, monkeypatch):
    # the probe asserts nothing: a transient past n is a finding on its line
    for name in dir(verify):
        if name.startswith(("_check_", "_probe_")) and name != "_probe_bipartite_linear_time":
            monkeypatch.setattr(verify, name, lambda rng: None)
    monkeypatch.setattr(dynamics, "convergence_time", lambda g, k, a: g.n + 1)
    assert main(["verify", "--seed", "0"]) == 0
    line = capsys.readouterr().out.splitlines()[19]
    assert line.startswith("PASS  probe-bipartite-linear-time  (worst transient/n = ")
    assert line.endswith("; 1200 exceeded n (conjecture counterexamples, please report))")


def test_suites_are_seed_stable():
    first = verify.run_all(seed=7)
    second = verify.run_all(seed=7)
    assert first == second


def test_suites_check_without_assert():
    # ``python -O`` strips assert statements, so no suite may rely on one
    tree = ast.parse(Path(verify.__file__).read_text())
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_planted_failure_fails_under_python_O():
    """A wrong closed form must read FAIL with asserts stripped. The
    other suites are stubbed out to keep the run short."""
    probe = """
import json
from threshold_lab import resilience, verify
resilience.resilience_closed_form = lambda family, n, K: -1
for name in dir(verify):
    if name.startswith(("_check_", "_probe_")) and name != "_check_resilience_closed_forms":
        setattr(verify, name, lambda rng: "")
print(json.dumps([r for r in verify.run_all(seed=0) if r[0] == "resilience-closed-forms"]))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(verify.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-O", "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == (
        '[["resilience-closed-forms", false, "star n=3 K=1: brute force 1"]]')
