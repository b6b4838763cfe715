"""Every benchmark job of seeds 7 and 11, ``simulate`` on each of their
census instances, and ``verify --seed 0`` keep their exit codes and
their stdout byte for byte.

``tests/golden_outputs.json`` holds the pins; ``tools/golden_outputs.py``
computes them and, run as a script, rewrites the file.
"""

import json

from conftest import load_tool

golden = load_tool("golden_outputs")


def test_outputs_match_the_pins(tmp_path, monkeypatch):
    monkeypatch.delenv("THRESHOLD_LAB_GUARD_N", raising=False)
    pinned = json.loads(golden.PIN.read_text())
    table = golden.outputs(tmp_path)
    assert sorted(table) == sorted(pinned)
    changed = sorted(key for key in pinned if table[key] != pinned[key])
    assert changed == [], f"outputs differ from tests/golden_outputs.json: {changed}"


def test_evaluations_are_pinned_apart(monkeypatch):
    # a resilience report's evaluations count has its own hash, and its
    # stdout hash does not see it
    outputs = {}

    def fake_main(argv):
        print(outputs[argv[0]])
        return 0

    monkeypatch.setattr("threshold_lab.cli.main", fake_main)
    outputs.update(a='{\n  "evaluations": 12,\n  "mu": [1, 2]\n}',
                   b='{\n  "evaluations": 13,\n  "mu": [1, 2]\n}',
                   c='{\n  "evaluations": 12,\n  "mu": [1, 3]\n}',
                   d='{\n  "mu": [1, 2]\n}')
    a, b, c, d = (golden.pin([name]) for name in "abcd")
    assert a["stdout"] == b["stdout"] != c["stdout"]
    assert a["evaluations"] == c["evaluations"] != b["evaluations"]
    assert "evaluations" not in d and d["stdout"] != a["stdout"]
    assert a["exit"] == 0
