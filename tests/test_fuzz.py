"""Seeded mutations of valid instance and formula files, run through the
CLI in-process.

Each case takes a valid file, applies up to three mutations (rename a
key by one edit, copy in a key of another file or format, change a value's
type, nest a value deeply, claim a huge n) and runs ``simulate``,
``enumerate``, ``expand`` or ``reduce`` on it, without ``--verify``.
Every run exits 0, 2, 3 or 4 without a traceback, and writes nothing to
stdout unless it exits 0. A run that exits 0 read only keys of its
format or ``WRITTEN_KEYS``, its input survives an encode and decode
round trip, and every instance it wrote loads.
"""

import json
import random
import string
import traceback

import pytest

from threshold_lab.cli import main
from threshold_lab.graph_core import WRITTEN_KEYS, instance_from_dict, instance_to_dict
from threshold_lab.reductions import formula_from_dict

SEED = 12
CASES = 600

INSTANCES = [
    # C4 is bipartite: its double cover splits in two
    {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]], "thresholds": [1, 2, 1, 1]},
    {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "thresholds": [1, 1, 2]},
    {"n": 4, "edges": [[0, 1], [0, 2], [0, 3]], "types": [[1, 3], [0, 1], [1, 1], [1, 2]]},
    {"n": 3, "weighted_edges": [[0, 1, 2], [1, 2, -1]], "self_loops": [[0, 1]],
     "thresholds": [1, 0, 2]},
    # loop-free: its self-loop removal is two copies
    {"n": 2, "weighted_edges": [[0, 1, 2]], "thresholds": [1, 1]},
]
FORMULAS = [
    {"variant": "monotone-2dnf", "n": 3, "clauses": [[1, 2], [3]]},
    {"variant": "3cnf", "n": 3, "clauses": [[1, -2, 3], [-1]]},
    {"variant": "monotone-2cnf", "n": 3, "clauses": [[1, 2], [2, 3]]},
]
# keys the package writes beside an instance, which every reader accepts
WRITTEN = {"labels": ["a", "b"], "node_map": [{"role": "original", "source": 0}],
           "nodes": [0, 1], "target": "BW", "verification": {"match": True},
           "claimed_predecessors": 3, "measured_predecessors": 9, "discrepancy": "x"}
SCHEMA = {
    "edges": {"n", "edges", "thresholds", "types"},
    "weighted_edges": {"n", "weighted_edges", "self_loops", "thresholds"},
    "variant": {"variant", "n", "clauses"},
}
ODD_VALUES = [None, True, 1.5, "1", "", {}, [], [[0]], -3, 2**70, {"n": 1}]
HUGE_N = [10**5, 400_001, 10**9, 2**63, 10**30]
DEPTHS = [2, 40, 900, 50_000]
NEST = "\x00nest\x00"  # stands for a value to write nested


def one_edit(rng, key):
    """key with one character inserted, deleted or replaced."""
    while True:
        i = rng.randrange(len(key) + 1)
        c = rng.choice(string.ascii_lowercase + "_'")
        edited = rng.choice([key[:i] + c + key[i:], key[:i] + key[i + 1:],
                             key[:i] + c + key[i + 1:]])
        if edited != key:
            return edited


def slots(doc):
    """(container, key) of every value down to the entries of rows."""
    out = []
    for key, value in doc.items():
        out.append((doc, key))
        if isinstance(value, list):
            for i, row in enumerate(value):
                out.append((value, i))
                if isinstance(row, list):
                    out += [(row, j) for j in range(len(row))]
    return out


def mutate(rng, doc, nested):
    """Apply one mutation in place. A value to nest is swapped for NEST
    and returned with its depth, as (depth, value); ``dump`` writes it."""
    kind = rng.randrange(5)
    if kind == 0 and doc:
        key = rng.choice(list(doc))
        doc[one_edit(rng, key)] = doc.pop(key)
    elif kind == 1:
        donor = rng.choice(INSTANCES + FORMULAS + [WRITTEN])
        key = rng.choice(list(donor))
        doc[key] = json.loads(json.dumps(donor[key]))
    elif kind == 2 and doc:
        container, key = rng.choice(slots(doc))
        container[key] = rng.choice(ODD_VALUES)
    elif kind == 3 and doc and nested is None:
        container, key = rng.choice(slots(doc))
        nested = rng.choice(DEPTHS), container[key]
        container[key] = NEST
    else:
        doc["n"] = rng.choice(HUGE_N)
    return nested


def dump(doc, nested):
    """The JSON text of doc, with NEST written as its value inside depth
    lists: deeper than ``json.dumps`` itself can go."""
    text = json.dumps(doc)
    if nested is None:
        return text
    depth, value = nested
    return text.replace(json.dumps(NEST), "[" * depth + json.dumps(value) + "]" * depth)


def argv_for(rng, base, path):
    if "variant" in base:
        return ["reduce", "--formula", path, "--kind",
                rng.choice(["fix", "pred", "reachable-pred"])]
    command = rng.choice(["simulate", "enumerate", "expand"])
    if command == "simulate":
        return ["simulate", "--input", path, "--initial", "B" + "W" * (base["n"] - 1)]
    if command == "enumerate":
        return ["enumerate", "--input", path]
    kind = rng.choice(["bipartite", "symmetric", "unit-weights", "drop-self-loops",
                       "remove-node"])
    extra = ["--node", "0", "--pin", rng.choice("BW")] if kind == "remove-node" else []
    return ["expand", "--input", path, "--kind", kind, *extra]


def check_success(command, doc, out):
    """Oracle 2, on a run that exited 0."""
    if command == "reduce":
        fmt = "variant"
    else:
        fmt = "weighted_edges" if "weighted_edges" in doc else "edges"
    assert set(doc) <= SCHEMA[fmt] | WRITTEN_KEYS
    if fmt == "variant":
        f = formula_from_dict(doc)
        assert formula_from_dict(f.to_dict()) == f
    else:
        g, k = instance_from_dict(doc)
        assert instance_from_dict(instance_to_dict(g, k)) == (g, k)
    written = out.get("components", [out]) if "n" in out or "components" in out else []
    for inst in written:
        g, k = instance_from_dict(inst)
        assert instance_from_dict(instance_to_dict(g, k)) == (g, k)


def test_mutated_files_exit_cleanly(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("THRESHOLD_LAB_GUARD_N", raising=False)
    rng = random.Random(SEED)
    path = str(tmp_path / "case.json")
    codes = {}
    for case in range(CASES):
        base = rng.choice(INSTANCES + FORMULAS)
        doc = json.loads(json.dumps(base))
        nested = None
        for _ in range(rng.randint(0, 3)):  # 0: the valid file itself
            nested = mutate(rng, doc, nested)
        text = dump(doc, nested)
        with open(path, "w") as fh:
            fh.write(text)
        argv = argv_for(rng, base, path)
        context = f"case {case}: {argv[0]} {argv[3:]} on {text[:300]}"
        try:
            code = main(argv)
        except BaseException:  # noqa: BLE001 - any escape is a failure
            pytest.fail(f"{context}\n{traceback.format_exc()}")
        captured = capsys.readouterr()
        assert code in (0, 2, 3, 4), context
        assert "Traceback" not in captured.err, context
        codes[code] = codes.get(code, 0) + 1
        if code != 0:
            assert captured.out == "", context
            assert captured.err.startswith("error: "), context
            continue
        doc = json.loads(text)  # as read, with any nesting
        out = json.loads(captured.out)
        try:
            check_success(argv[0], doc, out)
        except Exception:  # noqa: BLE001
            pytest.fail(f"{context}\n{traceback.format_exc()}")
    # the mutations reach both accepted and refused files
    assert codes.get(0, 0) > CASES // 10 and codes.get(2, 0) > CASES // 10, codes
