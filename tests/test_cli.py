import json

import pytest

from threshold_lab.cli import main


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    return write(
        tmp_path / "triangle.json",
        {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "thresholds": [1, 1, 2]},
    )


@pytest.fixture
def four_cycle_file(tmp_path):
    return write(
        tmp_path / "c4.json",
        {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]], "thresholds": [1, 1, 1, 1]},
    )


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


class TestSimulate:
    def test_triangle_example(self, capsys, triangle_file):
        # BWW -> WBW -> BWW: a transient-free 2-cycle under k = (1, 1, 2)
        code, out = run(capsys, ["simulate", "--input", triangle_file, "--initial", "BWW"])
        assert code == 0
        assert out["transient"] == 0
        assert out["cycle"] == ["BWW", "WBW"]
        assert out["cycle_length"] == 2

    def test_types_instance(self, capsys, tmp_path):
        path = write(
            tmp_path / "types.json",
            {
                "n": 3,
                "edges": [[0, 1], [1, 2], [0, 2]],
                "types": [[2, 5], [2, 5], [9, 10]],
            },
        )
        code, out = run(capsys, ["simulate", "--input", path, "--initial", "BBW"])
        assert code == 0
        assert out["cycle"] == ["BBB"]

    def test_weighted_instance(self, capsys, tmp_path):
        path = write(
            tmp_path / "w.json",
            {
                "n": 2,
                "weighted_edges": [[0, 1, -1]],
                "self_loops": [],
                "thresholds": [0, 0],
            },
        )
        code, out = run(capsys, ["simulate", "--input", path, "--initial", "BW"])
        assert code == 0
        assert out["transient"] == 0 and out["cycle"] == ["BW"]

    def test_non_integer_weighted_instance_exit(self, capsys, tmp_path):
        path = write(
            tmp_path / "w.json",
            {"n": 2.5, "weighted_edges": [[0, 1, 1.5]], "thresholds": [0.5, True]},
        )
        assert main(["simulate", "--input", path, "--initial", "BW"]) == 2
        assert "must be" in capsys.readouterr().err

    def test_bad_profile_is_input_error(self, capsys, triangle_file):
        assert main(["simulate", "--input", triangle_file, "--initial", "BXW"]) == 2

    def test_guard_exit_code(self, capsys, tmp_path):
        path = write(
            tmp_path / "t1.json",
            {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "thresholds": [1, 1, 1]},
        )
        code = main(["simulate", "--input", path, "--initial", "BWW", "--max-states", "1"])
        assert code == 3

    def test_guard_boundary_on_a_long_caterpillar(self, capsys, tmp_path):
        # a 700-node spine with 1,300 leaves; contagion from one end of
        # the spine gives a trajectory of length L in the hundreds, and
        # the guard lets through exactly L <= guard + 1 states
        from threshold_lab import build_graph, limit_cycle, make_step

        n, spine = 2000, 700
        edges = [[i, i + 1] for i in range(spine - 1)]
        edges += [[(v * 7) % spine, v] for v in range(spine, n)]
        path = write(tmp_path / "cat.json", {"n": n, "edges": edges, "thresholds": [1] * n})
        initial = "B" + "W" * (n - 1)
        length = limit_cycle(make_step(build_graph(n, edges), [1] * n), 1, 10**6).trajectory_length
        assert length > 500
        codes = []
        for guard in (length - 2, length - 1, length):
            codes.append(main(["simulate", "--input", path, "--initial", initial,
                               "--max-states", str(guard)]))
            out = capsys.readouterr().out
        assert codes == [3, 0, 0]
        assert json.loads(out)["trajectory_length"] == length

    def test_huge_weights_run_exactly(self, capsys, tmp_path):
        # 10^24 does not fit in int64: the engine runs on Python ints
        from threshold_lab import (
            Rule, format_profile, instance_from_dict, limit_cycle, parse_profile, step_weighted,
        )

        big = 10**24
        inst = {
            "n": 4,
            "weighted_edges": [[0, 1, big], [1, 2, big], [2, 3, -1]],
            "self_loops": [[3, big]],
            "thresholds": [big, big, 1 - big, big - 1],
        }
        path = write(tmp_path / "big.json", inst)
        w, k = instance_from_dict(inst)
        assert Rule.from_graph(w, k).weights.dtype == object
        for start in ("BWWW", "WBWB", "WWBW"):
            ref = limit_cycle(lambda a: step_weighted(w, k, a), parse_profile(start), 100)
            code = main(["simulate", "--input", path, "--initial", start])
            assert code == 0
            assert json.loads(capsys.readouterr().out) == {
                "transient": ref.transient,
                "cycle": [format_profile(a, 4) for a in ref.cycle],
                "cycle_length": len(ref.cycle),
                "trajectory_length": ref.trajectory_length,
            }

    def test_ignores_the_scan_guard_variable(self, capsys, triangle_file, monkeypatch):
        monkeypatch.setenv("THRESHOLD_LAB_GUARD_N", "abc")
        assert main(["simulate", "--input", triangle_file, "--initial", "BWW"]) == 0


class TestEnumerate:
    def test_four_cycle_counts(self, capsys, four_cycle_file):
        code, out = run(capsys, ["enumerate", "--input", four_cycle_file])
        assert code == 0
        assert out == {"cycle_classes": 3, "fixed_points": 2, "two_cycles": 1}

    def test_guard_exit(self, capsys, four_cycle_file):
        assert main(["enumerate", "--input", four_cycle_file, "--guard-n", "3"]) == 3

    def test_guard_env_override(self, capsys, four_cycle_file, monkeypatch):
        monkeypatch.setenv("THRESHOLD_LAB_GUARD_N", "3")
        assert main(["enumerate", "--input", four_cycle_file]) == 3
        monkeypatch.setenv("THRESHOLD_LAB_GUARD_N", "24")
        assert main(["enumerate", "--input", four_cycle_file]) == 0

    def test_bad_guard_env_is_input_error(self, capsys, four_cycle_file, monkeypatch):
        monkeypatch.setenv("THRESHOLD_LAB_GUARD_N", "abc")
        assert main(["enumerate", "--input", four_cycle_file]) == 2
        assert "THRESHOLD_LAB_GUARD_N" in capsys.readouterr().err

    def test_hard_cap_beats_guard_env(self, capsys, tmp_path, monkeypatch):
        import threshold_lab.enumeration as en

        def unreachable(*args):
            raise AssertionError("the scan started past the hard cap")

        monkeypatch.setattr(en, "_successor_table", unreachable)
        path = write(
            tmp_path / "p33.json",
            {"n": 33, "edges": [[i, i + 1] for i in range(32)], "thresholds": [1] * 33},
        )
        monkeypatch.setenv("THRESHOLD_LAB_GUARD_N", "40")
        assert main(["enumerate", "--input", path]) == 3
        assert main(["enumerate", "--input", path, "--guard-n", "40"]) == 3
        assert "exceeds 32" in capsys.readouterr().err

    def test_non_integer_instance_is_input_error(self, capsys, tmp_path):
        for i, inst in enumerate(
            [
                {"n": 3.9, "edges": [[0, 1], [1, 2]], "thresholds": [1.7, True, "2"]},
                {"n": 3, "edges": [[0, 1], [1, 2], [0, 1.5]], "thresholds": [1, 1, 1]},
            ]
        ):
            path = write(tmp_path / f"bad{i}.json", inst)
            assert main(["enumerate", "--input", path]) == 2
            assert "must be" in capsys.readouterr().err


class TestExpand:
    def test_bipartite(self, capsys, triangle_file):
        code, out = run(capsys, ["expand", "--input", triangle_file, "--kind", "bipartite"])
        assert code == 0
        assert out["n"] == 6
        assert out["thresholds"] == [1, 1, 2, 1, 1, 2]
        assert len(out["node_map"]) == 6

    def test_symmetric(self, capsys, triangle_file):
        code, out = run(capsys, ["expand", "--input", triangle_file, "--kind", "symmetric"])
        assert code == 0
        assert out["n"] == 30

    def test_remove_node(self, capsys, tmp_path):
        path = write(
            tmp_path / "p3.json",
            {"n": 3, "edges": [[0, 1], [1, 2]], "thresholds": [1, 2, 1]},
        )
        code, out = run(
            capsys,
            ["expand", "--input", path, "--kind", "remove-node", "--node", "0", "--pin", "B"],
        )
        assert code == 0
        assert out["components"][0]["thresholds"] == [1, 1]
        assert out["components"][0]["nodes"] == [1, 2]

    def test_remove_node_requires_flags(self, capsys, tmp_path, triangle_file):
        assert main(["expand", "--input", triangle_file, "--kind", "remove-node"]) == 2

    def test_drop_self_loops(self, capsys, tmp_path):
        path = write(
            tmp_path / "loop.json",
            {
                "n": 2,
                "weighted_edges": [[0, 1, 1]],
                "self_loops": [[0, 1]],
                "thresholds": [1, 1],
            },
        )
        code, out = run(capsys, ["expand", "--input", path, "--kind", "drop-self-loops"])
        assert code == 0
        assert out["n"] == 4
        assert out["self_loops"] == []

    def test_unit_weights(self, capsys, tmp_path):
        path = write(
            tmp_path / "w2.json",
            {"n": 2, "weighted_edges": [[0, 1, 2]], "self_loops": [], "thresholds": [1, 1]},
        )
        code, out = run(capsys, ["expand", "--input", path, "--kind", "unit-weights"])
        assert code == 0
        assert out["n"] == 4
        assert all(w in (-1, 1) for _, _, w in out["weighted_edges"])

    @pytest.mark.parametrize("kind", ["unit-weights", "drop-self-loops"])
    def test_unit_weighted_file_keeps_the_weighted_format(self, capsys, tmp_path, kind):
        path = write(
            tmp_path / "w1.json",
            {"n": 3, "weighted_edges": [[0, 1, 1], [1, 2, 1]], "self_loops": [],
             "thresholds": [1, 1, 1]},
        )
        code, out = run(capsys, ["expand", "--input", path, "--kind", kind])
        assert code == 0
        assert "weighted_edges" in out and "edges" not in out and out["self_loops"] == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate"],
            ["resilience", "--K", "1", "--mode", "brute"],
            ["resilience", "--K", "1", "--mode", "greedy"],
            ["resilience", "--K", "1", "--mode", "closed-form"],
            ["expand", "--kind", "bipartite"],
            ["expand", "--kind", "symmetric"],
            ["expand", "--kind", "remove-node", "--node", "0", "--pin", "B"],
        ],
        ids=["enumerate", "brute", "greedy", "closed-form", "bipartite", "symmetric",
             "remove-node"],
    )
    def test_weighted_file_rejected_where_unit_weights_are_needed(self, capsys, tmp_path, argv):
        # a weighted path whose weights are all 1 is still a weighted instance
        path = write(
            tmp_path / "wpath.json",
            {"n": 3, "weighted_edges": [[0, 1, 1], [1, 2, 1]], "thresholds": [1, 1, 1]},
        )
        assert main([argv[0], "--input", path, *argv[1:]]) == 2
        assert "needs an unweighted instance" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["unit-weights", "drop-self-loops"])
    def test_unweighted_file_rejected_by_weighted_kinds(self, capsys, triangle_file, kind):
        assert main(["expand", "--input", triangle_file, "--kind", kind]) == 2
        assert "needs a weighted instance" in capsys.readouterr().err


class TestReduce:
    def test_fix_with_verify(self, capsys, tmp_path):
        path = write(
            tmp_path / "f.json", {"variant": "monotone-2dnf", "n": 2, "clauses": [[1, 2]]}
        )
        code, out = run(capsys, ["reduce", "--formula", path, "--kind", "fix", "--verify"])
        assert code == 0
        assert out["n"] == 18
        assert out["verification"] == {
            "fixed_points": 18,
            "match": True,
            "oracle_sat": 1,
            "recovered_nsat": 3,
            "recovered_sat": 1,
        }

    def test_pred_with_verify(self, capsys, tmp_path):
        path = write(
            tmp_path / "f3.json", {"variant": "3cnf", "n": 1, "clauses": [[1], [-1]]}
        )
        code, out = run(capsys, ["reduce", "--formula", path, "--kind", "pred", "--verify"])
        assert code == 0
        assert out["verification"] == {"match": True, "reachable": False, "satisfiable": False}

    def test_reachable_pred_discrepancy_notice(self, capsys, tmp_path):
        path = write(
            tmp_path / "f2.json", {"variant": "monotone-2cnf", "n": 2, "clauses": [[1, 2]]}
        )
        code, out = run(
            capsys, ["reduce", "--formula", path, "--kind", "reachable-pred", "--verify"]
        )
        assert code == 0
        assert out["claimed_predecessors"] == 3
        assert out["measured_predecessors"] == 9
        assert "discrepancy" in out

    def test_bad_formula_exit(self, capsys, tmp_path):
        path = write(tmp_path / "bad.json", {"variant": "monotone-2dnf", "n": 3, "clauses": [[1, 2]]})
        assert main(["reduce", "--formula", path, "--kind", "fix"]) == 2

    def test_non_integer_formula_exit(self, capsys, tmp_path):
        path = write(tmp_path / "bad.json", {"variant": "3cnf", "n": 2.9, "clauses": [[1.7, True]]})
        assert main(["reduce", "--formula", path, "--kind", "pred"]) == 2
        assert "must be" in capsys.readouterr().err


class TestResilience:
    def test_brute_star(self, capsys, tmp_path):
        path = write(
            tmp_path / "star.json",
            {"n": 4, "edges": [[0, 1], [0, 2], [0, 3]], "thresholds": [1, 1, 1, 1]},
        )
        code, out = run(capsys, ["resilience", "--input", path, "--K", "2", "--mode", "brute"])
        assert code == 0
        assert out["mu"] == [1, 1]
        assert out["witness_q"][0] == [1, 1]

    def test_closed_form_family_detection(self, capsys, four_cycle_file):
        code, out = run(
            capsys, ["resilience", "--input", four_cycle_file, "--K", "2", "--mode", "closed-form"]
        )
        assert code == 0
        assert out["family"] == "cycle"
        assert out["mu"] == [2, 1]

    def test_greedy(self, capsys, four_cycle_file):
        code, out = run(capsys, ["resilience", "--input", four_cycle_file, "--mode", "greedy", "--K", "4"])
        assert code == 0
        assert out["l1"] == [2, 1]

    def test_non_integer_type_pairs_exit(self, capsys, tmp_path):
        for i, pair in enumerate([["1", 2], [True, 2], [1, 0]]):
            path = write(
                tmp_path / f"types{i}.json",
                {"n": 3, "edges": [[0, 1], [1, 2]], "types": [pair, [1, 2], [1, 1]]},
            )
            assert main(["resilience", "--input", path, "--K", "1", "--mode", "brute"]) == 2
            assert "must be" in capsys.readouterr().err

    def test_closed_form_rejects_odd_graph(self, capsys, tmp_path):
        path = write(
            tmp_path / "kite.json",
            {"n": 4, "edges": [[0, 1], [1, 2], [0, 2], [2, 3]], "thresholds": [1, 1, 1, 1]},
        )
        assert main(["resilience", "--input", path, "--K", "1", "--mode", "closed-form"]) == 2


class TestVerify:
    def test_verify_passes_and_prints_table(self, capsys):
        code = main(["verify", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 19
        assert all(l.startswith("PASS") for l in lines)

    def test_verify_honours_guard(self, capsys):
        # the suites' 2^n scans run under --guard-n, so a tiny guard fails them
        assert main(["verify", "--guard-n", "3"]) == 4
        out = capsys.readouterr().out
        assert "FAIL  cycle-length-bound  (n = 4 exceeds the 2^n scan guard 3)" in out
        assert "FAIL  pred-gadget" in out
        assert "PASS  type-threshold-equivalence" in out

    def test_verify_failure_exits_4(self, capsys, monkeypatch):
        from threshold_lab import verify as verify_mod

        monkeypatch.setattr(
            verify_mod, "run_all", lambda seed=0, guard_n=24: [("stub", False, "boom")]
        )
        assert main(["verify"]) == 4
        assert "FAIL  stub" in capsys.readouterr().out


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--input", "x.json", "--initial", "B", "--seed", "1"],
            ["simulate", "--input", "x.json", "--initial", "B", "--guard-n", "3"],
            ["enumerate", "--input", "x.json", "--max-states", "5"],
            ["enumerate", "--input", "x.json", "--seed", "1"],
            ["expand", "--input", "x.json", "--kind", "bipartite", "--guard-n", "3"],
            ["reduce", "--formula", "f.json", "--kind", "fix", "--seed", "1"],
            ["reduce", "--formula", "f.json", "--kind", "fix", "--max-states", "5"],
            ["resilience", "--input", "x.json", "--K", "1", "--guard-n", "3"],
            ["resilience", "--input", "x.json", "--K", "1", "--seed", "1"],
            ["verify", "--max-states", "5"],
        ],
    )
    def test_flag_only_where_it_is_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestDeterminism:
    def test_byte_identical_output(self, capsys, triangle_file):
        main(["expand", "--input", triangle_file, "--kind", "symmetric"])
        first = capsys.readouterr().out
        main(["expand", "--input", triangle_file, "--kind", "symmetric"])
        assert capsys.readouterr().out == first

    def test_missing_file_is_input_error(self, capsys):
        assert main(["enumerate", "--input", "/nonexistent.json"]) == 2


def test_benchmark_input_loader_runs(tmp_path):
    """perfbench/load_inputs.py imports library names by name; a rename
    must fail here, not only in the benchmark."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    files = [
        write(tmp_path / "t.json", {"n": 2, "edges": [[0, 1]], "thresholds": [1, 1]}),
        write(tmp_path / "q.json", {"n": 2, "edges": [[0, 1]], "types": [[1, 2], [0, 1]]}),
        write(tmp_path / "w.json", {"n": 2, "weighted_edges": [[0, 1, -2]],
                                    "self_loops": [[1, 3]], "thresholds": [0, -1]}),
        write(tmp_path / "f.json", {"variant": "monotone-2dnf", "n": 2, "clauses": [[1, 2]]}),
    ]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "load_inputs.py"), *files],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
