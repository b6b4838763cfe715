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

    def test_types_file_is_checked_once(self, capsys, tmp_path, monkeypatch):
        import threshold_lab.graph_core as graph_core

        calls = []
        validate = graph_core.validate_types
        monkeypatch.setattr(graph_core, "validate_types",
                            lambda g, q: calls.append(q) or validate(g, q))
        path = write(tmp_path / "types.json",
                     {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "types": [[2, 5], [2, 5], [9, 10]]})
        for argv in (["simulate", "--input", path, "--initial", "BBW"],
                     ["enumerate", "--input", path],
                     ["expand", "--input", path, "--kind", "bipartite"],
                     ["resilience", "--input", path, "--K", "1"]):
            calls.clear()
            assert main(argv) == 0, argv
            assert len(calls) == 1, argv
        capsys.readouterr()

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
            format_profile, instance_from_dict, limit_cycle, parse_profile, step_weighted,
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

    def test_initial_profile_from_a_file(self, capsys, tmp_path, four_cycle_file):
        # @PATH reads the same B/W text, with one trailing newline allowed
        assert main(["simulate", "--input", four_cycle_file, "--initial", "BWWW"]) == 0
        expected = capsys.readouterr().out
        for name, text in (("bare", "BWWW"), ("newline", "BWWW\n")):
            (tmp_path / name).write_text(text)
            initial = f"@{tmp_path / name}"
            assert main(["simulate", "--input", four_cycle_file, "--initial", initial]) == 0
            assert capsys.readouterr().out == expected
        # a second newline is profile text, and a missing file is an input error
        (tmp_path / "two").write_text("BWWW\n\n")
        for path in (tmp_path / "two", tmp_path / "missing"):
            assert main(["simulate", "--input", four_cycle_file, "--initial", f"@{path}"]) == 2
            assert capsys.readouterr().out == ""

    def test_start_past_the_argument_limit(self, capsys, tmp_path):
        # 131,073 nodes need a 131,073-byte profile, past the 131,072 bytes
        # one command-line argument holds; from B then all W on a path with
        # k = 1, the alternating front reaches the far end after n - 2 steps
        n = 131_073
        path = write(tmp_path / "path.json",
                     {"n": n, "edges": [[i, i + 1] for i in range(n - 1)], "thresholds": [1] * n})
        start = tmp_path / "start"
        start.write_text("B" + "W" * (n - 1) + "\n")
        code, out = run(capsys, ["simulate", "--input", path, "--initial", f"@{start}"])
        assert code == 0
        assert (out["transient"], out["cycle_length"]) == (n - 2, 2)


class TestEnumerate:
    def test_four_cycle_counts(self, capsys, four_cycle_file):
        code, out = run(capsys, ["enumerate", "--input", four_cycle_file])
        assert code == 0
        assert out == {"cycle_classes": 3, "fixed_points": 2, "two_cycles": 1}

    def test_guard_exit(self, capsys, four_cycle_file):
        assert main(["enumerate", "--input", four_cycle_file, "--guard-n", "3"]) == 3

    def test_past_the_default_guard_exits_3_before_counting(self, capsys, tmp_path, monkeypatch):
        # the census counts without a scan, but the scan guard still comes
        # first, so the exit codes stay those of the scan
        import threshold_lab.enumeration as en

        def unreachable(*args):
            raise AssertionError("the census counted past the scan guard")

        monkeypatch.delenv("THRESHOLD_LAB_GUARD_N", raising=False)
        monkeypatch.setattr(en, "_count_fixed_points", unreachable)
        path = write(tmp_path / "p25.json",
                     {"n": 25, "edges": [[i, i + 1] for i in range(24)], "thresholds": [1] * 25})
        assert main(["enumerate", "--input", path]) == 3
        assert capsys.readouterr().err == "error: n = 25 exceeds the 2^n scan guard 24\n"

    def test_guard_env_override(self, capsys, four_cycle_file, monkeypatch):
        monkeypatch.setenv("THRESHOLD_LAB_GUARD_N", "3")
        assert main(["enumerate", "--input", four_cycle_file]) == 3
        monkeypatch.setenv("THRESHOLD_LAB_GUARD_N", "24")
        assert main(["enumerate", "--input", four_cycle_file]) == 0

    def test_bad_guard_env_is_input_error(self, capsys, four_cycle_file, monkeypatch):
        monkeypatch.setenv("THRESHOLD_LAB_GUARD_N", "abc")
        assert main(["enumerate", "--input", four_cycle_file]) == 2
        assert "THRESHOLD_LAB_GUARD_N" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1_0", " 1_0 ", " 10", "+10", "\u0661\u0660"])
    def test_guard_env_takes_plain_decimals_only(self, capsys, four_cycle_file, monkeypatch,
                                                 value):
        # int() reads each of these as 10
        monkeypatch.setenv("THRESHOLD_LAB_GUARD_N", value)
        assert main(["enumerate", "--input", four_cycle_file]) == 2
        assert (f"THRESHOLD_LAB_GUARD_N must be an integer, got {value!r}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["enumerate", "reduce"])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_non_positive_guard_names_its_source(self, capsys, four_cycle_file, tmp_path,
                                                 monkeypatch, command, value):
        if command == "enumerate":
            argv = [command, "--input", four_cycle_file]
        else:
            path = write(tmp_path / "f.json",
                         {"variant": "monotone-2dnf", "n": 2, "clauses": [[1, 2]]})
            argv = [command, "--formula", path, "--kind", "fix", "--verify"]
        monkeypatch.delenv("THRESHOLD_LAB_GUARD_N", raising=False)
        assert main(argv + ["--guard-n", value]) == 2
        assert capsys.readouterr().err == f"error: --guard-n must be positive, got {value}\n"
        monkeypatch.setenv("THRESHOLD_LAB_GUARD_N", value)
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: THRESHOLD_LAB_GUARD_N must be positive, got {value}\n")

    @pytest.mark.parametrize("value", ["1_0", " 10", "10 ", "+10", "\u0661\u0660"])
    def test_guard_flag_takes_plain_decimals_only(self, capsys, four_cycle_file, value):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--input", four_cycle_file, "--guard-n", value])
        assert exc.value.code == 2
        assert f"argument --guard-n: invalid int value: {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1_0", " 1_0 ", "+3", "\u0663"])
    @pytest.mark.parametrize("argv", [
        ["resilience", "--K"],
        ["simulate", "--initial", "BWBW", "--max-states"],
        ["expand", "--kind", "remove-node", "--pin", "B", "--node"],
        ["verify", "--seed"],
    ], ids=["K", "max-states", "node", "seed"])
    def test_integer_options_take_plain_decimals_only(self, capsys, four_cycle_file, argv,
                                                      value):
        # int() reads each of these as 10 or 3
        if argv[0] != "verify":
            argv = argv[:1] + ["--input", four_cycle_file] + argv[1:]
        with pytest.raises(SystemExit) as exc:
            main(argv + [value])
        assert exc.value.code == 2
        assert f"argument {argv[-1]}: invalid int value: {value!r}" in capsys.readouterr().err

    def test_hard_cap_beats_guard_env(self, capsys, tmp_path, monkeypatch):
        import threshold_lab.enumeration as en

        def unreachable(*args):
            raise AssertionError("the scan started past the hard cap")

        monkeypatch.setattr(en, "column_blocks", unreachable)
        monkeypatch.setattr(en, "compile_kernel", unreachable)
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

    def test_huge_edgeless_instance_is_input_error(self, capsys, tmp_path):
        path = write(tmp_path / "big.json", {"n": 300000, "edges": [], "thresholds": [0]})
        assert main(["enumerate", "--input", path]) == 2
        assert "node 1 unreachable" in capsys.readouterr().err


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
        # a self-loop keeps the doubling of drop-self-loops connected; the
        # unit-weight blowup needs a loop-free instance
        loops = [[1, 1]] if kind == "drop-self-loops" else []
        path = write(
            tmp_path / "w1.json",
            {"n": 3, "weighted_edges": [[0, 1, 1], [1, 2, 1]], "self_loops": loops,
             "thresholds": [1, 1, 1]},
        )
        code, out = run(capsys, ["expand", "--input", path, "--kind", kind])
        assert code == 0
        assert "weighted_edges" in out and "edges" not in out and out["self_loops"] == []

    @pytest.mark.parametrize("kind, data, lost", [
        ("bipartite", {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]],
                       "thresholds": [1, 1, 1, 1]}, 1),
        ("drop-self-loops", {"n": 2, "weighted_edges": [[0, 1, 2]], "thresholds": [1, 1]}, 2),
    ])
    def test_split_expansion_is_refused(self, capsys, tmp_path, kind, data, lost):
        # the doubling of a bipartite or loop-free instance is two copies
        # of it; the loader would refuse such a file, so none is written
        path = write(tmp_path / "inst.json", data)
        assert main(["expand", "--input", path, "--kind", kind]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: the {kind} expansion of this instance splits into two components "
            f"(graph is not connected: node {lost} unreachable from node 0)\n")

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

    def test_reachable_pred_guard_before_build(self, capsys, tmp_path):
        # 200,000 declared variables, one used: the 2^n scans are refused
        # before any of the 200,002 gadget nodes is built. The modules are
        # imported first, so the bound measures the refused build alone.
        import tracemalloc

        import threshold_lab.enumeration  # noqa: F401
        import threshold_lab.reductions  # noqa: F401

        path = write(tmp_path / "wide.json",
                     {"variant": "monotone-2cnf", "n": 200000, "clauses": [[1]]})
        tracemalloc.start()
        try:
            code = main(["reduce", "--formula", path, "--kind", "reachable-pred", "--verify"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert "exceeds 32" in capsys.readouterr().err
        assert peak < 1 << 20

    def test_pred_guard_before_build(self, capsys, tmp_path):
        # 100,000 declared variables, one clause: the 400,002-node gadget
        # is refused before it is built; the modules are imported first
        import tracemalloc

        import threshold_lab.enumeration  # noqa: F401
        import threshold_lab.reductions  # noqa: F401

        path = write(tmp_path / "wide.json", {"variant": "3cnf", "n": 100000, "clauses": [[1, 2, 3]]})
        tracemalloc.start()
        try:
            code = main(["reduce", "--formula", path, "--kind", "pred", "--verify"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert "n = 400002 exceeds 32" in capsys.readouterr().err
        assert peak < 1 << 20
        # a formula of the wrong variant is still an input error
        path = write(tmp_path / "wide2.json", {"variant": "monotone-2cnf", "n": 100000, "clauses": [[1]]})
        assert main(["reduce", "--formula", path, "--kind", "pred", "--verify"]) == 2
        assert "needs a 3cnf formula" in capsys.readouterr().err

    def test_pred_node_cap_before_build(self, capsys, tmp_path):
        # without --verify no scan guard applies: this 56-byte file built
        # a 1,600,002-node gadget and printed 137 MB; the node cap refuses
        # it before any node is built. Both modules that reduce binds are
        # imported first, so the bound holds when this test runs alone.
        import time
        import tracemalloc

        import threshold_lab.enumeration  # noqa: F401
        import threshold_lab.reductions  # noqa: F401

        path = write(tmp_path / "wide.json", {"variant": "3cnf", "n": 400000, "clauses": [[1, 2, 3]]})
        assert (tmp_path / "wide.json").stat().st_size == 56
        t0 = time.perf_counter()
        tracemalloc.start()
        try:
            code = main(["reduce", "--formula", path, "--kind", "pred"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        elapsed = time.perf_counter() - t0
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: pred gadget needs 1600002 nodes, guard is 100000\n"
        assert peak < 1 << 20
        assert elapsed < 1.0

    def test_fix_verify_guard_before_counter(self, capsys, tmp_path, monkeypatch):
        # the cycle 2-DNF on 28 variables gives a 339-node gadget with
        # about 2^28 fixed points; the 2^28 model-count scan is refused
        # before the counter starts
        import time

        import threshold_lab.cli as cli

        def unreachable(*args):
            raise AssertionError("the fixed-point counter ran before the size check")

        monkeypatch.setattr(cli, "count_fixed_points_backtracking", unreachable)
        clauses = [[i + 1, (i + 1) % 28 + 1] for i in range(28)]
        path = write(tmp_path / "cycle.json",
                     {"variant": "monotone-2dnf", "n": 28, "clauses": clauses})
        t0 = time.perf_counter()
        code = main(["reduce", "--formula", path, "--kind", "fix", "--verify",
                     "--guard-n", "20"])
        elapsed = time.perf_counter() - t0
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "n = 28 exceeds the 2^n scan guard 20" in captured.err
        assert elapsed < 1.0

    def test_fix_verify_guard_before_build(self, capsys, tmp_path, monkeypatch):
        # the chain 2-DNF on 5,000 variables would build a 60,003-node
        # gadget; its 2^5000 model count is refused before the build
        import threshold_lab.cli as cli

        clauses = [[i, i + 1] for i in range(1, 5000)]
        path = write(tmp_path / "chain.json",
                     {"variant": "monotone-2dnf", "n": 5000, "clauses": clauses})
        # a formula of the wrong variant is still refused by the builder
        wrong = write(tmp_path / "wrong.json", {"variant": "3cnf", "n": 5000, "clauses": [[1, 2, 3]]})
        assert main(["reduce", "--formula", wrong, "--kind", "fix", "--verify"]) == 2
        assert "needs a monotone-2dnf formula" in capsys.readouterr().err

        def unreachable(f):
            raise AssertionError("the gadget was built before the size check")

        monkeypatch.setattr(cli, "fix_reduction", unreachable)
        code = main(["reduce", "--formula", path, "--kind", "fix", "--verify"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "n = 5000 exceeds 32" in captured.err

    def test_fix_verify_oracle_scans_under_the_guard_flag(self, capsys, tmp_path, monkeypatch):
        # --guard-n 25 admits the 25-variable model count, so the oracle
        # must run under that guard and not the default 24
        import threshold_lab.cli as cli

        seen = {}

        def count_sat(f, **kwargs):
            seen.update(kwargs)
            return 1

        monkeypatch.setattr(cli, "count_fixed_points_backtracking", lambda g, k: 0)
        monkeypatch.setattr(cli, "recover_sat_count", lambda fcount, n: (1, 0))
        monkeypatch.setattr(cli, "count_sat", count_sat)
        clauses = [[i + 1, (i + 1) % 25 + 1] for i in range(25)]
        path = write(tmp_path / "cycle.json",
                     {"variant": "monotone-2dnf", "n": 25, "clauses": clauses})
        code = main(["reduce", "--formula", path, "--kind", "fix", "--verify",
                     "--guard-n", "25"])
        assert code == 0, capsys.readouterr().err
        assert seen == {"guard_n": 25}
        assert json.loads(capsys.readouterr().out)["verification"]["match"] is True

    def test_inconsistent_count_is_an_invariant_violation(self, capsys, tmp_path, monkeypatch):
        # a fixed-point count with no (#sat, #nsat) preimage signals a
        # gadget or counter bug, not bad input
        import threshold_lab.cli as cli

        monkeypatch.setattr(cli, "count_fixed_points_backtracking", lambda g, k: 0)
        path = write(tmp_path / "f.json", {"variant": "monotone-2dnf", "n": 2, "clauses": [[1, 2]]})
        assert main(["reduce", "--formula", path, "--kind", "fix", "--verify"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: F = 0 has no integral solution for n = 2\n"

    def test_bad_formula_exit(self, capsys, tmp_path):
        path = write(tmp_path / "bad.json", {"variant": "monotone-2dnf", "n": 3, "clauses": [[1, 2]]})
        assert main(["reduce", "--formula", path, "--kind", "fix"]) == 2

    def test_non_integer_formula_exit(self, capsys, tmp_path):
        path = write(tmp_path / "bad.json", {"variant": "3cnf", "n": 2.9, "clauses": [[1.7, True]]})
        assert main(["reduce", "--formula", path, "--kind", "pred"]) == 2
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["fix", "pred", "reachable-pred"])
    def test_pre_build_scan_size_is_the_builders(self, capsys, tmp_path, monkeypatch, kind, seed):
        # _cmd_reduce sizes its largest 2^n scan before the build; that
        # size must be the built gadget's n, or num_vars for the model
        # count that fix --verify runs (its gadget is counted by
        # backtracking, not scanned)
        import random

        import threshold_lab.cli as cli
        from threshold_lab import reductions

        rng = random.Random(seed)
        n = rng.randint(2, 4)
        variables = range(1, n + 1)
        if kind == "fix":
            # a chain over a shuffled order uses every variable
            order = rng.sample(variables, n)
            clauses = [order[i:i + 2] for i in range(n - 1)]
            clauses += [rng.sample(variables, 2) for _ in range(rng.randint(0, 2))]
            variant, builder = "monotone-2dnf", "fix_reduction"
        elif kind == "pred":
            clauses = [[v * rng.choice((1, -1)) for v in rng.sample(variables, rng.randint(1, min(3, n)))]
                       for _ in range(rng.randint(1, 3))]
            variant, builder = "3cnf", "pred_reduction"
        else:
            clauses = [rng.sample(variables, rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
            variant, builder = "monotone-2cnf", "reachable_pred_reduction"
        data = {"variant": variant, "n": n, "clauses": clauses}
        path = write(tmp_path / "f.json", data)
        f = reductions.formula_from_dict(data)
        size = n if kind == "fix" else getattr(reductions, builder)(f).graph.n

        def unreachable(f):
            raise AssertionError("the gadget was built before the size check")

        argv = ["reduce", "--formula", path, "--kind", kind, "--verify", "--guard-n"]
        monkeypatch.setattr(cli, builder, unreachable)
        assert main(argv + [str(size - 1)]) == 3
        assert f"n = {size} exceeds the 2^n scan guard {size - 1}" in capsys.readouterr().err
        monkeypatch.setattr(cli, builder, getattr(reductions, builder))
        assert main(argv + [str(size)]) == 0, capsys.readouterr().err


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

    def test_brute_fifteen_cycle_at_budget_four(self, capsys, tmp_path):
        # a 3^15 grid with 1,941 seeds: the closed form (15 - 1) / 2
        n = 15
        path = write(
            tmp_path / "c15.json",
            {"n": n, "edges": [[i, (i + 1) % n] for i in range(n)], "thresholds": [1] * n},
        )
        code, out = run(capsys, ["resilience", "--input", path, "--K", "4", "--mode", "brute"])
        assert code == 0
        assert out["mu"] == [7, 1]

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

    @pytest.mark.parametrize("n, edges, K, family, mu", [
        (4, [[0, 1], [0, 2], [0, 3]], 2, "star", [1, 1]),
        (4, [[i, j] for i in range(4) for j in range(i + 1, 4)], 2, "complete", [5, 3]),
        (5, [[i, i + 1] for i in range(4)], 1, "path", [3, 2]),
    ])
    def test_closed_form_families(self, capsys, tmp_path, n, edges, K, family, mu):
        path = write(tmp_path / "g.json", {"n": n, "edges": edges, "thresholds": [1] * n})
        code, out = run(capsys, ["resilience", "--input", path, "--K", str(K),
                                 "--mode", "closed-form"])
        assert code == 0
        assert (out["family"], out["mu"]) == (family, mu)

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
        assert len(lines) == 20
        assert all(l.startswith("PASS") for l in lines)

    def test_verify_takes_no_scan_guard(self, capsys, monkeypatch):
        # every suite scans at most 15 nodes, under the default guard, so
        # verify reads neither --guard-n nor THRESHOLD_LAB_GUARD_N
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--guard-n", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --guard-n 3" in capsys.readouterr().err
        for value in ("3", "abc"):
            monkeypatch.setenv("THRESHOLD_LAB_GUARD_N", value)
            assert main(["verify"]) == 0
            assert capsys.readouterr().out.endswith("20/20 invariant suites passed\n")

    def test_verify_failure_exits_4(self, capsys, monkeypatch):
        from threshold_lab import verify as verify_mod

        monkeypatch.setattr(
            verify_mod, "run_all", lambda seed=0, guard_n=24: [("stub", False, "boom")]
        )
        assert main(["verify"]) == 4
        assert "FAIL  stub" in capsys.readouterr().out


C4 = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]], "thresholds": [1, 1, 1, 1]}
K9 = {"n": 9, "edges": [[i, j] for i in range(9) for j in range(i + 1, 9)], "thresholds": [1] * 9}


def types_file(types):
    return {"n": 3, "edges": [[0, 1], [1, 2]], "types": types}


def formula(**kw):
    return dict({"variant": "3cnf", "n": 3, "clauses": [[1, -2, 3]]}, **kw)


class TestInputErrors:
    """Each rejected flag or file exits 2 with its own message."""

    @pytest.mark.parametrize("data, argv, message", [
        (C4, ["simulate", "--initial", "BWBW", "--max-states", "0"],
         "--max-states must be >= 1, got 0"),
        (C4, ["simulate", "--initial", "BWB"], "profile string has length 3, expected 4"),
        (C4, ["enumerate", "--guard-n", "0"], "--guard-n must be positive, got 0"),
        (C4, ["resilience"], "resilience needs --K"),
        # K_9's grid is past its guard; the CLI's budget check, with the
        # search's own message, comes before the search and its exit 3
        (K9, ["resilience", "--K", "0"], "budget K must be >= 1, got 0"),
        (C4, ["resilience", "--K", "0", "--mode", "closed-form"], "budget K must be >= 1, got 0"),
        ({"edges": [[0, 1]], "thresholds": [1, 1]}, ["enumerate"], "malformed instance: 'n'"),
        (types_file([[3, 2], [1, 2], [1, 1]]), ["enumerate"], "type value 3/2 outside [0, 1]"),
        (types_file([[1, 2], [1, 1]]), ["enumerate"], "type vector has length 2, expected 3"),
        (C4, ["resilience", "--K", "0", "--mode", "greedy"], "budget K must be >= 1, got 0"),
        ({"n": 2, "edges": [[0, 1]], "self_loops": [[0, 5]], "thresholds": [1, 1]},
         ["simulate", "--initial", "BW"], "instance has both 'edges' and 'self_loops'"),
        # each of these two printed BB and exited 0: the misspelt key was
        # read as absent, and null as all-zero thresholds
        ({"n": 2, "weighted_edges": [[0, 1, 1]], "threshold": [5, 5]},
         ["simulate", "--initial", "BW"], "instance has unknown key 'threshold'"),
        ({"n": 2, "weighted_edges": [[0, 1, 1]], "thresholds": None},
         ["simulate", "--initial", "BW"], "thresholds must be a list, got None"),
        # each of these exited 0 and dropped the options it did not read
        (C4, ["expand", "--kind", "symmetric", "--node", "1", "--pin", "B"],
         "--node and --pin apply only to --kind remove-node"),
        (C4, ["expand", "--kind", "symmetric", "--node", "1"],
         "--node and --pin apply only to --kind remove-node"),
        (C4, ["expand", "--kind", "bipartite", "--pin", "W"],
         "--node and --pin apply only to --kind remove-node"),
    ])
    def test_instance_flags_and_files(self, capsys, tmp_path, data, argv, message):
        path = write(tmp_path / "inst.json", data)
        assert main(argv[:1] + ["--input", path] + argv[1:]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("data, kind, message", [
        (formula(variant="4cnf"), "pred", "unknown formula variant '4cnf'"),
        (formula(n=0), "pred", "formula needs at least one variable"),
        (formula(clauses=[]), "pred", "formula needs at least one clause"),
        (formula(clauses=[[]]), "pred", "empty clause"),
        (formula(clauses=[[1, 4]]), "pred", "literal 4 out of range"),
        ({"variant": "3cnf", "n": 3}, "pred", "malformed formula: 'clauses'"),
        (formula(), "reachable-pred", "reachable_pred_reduction needs a monotone-2cnf formula"),
        (formula(varaint="3cnf"), "pred", "formula has unknown key 'varaint'"),
        (formula(thresholds=[1, 1, 1]), "pred", "formula has unknown key 'thresholds'"),
        (formula(variant=["3cnf"]), "pred", "formula variant must be a string, got ['3cnf']"),
        (formula(variant=3), "pred", "formula variant must be a string, got 3"),
        # matched exactly: it was case-folded through str(...).lower()
        (formula(variant="3CNF"), "pred", "unknown formula variant '3CNF'"),
    ])
    def test_formula_files(self, capsys, tmp_path, data, kind, message):
        path = write(tmp_path / "f.json", data)
        assert main(["reduce", "--formula", path, "--kind", kind]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_written_instances_load(self, capsys, tmp_path):
        # every instance the package writes, with the keys it writes
        # beside it, is read back; so is a formula carrying those keys
        from threshold_lab.graph_core import instance_from_dict

        c4 = write(tmp_path / "c4.json", C4)
        outputs = []
        for kind, data in (("fix", {"variant": "monotone-2dnf", "n": 2, "clauses": [[1, 2]]}),
                           ("pred", formula()),
                           ("reachable-pred", {"variant": "monotone-2cnf", "n": 2,
                                               "clauses": [[1, 2]]})):
            path = write(tmp_path / "f.json", data)
            outputs.append(run(capsys, ["reduce", "--formula", path, "--kind", kind, "--verify"]))
            out = outputs[-1][1]
            formula_path = write(tmp_path / "fw.json", dict(
                data, **{k: out[k] for k in out if k not in ("n", "edges", "thresholds")}))
            assert run(capsys, ["reduce", "--formula", formula_path, "--kind", kind])[0] == 0
        # the bipartite double cover of an odd cycle is connected
        triangle = write(tmp_path / "k3.json",
                         {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "thresholds": [1, 1, 2]})
        outputs.append(run(capsys, ["expand", "--input", triangle, "--kind", "bipartite"]))
        code, out = run(capsys, ["expand", "--input", c4, "--kind", "remove-node",
                                 "--node", "0", "--pin", "B"])
        outputs += [(code, c) for c in out["components"]]
        assert {k for _, out in outputs for k in out} >= {
            "node_map", "nodes", "labels", "target", "verification",
            "claimed_predecessors", "measured_predecessors"}
        for code, out in outputs:
            assert code == 0
            g, k = instance_from_dict(out)
            assert (g.n, list(k)) == (out["n"], out["thresholds"])


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--input"],
            ["simulate", "--initial", "BW", "--input"],
            ["resilience", "--K", "1", "--input"],
            ["expand", "--kind", "bipartite", "--input"],
            ["reduce", "--kind", "fix", "--formula"],
        ],
        ids=["enumerate", "simulate", "resilience", "expand", "reduce"],
    )
    def test_deeply_nested_file_is_input_error(self, capsys, tmp_path, argv):
        # deep enough that the JSON decoder runs out of recursion depth
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main([*argv, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot decode {path} as JSON: maximum recursion depth")
        assert "Traceback" not in err


class TestEntryPoint:
    """``python -m threshold_lab`` and the ``threshold-lab`` script run
    ``threshold_lab.__main__.main``: ``cli.main``, then ``gc.freeze()``,
    with a closed stdout turned into a quiet exit 1."""

    @staticmethod
    def entry(argv, env=None, **kwargs):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ if env is None else env, PYTHONPATH=str(src))
        return subprocess.run([sys.executable, "-m", "threshold_lab", *argv], env=env,
                              timeout=120, **kwargs)

    @pytest.mark.parametrize("job", ["enumerate", "missing-file", "guard", "help", "unknown"])
    def test_same_outcome_as_in_process_main(self, capsys, tmp_path, monkeypatch,
                                             four_cycle_file, job):
        # a 26-node path is past the default scan guard of 24 nodes
        path = write(tmp_path / "p26.json", {"n": 26, "edges": [[i, i + 1] for i in range(25)],
                                             "thresholds": [1] * 26})
        argv, code = {
            "enumerate": (["enumerate", "--input", four_cycle_file], 0),
            "missing-file": (["enumerate", "--input", str(tmp_path / "none.json")], 2),
            "guard": (["enumerate", "--input", path], 3),
            "help": (["--help"], 0),
            "unknown": (["no-such-command"], 2),
        }[job]
        # argparse wraps help at the terminal width, which COLUMNS sets
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.delenv("THRESHOLD_LAB_GUARD_N", raising=False)
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
        captured = capsys.readouterr()
        proc = self.entry(argv, capture_output=True)
        assert got == code
        assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (
            code, captured.out.encode(), captured.err)
        assert proc.stdout if job in ("enumerate", "help") else proc.stderr

    def test_the_entry_freezes_and_cli_main_does_not(self, four_cycle_file):
        import os
        import subprocess
        import sys
        from pathlib import Path

        probe = ("import contextlib, gc, io, sys\n"
                 "from threshold_lab import cli\n"
                 "from threshold_lab.__main__ import main\n"
                 "sys.argv[1:] = ['enumerate', '--input', sys.argv[1]]\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    codes = [cli.main(), gc.get_freeze_count(), main()]\n"
                 "print(*codes, gc.get_freeze_count() > 0)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-c", probe, four_cycle_file], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.stdout.split() == ["0", "0", "0", "True"], proc.stderr

    def test_the_script_runs_the_entry(self):
        import importlib
        import re
        from pathlib import Path

        text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
        target = re.search(r'^threshold-lab = "(.*)"$', text, re.M).group(1)
        assert target == "threshold_lab.__main__:main"
        module, _, name = target.partition(":")
        # importing the module runs nothing; the script calls the function
        assert callable(getattr(importlib.import_module(module), name))

    @pytest.mark.parametrize("size, unbuffered", [
        ("small", False), ("small", True), ("large", False), ("large", True), ("help", False)])
    def test_closed_stdout_exits_1_quietly(self, tmp_path, triangle_file, size, unbuffered):
        # a 300-node path's symmetric expansion prints more than a pipe
        # holds, so it fails inside cli.main; the triangle's census fails
        # only when the entry point flushes, or at once when unbuffered;
        # --help leaves cli.main by SystemExit before the flush (argparse
        # itself drops the error of an unbuffered write, so that case is
        # argparse's)
        import os
        import subprocess

        path = write(tmp_path / "p300.json", {"n": 300, "edges": [[i, i + 1] for i in range(299)],
                                              "thresholds": [1] * 300})
        argv = {"small": ["enumerate", "--input", triangle_file],
                "large": ["expand", "--kind", "symmetric", "--input", path],
                "help": ["--help"]}[size]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, written = os.pipe()
        os.close(read)
        try:
            proc = self.entry(argv, env, stdout=written, stderr=subprocess.PIPE)
        finally:
            os.close(written)
        assert (proc.returncode, proc.stderr) == (1, b"")

    def test_closed_stdout_passes_through_cli_main(self, triangle_file, monkeypatch):
        class Closed:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr("sys.stdout", Closed())
        with pytest.raises(BrokenPipeError):
            main(["enumerate", "--input", triangle_file])


def test_benchmark_input_loader_runs(tmp_path):
    """perfbench/load_inputs.py imports library names by name; a rename
    must fail here, not only in the benchmark. Start-up stays lean: the
    CLI import, ``simulate`` on every rule, resilience in every mode, the
    bipartite expansion, the 2^n scans of ``enumerate`` and of ``reduce
    --verify`` of every kind, and the loader never load numpy, nor
    ``dataclasses`` and the ``inspect`` chain it imports; the CLI import
    loads no leaf module and none of the four engines, and each
    subcommand loads no engine it does not run. The trajectory engine,
    ``dynamics``, loads for ``simulate`` and, through ``expansions``,
    for ``expand``: not on the CLI import, nor for ``enumerate``,
    ``reduce`` of any kind or ``resilience`` in any mode. ``fractions``
    loads only for a types file or a resilience job: not on the CLI
    import, nor for ``enumerate``, ``reduce`` of any kind, or
    ``simulate`` on a threshold or weighted file. The loader and a bare ``formula_from_dict`` leave
    the scan engine, ``enumeration``, unloaded."""
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
        write(tmp_path / "c3.json", {"variant": "3cnf", "n": 3, "clauses": [[1, -2, 3]]}),
        write(tmp_path / "c2.json", {"variant": "monotone-2cnf", "n": 2, "clauses": [[1, 2]]}),
    ]
    star = write(tmp_path / "star.json",
                 {"n": 4, "edges": [[0, 1], [0, 2], [0, 3]], "thresholds": [1, 1, 1, 1]})
    # the bipartite double cover of an odd cycle is connected, so it loads
    triangle = write(tmp_path / "k3.json",
                     {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "thresholds": [1, 1, 2]})
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def python(*args):
        proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    lean = ("numpy", "dataclasses", "inspect")
    dynamics, enumeration, reductions, resilience = (
        f"threshold_lab.{m}" for m in ("dynamics", "enumeration", "reductions", "resilience"))
    engines = (dynamics, enumeration, reductions, resilience)
    heavy = (*lean, *engines, "fractions", "networkx", "threshold_lab.verify", "threshold_lab.expansions",
             "threshold_lab.instances")
    loaded = python("-c", f"import sys, threshold_lab.cli; "
                          f"print([m for m in {heavy!r} if m in sys.modules])")
    assert loaded.strip() == "[]"

    # (modules that must stay unloaded, whether dynamics loads, argv)
    engines_but_dynamics = (enumeration, reductions, resilience)
    runs = [((*lean, *engines_but_dynamics, *fractions), True,
             ["simulate", "--input", path, "--initial", "BW"])
            for path, fractions in zip(files[:3], (["fractions"], [], ["fractions"]))]
    runs += [((*lean, dynamics, enumeration, reductions, "threshold_lab.instances"), False,
              ["resilience", "--input", star, "--K", "1", "--mode", mode])
             for mode in ("brute", "greedy", "closed-form")]
    runs.append(((*lean, *engines_but_dynamics), True,
                 ["expand", "--input", triangle, "--kind", "bipartite"]))
    runs.append(((*lean, dynamics, reductions, resilience, "fractions"), False,
                 ["enumerate", "--input", star]))
    runs += [((*lean, dynamics, resilience, "fractions"), False,
              ["reduce", "--formula", path, "--kind", kind, "--verify"])
             for path, kind in ((files[4], "pred"), (files[5], "reachable-pred"))]
    probe = ("import contextlib, io, sys\n"
             "from threshold_lab.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = main(sys.argv[2:])\n"
             "print(code, [m for m in sys.argv[1].split(',') if m in sys.modules],\n"
             "      'threshold_lab.dynamics' in sys.modules)\n")
    for unused, loads_dynamics, argv in runs:
        out = python("-c", probe, ",".join(unused), *argv).strip()
        assert out == f"0 [] {loads_dynamics}", argv
    # the fixed-point count and the model count of a fix job are pure Python
    probe = ("import json, sys\n"
             "from threshold_lab.cli import main\n"
             "code = main(sys.argv[1:])\n"
             f"print(json.dumps([code, [m for m in {(*lean, dynamics, resilience, 'fractions')!r} "
             f"if m in sys.modules]]))\n")
    out = python("-c", probe, "reduce", "--formula", files[3], "--kind", "fix", "--verify")
    *result, flags = out.splitlines()
    assert json.loads(flags) == [0, []]
    assert json.loads("\n".join(result))["verification"] == {
        "fixed_points": 18, "match": True, "oracle_sat": 1,
        "recovered_nsat": 3, "recovered_sat": 1,
    }

    # decoding compiles no scan engine; count_sat loads it when it counts
    loader = root / "perfbench" / "load_inputs.py"
    probe = (f"import runpy, sys; sys.argv = sys.argv[1:]; "
             f"runpy.run_path(sys.argv[0], run_name='__main__'); "
             f"print([m for m in {(*lean, enumeration)!r} if m in sys.modules])")
    assert python("-c", probe, str(loader), *files).strip() == "[]"
    probe = ("import json, sys\n"
             "from threshold_lab.reductions import count_sat, formula_from_dict\n"
             "f = formula_from_dict(json.load(open(sys.argv[1])))\n"
             f"print({enumeration!r} in sys.modules, count_sat(f), {enumeration!r} in sys.modules)\n")
    assert python("-c", probe, files[3]).split() == ["False", "1", "True"]


def test_tracer_wraps_every_cli_name(tmp_path):
    """perfbench's tracer replaces library names on ``cli`` with
    ``getattr`` then ``setattr`` before ``main`` runs. In a fresh
    interpreter every wrapped name ``cli`` binds must resolve, whether
    its module is loaded yet or not, and the wrapper set on ``cli`` must
    be the function the subcommand calls; a name ``cli`` does not bind
    stays absent."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    unbound = {"weighted_graph_from_dict", "make_step", "make_step_types", "make_step_weighted",
               "types_to_thresholds"}
    files = {
        "q": write(tmp_path / "q.json", {"n": 2, "edges": [[0, 1]], "types": [[1, 2], [0, 1]]}),
        "star": write(tmp_path / "star.json",
                      {"n": 4, "edges": [[0, 1], [0, 2], [0, 3]], "thresholds": [1, 1, 1, 1]}),
        "dnf": write(tmp_path / "f.json",
                     {"variant": "monotone-2dnf", "n": 2, "clauses": [[1, 2]]}),
        "cnf3": write(tmp_path / "c3.json",
                      {"variant": "3cnf", "n": 3, "clauses": [[1, -2, 3]]}),
        "cnf2": write(tmp_path / "c2.json",
                      {"variant": "monotone-2cnf", "n": 2, "clauses": [[1, 2]]}),
    }
    jobs = [
        ["simulate", "--input", files["q"], "--initial", "BW"],
        ["enumerate", "--input", files["star"]],
        ["reduce", "--formula", files["dnf"], "--kind", "fix", "--verify"],
        ["reduce", "--formula", files["cnf3"], "--kind", "pred", "--verify"],
        ["reduce", "--formula", files["cnf2"], "--kind", "reachable-pred", "--verify"],
        ["resilience", "--input", files["star"], "--K", "1"],
    ]
    # mode "cli" resolves each name on cli, as the tracer does; mode
    # "package" takes it from the package and sets the wrapper on a cli
    # that has not resolved it
    probe = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import tracing
import threshold_lab
import threshold_lab.cli as cli

mode, unbound, argv = sys.argv[2], set(sys.argv[3].split(",")), sys.argv[4:]
names = [name for mod, name, *_ in tracing.WRAPPED if mod == "cli"]
called, report = [], {"absent": [], "mismatch": []}

def wrap(name, fn):
    def wrapper(*args, **kwargs):
        called.append(name)
        return fn(*args, **kwargs)
    return wrapper

for name in names:
    if name in unbound:
        if getattr(cli, name, None) is not None:
            report["absent"].append(name)
        continue
    fn = getattr(cli if mode == "cli" else threshold_lab, name)
    if fn is not getattr(threshold_lab, name):
        report["mismatch"].append(name)
    setattr(cli, name, wrap(name, fn))
with contextlib.redirect_stdout(io.StringIO()):
    report["code"] = cli.main(argv)
report["called"] = sorted(set(called))
report["bound"] = sorted(set(names) - unbound)
print(json.dumps(report))
"""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    expected = {
        "count_fixed_points_backtracking", "count_sat", "enumerate_limits", "fix_reduction",
        "formula_from_dict", "instance_from_dict", "is_reachable", "limit_cycle",
        "parse_profile", "pred_reduction", "reachable_pred_reduction", "recover_sat_count",
        "resilience_bruteforce",
    }
    for mode in ("cli", "package"):
        called = set()
        for argv in jobs:
            proc = subprocess.run(
                [sys.executable, "-c", probe, str(root / "perfbench"), mode, ",".join(unbound),
                 *argv],
                env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            report = json.loads(proc.stdout)
            assert report["code"] == 0, (mode, argv)
            assert report["absent"] == report["mismatch"] == [], (mode, argv)
            assert set(report["bound"]) == expected
            called.update(report["called"])
        assert called == expected, mode

    import threshold_lab.cli as cli

    assert getattr(cli, "make_step", None) is None
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name


def test_cli_binds_an_engine_name_on_first_lookup(tmp_path):
    """In a fresh interpreter, where no subcommand has bound it yet,
    ``cli.count_sat`` goes through ``cli.__getattr__`` (PEP 562) and binds
    the function from ``reductions``; a wrapper then set on ``cli`` is the
    function ``reduce`` calls."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    probe = """
import contextlib, io, json, sys
import threshold_lab.cli as cli
before = ["count_sat" in vars(cli), "threshold_lab.reductions" in sys.modules]
fn = cli.count_sat
from threshold_lab import reductions
bound = fn is reductions.count_sat and vars(cli)["count_sat"] is fn
calls = []

def wrapper(f, **kwargs):
    calls.append(kwargs)
    return fn(f, **kwargs)

cli.count_sat = wrapper
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(sys.argv[1:])
print(json.dumps([before, bound, code, calls, json.loads(out.getvalue())["claimed_predecessors"]]))
"""
    path = write(tmp_path / "c2.json", {"variant": "monotone-2cnf", "n": 2, "clauses": [[1, 2]]})
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    env.pop("THRESHOLD_LAB_GUARD_N", None)
    proc = subprocess.run([sys.executable, "-c", probe, "reduce", "--formula", path,
                           "--kind", "reachable-pred"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[False, False], True, 0, [{"guard_n": 24}], 3]


def test_package_exports_resolve_lazily():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import threshold_lab

    assert len(set(threshold_lab.__all__)) == len(threshold_lab.__all__)
    for name in threshold_lab.__all__:
        assert getattr(threshold_lab, name) is not None, name
    listed = set(dir(threshold_lab))
    assert listed >= set(threshold_lab.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        threshold_lab.no_such_name
    # a fresh interpreter: the package import loads no submodule, and a
    # submodule named in the export table is an attribute of the package
    probe = ("import sys, threshold_lab as t; "
             "print(sorted(m for m in sys.modules if m.startswith('threshold_lab.')), "
             "t.resilience.__name__)")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         timeout=120, env=env)
    assert out.stdout.split() == ["[]", "threshold_lab.resilience"], out.stderr


def test_exported_records_are_tuples():
    import threshold_lab

    values = [getattr(threshold_lab, name) for name in threshold_lab.__all__]
    records = [v for v in values if isinstance(v, type) and not issubclass(v, Exception)]
    assert len(records) == 11
    assert [r.__name__ for r in records if not issubclass(r, tuple)] == []


def test_graph_rule_and_formula_are_read_only():
    from threshold_lab import MONOTONE_2DNF, Formula, Rule, build_graph

    g = build_graph(2, [(0, 1)])
    for record in (g, Rule.from_graph(g, (1, 1)), Formula(MONOTONE_2DNF, 2, ((1, 2),))):
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, 3)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 3
    masks = g.neighbor_masks
    assert masks == (0b10, 0b01)
    assert g.neighbor_masks is masks


def test_each_subcommand_name_resolves_after_its_bind():
    """Every global a ``cli._cmd_*`` function loads is bound in ``cli``
    once the engines its ``_bind`` call names are bound. Each subcommand
    runs in a fresh copy of the module, so a name left out of the
    binding, which would raise NameError only when that subcommand runs,
    fails here."""
    import builtins
    import dis
    import importlib.util
    import types

    def global_loads(code):
        names = {i.argval for i in dis.get_instructions(code) if i.opname == "LOAD_GLOBAL"}
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                names |= global_loads(const)
        return names

    spec = importlib.util.find_spec("threshold_lab.cli")
    bound = set()
    for command in ("simulate", "enumerate", "expand", "reduce", "resilience", "verify"):
        cli = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(cli)
        code = getattr(cli, f"_cmd_{command}").__code__
        ins = list(dis.get_instructions(code))
        engines = []
        for at, i in enumerate(ins):
            if i.opname == "LOAD_GLOBAL" and i.argval == "_bind":
                for arg in ins[at + 1:]:
                    if arg.opname != "LOAD_CONST":
                        break
                    engines.append(arg.argval)
        cli._bind(*engines)
        bound.update(engines)
        missing = [name for name in sorted(global_loads(code))
                   if name not in vars(cli) and not hasattr(builtins, name)]
        assert missing == [], command
    assert bound == {"dynamics", "enumeration", "reductions", "resilience"}


def test_readme_synopsis_matches_the_parser():
    """The sh block under README's ``## CLI`` lists, per subcommand, the
    parser's options and choice lists, no more and no fewer."""
    import argparse
    import re
    from pathlib import Path

    from threshold_lab.cli import build_parser

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    documented = {}
    for line in block.splitlines():
        _, command, *words = line.split()
        options = set(re.findall(r"--[\w-]+", line))
        choices = {frozenset(w.strip("[]").split("|")) for w in words if "|" in w}
        documented[command] = (options, choices)
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {}
    for command, p in sub.choices.items():
        actions = [a for a in p._actions if a.option_strings != ["-h", "--help"]]
        parsed[command] = ({s for a in actions for s in a.option_strings},
                           {frozenset(a.choices) for a in actions if a.choices})
    assert documented == parsed
