"""Every memory-bound test passes when it runs alone.

A test that bounds a call's memory with ``tracemalloc`` also counts any
module first imported inside its traced window. Within the suite, an
earlier test has often loaded that module already, which hides the
import; so each such test runs here in a fresh pytest process of its
own, as it does when it is selected alone.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _starts_tracemalloc(fn: ast.FunctionDef) -> bool:
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "start"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "tracemalloc"
        for node in ast.walk(fn)
    )


def memory_bound_tests() -> list[str]:
    """Node ids of the test functions, at module level or in a class,
    that call ``tracemalloc.start``."""
    ids = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        module = f"tests/{path.name}"
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(top, ast.ClassDef):
                members = [(f"{module}::{top.name}", node) for node in top.body]
            else:
                members = [(module, top)]
            ids += [f"{owner}::{fn.name}" for owner, fn in members
                    if isinstance(fn, ast.FunctionDef) and fn.name.startswith("test")
                    and _starts_tracemalloc(fn)]
    return ids


MEMORY_BOUND = memory_bound_tests()


def test_search_finds_memory_bound_tests():
    assert "tests/test_cli.py::TestReduce::test_pred_guard_before_build" in MEMORY_BOUND
    assert "tests/test_reductions.py::TestCountSat::test_hard_cap_ignores_guard" in MEMORY_BOUND


@pytest.mark.parametrize("node_id", MEMORY_BOUND)
def test_passes_alone(node_id):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", node_id],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
