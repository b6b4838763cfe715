"""One exception class per way a caller handles an error, checked on the
source so that the taxonomy does not grow back."""

import ast
from pathlib import Path

import threshold_lab

SRC = Path(threshold_lab.__file__).parent

# class -> base: exit 2, 2 with an odd-cycle witness, 3 and 4
CLASSES = {
    "ThresholdLabError": "Exception",
    "BadParameterError": "ThresholdLabError",
    "NotBipartiteError": "BadParameterError",
    "GuardExceededError": "ThresholdLabError",
    "InvariantViolationError": "ThresholdLabError",
}

# the raises that are not library errors: the module __getattr__s
# (PEP 562), the Graph immutability hooks, and argparse's hook for an
# integer option
OTHER_RAISES = [
    ("__init__", "AttributeError"),
    ("cli", "AttributeError"),
    ("cli", "argparse.ArgumentTypeError"),
    ("graph_core", "AttributeError"),
    ("graph_core", "AttributeError"),
]


def test_errors_defines_the_five_classes():
    tree = ast.parse((SRC / "errors.py").read_text())
    bases = {node.name: ", ".join(map(ast.unparse, node.bases))
             for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    assert bases == CLASSES
    assert set(threshold_lab._EXPORTS["errors"]) == set(CLASSES) | {"DEFAULT_GUARD_N"}


def test_every_raise_names_one_of_the_five():
    others = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if ast.unparse(exc) not in CLASSES:
                    others.append((path.stem, ast.unparse(exc)))
    assert sorted(others) == OTHER_RAISES
