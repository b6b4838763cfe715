"""The exhaustive generators, against networkx's atlas and tree
generator (a test dependency), and the package without networkx."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from threshold_lab import BadParameterError
from threshold_lab.instances import connected_graphs, trees

CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853)
TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551)


def _nx(g):
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def _one_match_each(ours, reference):
    """Every graph of ours is isomorphic to exactly one reference graph,
    and no two of ours to the same one."""
    import networkx as nx

    def bucket(h):
        return tuple(sorted(d for _, d in h.degree())), tuple(sorted(nx.triangles(h).values()))

    by_key = {}
    for r in reference:
        by_key.setdefault(bucket(r), []).append(r)
    hit = set()
    for h in map(_nx, ours):
        matches = [id(r) for r in by_key.get(bucket(h), []) if nx.is_isomorphic(h, r)]
        assert len(matches) == 1
        hit.add(matches[0])
    assert len(hit) == len(ours) == len(reference)


def test_counts():
    assert tuple(len(connected_graphs(n)) for n in range(1, 8)) == CONNECTED_COUNTS
    assert tuple(len(trees(n)) for n in range(1, 13)) == TREE_COUNTS


def test_graphs_are_connected_trees_are_trees():
    for n in range(1, 7):
        for g in connected_graphs(n):
            assert g.n == n and g.weights is None  # build_graph checked connectivity
    for n in range(1, 11):
        assert all(t.n == n and len(t.edges) == n - 1 for t in trees(n))


def test_order_is_deterministic():
    assert connected_graphs(6) == connected_graphs(6)
    assert trees(10) == trees(10)


def test_connected_graphs_match_the_atlas():
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    for n in range(1, 7):
        atlas = [h for h in graph_atlas_g() if h.number_of_nodes() == n and nx.is_connected(h)]
        _one_match_each(connected_graphs(n), atlas)


def test_trees_match_networkx():
    import networkx as nx

    for n in range(3, 11):
        _one_match_each(trees(n), list(nx.nonisomorphic_trees(n)))


@pytest.mark.parametrize("n", [0, 8, -1])
def test_connected_graphs_range(n):
    with pytest.raises(BadParameterError, match="1 <= n <= 7"):
        connected_graphs(n)


def test_trees_range():
    with pytest.raises(BadParameterError):
        trees(0)


_BLOCKED = """
import contextlib, io, sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "networkx":
            raise ImportError("networkx is blocked")

sys.meta_path.insert(0, Refuse())
from threshold_lab.cli import main
from threshold_lab.expansions import instances_isomorphic
from threshold_lab.instances import connected_graphs, cycle_graph, trees

out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["verify", "--seed", "0"])
graphs = [len(connected_graphs(n)) for n in range(1, 7)]
tree_counts = [len(trees(n)) for n in range(1, 9)]
c6 = cycle_graph(6)
iso = [instances_isomorphic(c6, (2, 1, 1, 1, 1, 1), c6, k) for k in ((1, 1, 2, 1, 1, 1), (1,) * 6)]
print(code, out.getvalue().splitlines()[-1], graphs, tree_counts, iso,
      [m for m in sys.modules if m.partition(".")[0] == "networkx"])
"""


def test_runs_without_networkx():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", _BLOCKED], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == (
        "0 20/20 invariant suites passed [1, 1, 2, 6, 21, 112] [1, 1, 1, 2, 3, 6, 11, 23] [True, False] []"
    )
