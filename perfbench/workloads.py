"""Seeded input generators for the four benchmark workloads.

Every workload is a list of jobs, some instances per stratum. A stratum
fixes every size parameter that drives a job's cost (node
count, edge count, spine length, formula size), so the seed only picks
the structure inside a stratum. That keeps the mix of cheap and costly
jobs the same for every seed, which is what makes the medians steady
across seeds. The closed loop runs the whole list in rounds, so any run
covers each stratum equally often.

Nothing here imports threshold_lab: the program under test receives the
generated files and nothing else.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("census", "trajectories", "counting", "resilience")


@dataclass
class Job:
    """One CLI invocation: ``threshold-lab <command> <args>`` on one input."""

    jid: str
    command: str
    data: dict  # instance or formula, written to <jid>.json
    options: list[str] = field(default_factory=list)  # CLI flags after the input flag
    meta: dict = field(default_factory=dict)  # generator facts the checks and the record use

    @property
    def input_flag(self) -> str:
        return "--formula" if self.command == "reduce" else "--input"

    def text(self) -> str:
        return json.dumps(self.data, sort_keys=True)


def digest(jobs: list[Job]) -> str:
    """Fingerprint of every generated input, option and check fact."""
    h = hashlib.sha256()
    for job in jobs:
        h.update(job.jid.encode())
        h.update(job.text().encode())
        h.update(json.dumps([job.options, job.meta], sort_keys=True).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Graph generators (plain Python, independent of the library)


def _edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def connected_graph(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Uniform random attachment tree on shuffled labels plus m - (n-1)
    distinct extra edges: connected, exactly m edges."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = {_edge(perm[rng.randrange(i)], perm[i]) for i in range(1, n)}
    rest = [e for e in itertools.combinations(range(n), 2) if e not in edges]
    edges.update(rng.sample(rest, m - (n - 1)))
    return sorted(edges)


def bipartite_graph(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Connected bipartite graph with parts of sizes n//2 and n - n//2
    on shuffled labels, exactly m edges."""
    nodes = list(range(n))
    rng.shuffle(nodes)
    left, right = nodes[: n // 2], nodes[n // 2 :]
    side = {v: 0 for v in left}
    side.update({v: 1 for v in right})
    placed = ([left[0]], [right[0]])
    edges = {_edge(left[0], right[0])}
    for v in rng.sample(left[1:] + right[1:], n - 2):
        edges.add(_edge(rng.choice(placed[1 - side[v]]), v))
        placed[side[v]].append(v)
    rest = sorted({_edge(a, b) for a in left for b in right} - edges)
    edges.update(rng.sample(rest, m - (n - 1)))
    return sorted(edges)


def relabel(rng: random.Random, n: int, edges) -> tuple[list[int], list[tuple[int, int]]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, sorted(_edge(perm[a], perm[b]) for a, b in edges)


def long_tree(rng: random.Random, n: int, spine: int, shape: str):
    """Tree on n nodes around a path ("spine") of the given length.

    caterpillar: every other node is a leaf on a random spine node.
    pathlike: other nodes hang in branches of depth at most 3.
    Returns (edges, spine node ids) after a random relabelling; the
    diameter lies within spine - 1 .. spine + 5.
    """
    edges = [(i, i + 1) for i in range(spine - 1)]
    depth = [0] * spine
    for v in range(spine, n):
        if shape == "caterpillar":
            parent = rng.randrange(spine)
        else:
            while True:
                parent = rng.randrange(v)
                if parent < spine or depth[parent] < 3:
                    break
        depth.append(depth[parent] + 1 if parent >= spine else 1)
        edges.append((parent, v))
    perm, edges = relabel(rng, n, edges)
    return edges, [perm[i] for i in range(spine)]


def degrees(n: int, edges) -> list[int]:
    d = [0] * n
    for e in edges:
        d[e[0]] += 1
        d[e[1]] += 1
    return d


def tree_diameter(n: int, edges) -> int:
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)

    def farthest(src):
        dist = [-1] * n
        dist[src] = 0
        order = [src]
        for u in order:
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    order.append(v)
        far = max(range(n), key=dist.__getitem__)
        return far, dist[far]

    return farthest(farthest(0)[0])[1]


def _profile(n: int, b_nodes) -> str:
    chars = ["W"] * n
    for v in b_nodes:
        chars[v] = "B"
    return "".join(chars)


# ---------------------------------------------------------------------------
# census: enumerate on n = 20..22


def _census(rng: random.Random, tiny: bool) -> list[Job]:
    strata = (
        [("random", 8, 12), ("bipartite", 8, 10), ("extremal", 9, 9)]
        if tiny
        else [
            ("random", 20, 40),
            ("random", 20, 60),
            ("random", 20, 80),
            ("bipartite", 21, 50),
            ("extremal", 21, 21),
            ("random", 21, 70),
            ("random", 22, 45),
            ("bipartite", 22, 60),
            ("random", 22, 105),
        ]
    )
    jobs = []
    for family, n, m in strata:
        if family == "extremal":
            # build_extremal_cycle_instance(n, "max") under a random relabelling:
            # a cycle with thresholds repeating (1, 1, 2).
            perm, edges = relabel(rng, n, [(i, (i + 1) % n) for i in range(n)])
            k = [0] * n
            for i in range(n):
                k[perm[i]] = 2 if i % 3 == 2 else 1
        else:
            gen = bipartite_graph if family == "bipartite" else connected_graph
            edges = gen(rng, n, m)
            k = [rng.randint(1, d) for d in degrees(n, edges)]
        data = {"n": n, "edges": [list(e) for e in edges], "thresholds": k}
        jobs.append(Job(f"{family}-n{n}-m{m}", "enumerate", data, meta={"family": family}))
    return jobs


# ---------------------------------------------------------------------------
# trajectories: simulate on 2,000-node long trees


def _trajectories(rng: random.Random, tiny: bool) -> list[Job]:
    n = 40 if tiny else 2000
    # (tree shape, spine length, rule, start)
    strata = (
        [("caterpillar", 20, "threshold", "contagion"), ("pathlike", 15, "weighted", "contagion"),
         ("caterpillar", 20, "types", "random")]
        if tiny
        else [
            ("caterpillar", 700, "threshold", "contagion"),
            ("pathlike", 500, "threshold", "contagion"),
            ("caterpillar", 400, "types", "contagion"),
            ("pathlike", 500, "weighted", "contagion"),
            ("caterpillar", 700, "threshold", "random"),
            ("pathlike", 500, "weighted", "random"),
            ("pathlike", 300, "types", "random"),
        ]
    )
    jobs = []
    for shape, spine_len, rule, start in strata:
        edges, spine = long_tree(rng, n, spine_len, shape)
        deg = degrees(n, edges)
        if rule == "threshold":
            data = {"n": n, "edges": [list(e) for e in edges], "thresholds": [1] * n}
        elif rule == "types":
            # q_i * d_i < 1, so one B neighbour suffices, but every
            # comparison goes through an exact fraction.
            data = {"n": n, "edges": [list(e) for e in edges],
                    "types": [[rng.randrange(8), 8 * d] for d in deg]}
        else:
            w_edges = [[a, b, rng.choice((1, 2, 3))] for a, b in edges]
            lightest = [4] * n
            for a, b, w in w_edges:
                lightest[a] = min(lightest[a], w)
                lightest[b] = min(lightest[b], w)
            loops = sorted(rng.sample(range(n), n // 10))
            data = {"n": n, "weighted_edges": w_edges,
                    "self_loops": [[v, 1] for v in loops], "thresholds": lightest}
        if start == "contagion":
            initial = _profile(n, [spine[0]] + rng.sample(spine[1:6], 2))
        else:
            initial = "".join(rng.choice("BW") for _ in range(n))
        jobs.append(Job(
            f"{shape}{spine_len}-{rule}-{start}", "simulate", data, ["--initial", initial],
            meta={"rule": rule, "start": start, "diameter": tree_diameter(n, edges)},
        ))
    return jobs


# ---------------------------------------------------------------------------
# counting: reduce --verify on small formulas


def _covering_pairs(rng: random.Random, nv: int, m: int) -> list[list[int]]:
    """m distinct positive 2-clauses in which every variable appears."""
    pairs = list(itertools.combinations(range(1, nv + 1), 2))
    while True:
        clauses = sorted(rng.sample(pairs, m))
        if len({v for c in clauses for v in c}) == nv:
            return [list(c) for c in clauses]


def covering_family(nv: int, m: int) -> list[list[list[int]]]:
    """Every set of m distinct positive 2-clauses in which all nv
    variables appear, in a fixed order."""
    pairs = list(itertools.combinations(range(1, nv + 1), 2))
    return [[list(c) for c in clauses] for clauses in itertools.combinations(pairs, m)
            if len({v for c in clauses for v in c}) == nv]


def _three_cnf(rng: random.Random, nv: int, m: int) -> list[list[int]]:
    return [
        [v * rng.choice((1, -1)) for v in sorted(rng.sample(range(1, nv + 1), 3))]
        for _ in range(m)
    ]


def _counting(rng: random.Random, tiny: bool) -> list[Job]:
    """fix jobs: the whole family of covering monotone 2-DNF formulas of
    one size, in a seeded order. The backtracker's cost differs about 8x
    inside the family (20x and more at 5 variables), so formulas drawn at
    random would move the round time by a third from seed to seed; the
    whole family, which relabelling maps onto itself, costs the same for
    every seed. pred and reachable-pred jobs: seeded random formulas."""
    fix_sizes, pred_sizes, rp_sizes = (
        ([(3, 2)], [(3, 2)], [(3, 2)]) if tiny
        else ([(3, 2), (4, 4)], [(4, 3), (4, 4), (4, 5), (4, 6)],
              [(9, 10), (9, 11)])
    )
    formulas = [("fix", "monotone-2dnf", nv, clauses)
                for nv, m in fix_sizes for clauses in covering_family(nv, m)]
    rng.shuffle(formulas)
    formulas += [("pred", "3cnf", nv, _three_cnf(rng, nv, m)) for nv, m in pred_sizes]
    formulas += [("reachable-pred", "monotone-2cnf", nv, _covering_pairs(rng, nv, m))
                 for nv, m in rp_sizes]
    return [
        Job(f"{kind}-v{nv}-c{len(clauses)}-{i}", "reduce",
            {"variant": variant, "n": nv, "clauses": clauses},
            ["--kind", kind, "--verify"], meta={"kind": kind})
        for i, (kind, variant, nv, clauses) in enumerate(formulas)
    ]


# ---------------------------------------------------------------------------
# resilience: resilience --mode brute on graphs with n = 7..10


def _resilience(rng: random.Random, tiny: bool) -> list[Job]:
    """Cycles and paths keep their canonical labels: relabelling them
    changes the search order and the job time by a fifth while the
    closed form stays the same. The seed draws the random connected
    graphs (a tree plus one edge), whose cost varies more. Nine cheap
    strata, random graphs among them, sit below the median and four
    costly cycle and path strata hold the tail, so the median and the
    tail fall on fixed inputs with a margin of a few jobs."""
    # (family, n, K)
    strata = (
        [("cycle", 5, 1), ("path", 5, 1), ("tree", 5, 2)]
        if tiny
        else [
            ("cycle", 7, 1),
            ("cycle", 7, 2),
            ("path", 8, 2),
            ("cycle", 8, 3),
            ("cycle", 9, 1),
            ("path", 10, 1),
            ("tree", 8, 2),
            ("tree", 9, 1),
            ("tree", 10, 1),
            ("cycle", 9, 2),
            ("cycle", 10, 1),
            ("path", 10, 2),
            ("cycle", 10, 2),
        ]
    )
    jobs = []
    for family, n, K in strata:
        if family == "cycle":
            edges = [(i, (i + 1) % n) for i in range(n - 1)] + [(0, n - 1)]
        elif family == "path":
            edges = [(i, i + 1) for i in range(n - 1)]
        else:
            edges = connected_graph(rng, n, n)
        data = {"n": n, "edges": [list(e) for e in edges], "thresholds": [1] * n}
        jobs.append(Job(f"{family}-n{n}-e{len(edges)}-K{K}", "resilience", data,
                        ["--K", str(K), "--mode", "brute"], meta={"family": family, "K": K}))
    return jobs


_BUILDERS = {
    "census": _census,
    "trajectories": _trajectories,
    "counting": _counting,
    "resilience": _resilience,
}

# Instances per stratum; one round runs every job of the list once.
COPIES = {"census": 1, "trajectories": 2, "counting": 1, "resilience": 1}

# Wall time of one round at this commit on the reference machine. A run
# of --seconds plans round(seconds / ROUND_S) whole rounds, at least one,
# so every commit times the same jobs, and the job count (which sets the
# tail percentile) does not flip with the machine's speed.
ROUND_S = {"census": 9.5, "trajectories": 8.0, "counting": 10.5, "resilience": 9.3}


def build(workload: str, seed: int, *, tiny: bool = False) -> list[Job]:
    """The workload's job list (one round) for this seed; same seed, same inputs."""
    rng = random.Random(f"{workload}/{seed}")
    jobs = []
    for copy in range(1 if tiny else COPIES[workload]):
        for job in _BUILDERS[workload](rng, tiny):
            job.jid = f"c{copy}.{job.jid}"
            jobs.append(job)
    return jobs
