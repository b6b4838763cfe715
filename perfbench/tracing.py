"""Traced in-process replay of the CLI jobs, and the per-layer metrics.

Each job is replayed by calling the program's own `threshold_lab.cli.main`
in-process, with stdout and stderr captured. For a traced replay the
library names that cli.py and reductions.py import are swapped, on those
module namespaces, for wrappers that open a span named after the layer
(`WRAPPED`), so the CLI's code runs unchanged. One "cli" span per job is
the parent of the layer spans inside it. Spans stay in memory and are
written out when the run ends. Exact counts come from the inputs and the
wrapped calls' return values only. A name a later version of the program
no longer imports is skipped, and its metrics read 0.
"""

from __future__ import annotations

import functools
import io
import json
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout

LAYERS = ("cli", "graph_core", "enumeration", "reductions", "dynamics", "resilience")
RULES = ("threshold", "types", "weighted")
COUNTS = ("profiles", "fixed_points", "steps", "node_updates", "evaluations", "gadget_nodes")


class JobFailed(Exception):
    """The CLI exited non-zero on a replayed job."""


class Tracer:
    """Records spans: name, start, end, parent span, job id, attributes."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, job: str | None = None):
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            "job": job if parent is None else self.spans[parent]["job"],
            "start": time.perf_counter(),
            "end": None,
            "error": None,
            "attrs": {},
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def _limit_cycle_attrs(job, report):
    steps = report.trajectory_length
    return {"rule": job.meta.get("rule"), "steps": steps, "node_updates": job.data["n"] * steps}


def _profiles(job, census):
    return {"profiles": 1 << job.data["n"]}


def _fixed_points(job, count):
    return {"fixed_points": count}


def _gadget_nodes(job, gadget):
    return {"gadget_nodes": gadget.graph.n}


def _evaluations(job, res):
    return {"evaluations": res.evaluations}


# (module whose namespace holds the name, function name, span name, counts
# read from the job's input and the call's return value)
WRAPPED = (
    ("cli", "instance_from_dict", "graph_core.load", None),
    ("cli", "weighted_graph_from_dict", "graph_core.load", None),
    ("cli", "formula_from_dict", "graph_core.load", None),
    ("cli", "parse_profile", "graph_core.parse_profile", None),
    ("cli", "types_to_thresholds", "graph_core.types_to_thresholds", None),
    ("cli", "make_step", "dynamics.make_step", None),
    ("cli", "make_step_types", "dynamics.make_step", None),
    ("cli", "make_step_weighted", "dynamics.make_step", None),
    ("cli", "limit_cycle", "dynamics.limit_cycle", _limit_cycle_attrs),
    ("cli", "enumerate_limits", "enumeration.enumerate_limits", _profiles),
    ("cli", "count_fixed_points_backtracking",
     "enumeration.count_fixed_points_backtracking", _fixed_points),
    ("cli", "is_reachable", "enumeration.is_reachable", None),
    ("cli", "fix_reduction", "reductions.build", _gadget_nodes),
    ("cli", "pred_reduction", "reductions.build", _gadget_nodes),
    ("cli", "reachable_pred_reduction", "reductions.build", _gadget_nodes),
    # a child span of reductions.build, so the build's self time is the
    # builder alone, as with measure=False
    ("reductions", "predecessors", "enumeration.predecessors", None),
    ("cli", "recover_sat_count", "reductions.recover_sat_count", None),
    ("cli", "count_sat", "reductions.count_sat", None),
    ("cli", "resilience_bruteforce", "resilience.resilience_bruteforce", _evaluations),
)


def _wrap(fn, span_name, attrs_of, tracer, job):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(span_name) as rec:
            result = fn(*args, **kwargs)
            if attrs_of is not None:
                rec["attrs"].update(attrs_of(job, result))
        return result

    return traced


@contextmanager
def _instrumented(lib, tracer, job):
    saved = []
    try:
        for mod_name, fn_name, span_name, attrs_of in WRAPPED:
            mod = getattr(lib, mod_name)
            fn = getattr(mod, fn_name, None)
            if fn is None:
                continue
            saved.append((mod, fn_name, fn))
            setattr(mod, fn_name, _wrap(fn, span_name, attrs_of, tracer, job))
        yield
    finally:
        for mod, fn_name, fn in saved:
            setattr(mod, fn_name, fn)


def replay(lib, job, path: str, tracer: Tracer | None = None) -> tuple[str, dict]:
    """Run one job through cli.main in-process; returns (stdout text, exact
    counts). Untraced (tracer None) the counts are empty. Raises JobFailed
    when the CLI exits non-zero."""
    argv = [job.command, job.input_flag, path, *job.options]
    out, err = io.StringIO(), io.StringIO()
    counts = {}
    with redirect_stdout(out), redirect_stderr(err):
        if tracer is None:
            code = lib.cli.main(argv)
        else:
            first = len(tracer.spans)
            with _instrumented(lib, tracer, job), tracer.span("cli", job=job.jid) as rec:
                code = lib.cli.main(argv)
                if code:
                    rec["error"] = f"exit {code}"
            counts = dict.fromkeys(COUNTS, 0)
            for s in tracer.spans[first:]:
                for key in COUNTS:
                    counts[key] += s["attrs"].get(key, 0)
    if code:
        raise JobFailed(f"exit {code}: {err.getvalue().strip()[-300:]}")
    return out.getvalue(), counts


def transition_table_probe(lib, job, path: str, tracer: Tracer) -> None:
    """Build the successor table alone on a census instance; a program
    without enumeration.transition_table skips the probe."""
    table = getattr(lib.enumeration, "transition_table", None)
    if table is None:
        return
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    with tracer.span("probe", job=job.jid):
        with tracer.span("graph_core.load"):
            g, k = lib.graph_core.instance_from_dict(json.loads(text))
        with tracer.span("enumeration.transition_table"):
            table(g, k)


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_metrics(spans: list[dict], import_s: float, overhead_frac: float) -> dict[str, tuple]:
    """Every per-layer metric as name -> (value, unit).

    A "<module>.<function>_s" value is the mean self time of one call;
    cli.self_s is the mean self time of one job span. Rates divide the
    summed self time by the summed count. A layer with no calls in this
    workload reports 0.
    """
    selfs = self_times(spans)
    total, calls = {}, {}
    for s, t in zip(spans, selfs):
        total[s["name"]] = total.get(s["name"], 0.0) + t
        calls[s["name"]] = calls.get(s["name"], 0) + 1

    def mean_s(name):
        return total.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

    def attr_sum(name, key, **match):
        return sum(
            s["attrs"].get(key, 0)
            for s in spans
            if s["name"] == name and all(s["attrs"].get(k) == v for k, v in match.items())
        )

    def rate(seconds, count, scale):
        return seconds * scale / count if count else 0.0

    m = {
        "cli.import_s": (import_s, "s"),
        "cli.self_s": (mean_s("cli"), "s"),
        "graph_core.load_s": (mean_s("graph_core.load"), "s"),
    }
    profiles = attr_sum("enumeration.enumerate_limits", "profiles")
    fixed = attr_sum("enumeration.count_fixed_points_backtracking", "fixed_points")
    m.update({
        "enumeration.enumerate_limits_s": (mean_s("enumeration.enumerate_limits"), "s"),
        "enumeration.profiles": (profiles, "count"),
        "enumeration.ns_per_profile": (
            rate(total.get("enumeration.enumerate_limits", 0.0), profiles, 1e9), "ns"),
        "enumeration.transition_table_s": (mean_s("enumeration.transition_table"), "s"),
        "enumeration.count_fixed_points_backtracking_s": (
            mean_s("enumeration.count_fixed_points_backtracking"), "s"),
        "enumeration.fixed_points": (fixed, "count"),
        "enumeration.us_per_fixed_point": (
            rate(total.get("enumeration.count_fixed_points_backtracking", 0.0), fixed, 1e6), "us"),
        "enumeration.predecessors_s": (mean_s("enumeration.predecessors"), "s"),
        "enumeration.is_reachable_s": (mean_s("enumeration.is_reachable"), "s"),
        "reductions.build_s": (mean_s("reductions.build"), "s"),
        "reductions.count_sat_s": (mean_s("reductions.count_sat"), "s"),
        "reductions.gadget_nodes": (attr_sum("reductions.build", "gadget_nodes"), "count"),
        "dynamics.make_step_s": (mean_s("dynamics.make_step"), "s"),
        "dynamics.limit_cycle_s": (mean_s("dynamics.limit_cycle"), "s"),
        "dynamics.steps": (attr_sum("dynamics.limit_cycle", "steps"), "count"),
        "dynamics.node_updates": (attr_sum("dynamics.limit_cycle", "node_updates"), "count"),
    })
    for rule in RULES:
        seconds = sum(
            t for s, t in zip(spans, selfs)
            if s["name"] == "dynamics.limit_cycle" and s["attrs"].get("rule") == rule
        )
        updates = attr_sum("dynamics.limit_cycle", "node_updates", rule=rule)
        m[f"dynamics.ns_per_node_update.{rule}"] = (rate(seconds, updates, 1e9), "ns")
    m["dynamics.max_trajectory_length"] = (
        max([s["attrs"].get("steps", 0) for s in spans if s["name"] == "dynamics.limit_cycle"],
            default=0), "count")
    evaluations = attr_sum("resilience.resilience_bruteforce", "evaluations")
    m.update({
        "resilience.resilience_bruteforce_s": (mean_s("resilience.resilience_bruteforce"), "s"),
        "resilience.evaluations": (evaluations, "count"),
        "resilience.us_per_evaluation": (
            rate(total.get("resilience.resilience_bruteforce", 0.0), evaluations, 1e6), "us"),
    })
    # An error counts once, in the innermost span that raised it.
    errored_child = {s["parent"] for s in spans if s["error"] and s["parent"] is not None}
    for layer in LAYERS:
        m[f"{layer}.errors"] = (sum(
            1 for s in spans
            if s["error"] and s["id"] not in errored_child
            and (s["name"] == "cli" if layer == "cli" else s["name"].startswith(layer + "."))
        ), "count")
    m["trace.overhead_frac"] = (overhead_frac, "ratio")
    return m
