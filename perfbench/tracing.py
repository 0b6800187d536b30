"""In-memory span tracing of calls into fbmlab, installed from outside.

`install()` rebinds every public function of every fbmlab module, in every
module namespace that refers to it, to a wrapper that records a span
(name, start, end, parent span) and the counts taken at the same call
boundary.  A few methods and one private helper are wrapped too:
`MatrixField.__call__` (field evaluation), `ScalarField.__call__`,
`Germ.__call__` (a counter only) and `paths._component_rng` (a counter of
Philox streams and the distinct keys they were built for).  No program
file changes; the numerics are untouched, so traced and untraced jobs
produce byte-identical artifacts.

Spans stay in memory until `Recorder.dump` writes them when the job ends.
A layer's self time is its span time minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import defaultdict

MODULES = ("paths", "fields", "occupation", "averaging", "sewing", "solver",
           "verify", "experiments", "cli")


class Recorder:
    """Spans and counters of one traced job."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.stream_keys: set[tuple[int, int, int]] = set()

    def wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[sid] = (name, start, clock(), parent)
                stack.pop()
            if after is not None:
                after(self.counts, args, kwargs, out)
            return out

        return traced

    def self_times(self) -> dict[str, list[float]]:
        """name -> [calls, inclusive seconds, self seconds]."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, list[float]] = {}
        for sid, (name, start, end, parent) in enumerate(self.spans):
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            # A recursive call's time is already inside its caller's span.
            if not any(self.spans[p][0] == name for p in self._ancestors(parent)):
                row[1] += end - start
            row[2] += (end - start) - child_time[sid]
        return table

    def _ancestors(self, sid: int):
        while sid >= 0:
            yield sid
            sid = self.spans[sid][3]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       "distinct_stream_keys": len(self.stream_keys)}, fh)


# --- counts taken at call boundaries ----------------------------------------


def _count_eval(counts, args, kwargs, out):
    counts["fields.eval_calls"] += 1
    counts["fields.eval_points"] += math.prod(out.shape[:-2])


def _count_mollify(counts, args, kwargs, out):
    counts["fields.lattice_bytes"] += out.grid_values.nbytes


def _count_binned(counts, args, kwargs, out):
    counts["occupation.samples_binned"] += int(out.counts.sum()) + out.escaped_count
    counts["occupation.samples_escaped"] += out.escaped_count


def _count_direct(counts, args, kwargs, out):
    path, s, t = args[1], args[2], args[3]
    samples = path.grid.node_index(t) - path.grid.node_index(s)
    counts["averaging.direct_point_evals"] += out.size * samples


def _count_solve(counts, args, kwargs, out):
    counts["solver.path_steps"] += out.values.shape[0] * (out.values.shape[2] - 1)
    counts["solver.blowups"] += out.blowup_count
    size = out.values.nbytes + out.driver_increments.nbytes
    counts["solver.ensemble_bytes"] = max(counts["solver.ensemble_bytes"], size)


def _count_reports(counts, args, kwargs, out):
    reports = out if isinstance(out, list) else [out]
    counts["verify.checks"] += len(reports)
    counts["verify.checks_failed"] += sum(not r.passed for r in reports)


def _count_trend(counts, args, kwargs, out):
    counts["verify.checks"] += 1
    counts["verify.checks_failed"] += not out["uniform"]


_AFTER = {
    "fields.mollify": _count_mollify,
    "occupation.local_time": _count_binned,
    "occupation.occupation_measure": _count_binned,
    "averaging.average_direct": _count_direct,
    "solver.solve_ensemble": _count_solve,
    "verify.ito_isometry_check": _count_reports,
    "verify.cross_term_check": _count_reports,
    "verify.martingale_residuals": _count_reports,
    "verify.lebesgue_vs_sewing": _count_reports,
    "verify.moment_ratio_trend": _count_trend,
}


def install(recorder: Recorder) -> None:
    """Rebind fbmlab's public functions and field/germ calls to traced wrappers."""
    import fbmlab
    modules = {short: importlib.import_module(f"fbmlab.{short}") for short in MODULES}
    replaced = {}
    for short, mod in modules.items():
        for attr, fn in vars(mod).items():
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not attr.startswith("_")):
                name = f"{short}.{attr}"
                replaced[fn] = recorder.wrap(name, fn, _AFTER.get(name))
    for namespace in [fbmlab, *modules.values()]:
        for attr, value in list(vars(namespace).items()):
            if attr.startswith("__"):
                continue
            if inspect.isfunction(value) and value in replaced:
                setattr(namespace, attr, replaced[value])
            elif isinstance(value, dict):
                for key, entry in value.items():
                    if inspect.isfunction(entry) and entry in replaced:
                        value[key] = replaced[entry]

    fields, sewing, paths = modules["fields"], modules["sewing"], modules["paths"]
    fields.MatrixField.__call__ = recorder.wrap(
        "fields.MatrixField.__call__", fields.MatrixField.__call__, _count_eval)
    fields.ScalarField.__call__ = recorder.wrap(
        "fields.ScalarField.__call__", fields.ScalarField.__call__)

    germ_call = sewing.Germ.__call__

    def counted_germ(self, s, t):
        recorder.counts["sewing.germ_calls"] += 1
        return germ_call(self, s, t)

    sewing.Germ.__call__ = counted_germ

    component_rng = paths._component_rng

    def counted_stream(seed, path_index, component):
        recorder.counts["paths.streams"] += 1
        recorder.stream_keys.add((seed, path_index, component))
        return component_rng(seed, path_index, component)

    paths._component_rng = counted_stream


# --- per-layer metrics --------------------------------------------------------

# metric -> span names whose self time it sums
SELF_TIME = {
    "paths.fbm_batch_s": ("paths.generate_fbm_batch",),
    "paths.fbm_single_s": ("paths.generate_fbm",),
    "paths.bm_increments_s": ("paths.generate_bm_increments",),
    "fields.eval_s": ("fields.MatrixField.__call__",),
    "fields.mollify_s": ("fields.mollify",),
    "occupation.interpolate_s": ("occupation.multilinear_interpolate",),
    "occupation.local_time_s": ("occupation.local_time",
                                "occupation.occupation_measure"),
    "averaging.direct_s": ("averaging.average_direct",),
    "averaging.via_local_time_s": ("averaging.average_via_local_time",),
    "sewing.sew_s": ("sewing.sew",),
    "solver.solve_s": ("solver.solve_ensemble",),
    "solver.integral_sequence_s": ("solver.mollified_integral_sequence",),
    "verify.cross_term_s": ("verify.cross_term_check",),
    "verify.isometry_s": ("verify.ito_isometry_check",),
    "verify.martingale_s": ("verify.martingale_residuals",),
    "verify.moment_ratio_s": ("verify.moment_ratio",),
    "verify.qv_sewing_s": ("verify.lebesgue_vs_sewing",),
}

COUNTS = ("paths.streams", "fields.eval_calls", "fields.eval_points",
          "fields.lattice_bytes", "occupation.samples_binned",
          "averaging.direct_point_evals", "sewing.germ_calls",
          "solver.path_steps", "solver.blowups", "solver.ensemble_bytes",
          "verify.checks", "verify.checks_failed")

RATIOS = ("paths.streams_per_key", "fields.evals_per_path_step",
          "occupation.escaped_fraction", "trace.span_share")


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    return "ratio" if metric in RATIOS else "count"


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """The per-layer metrics of one traced job, by name.

    `trace.spans_s` is the time spent inside any fbmlab span; run.py turns
    it into `trace.span_share` of the untraced job time.
    """
    table = recorder.self_times()

    def self_time(match) -> float:
        return sum(row[2] for name, row in table.items() if match(name))

    out = {metric: self_time(lambda name: name in names)
           for metric, names in SELF_TIME.items()}
    out["experiments.criterion_s"] = self_time(
        lambda name: name.startswith("experiments."))
    out["cli.self_s"] = self_time(lambda name: name.startswith("cli."))
    counts = recorder.counts
    for name in COUNTS:
        out[name] = counts.get(name, 0.0)
    keys = len(recorder.stream_keys)
    out["paths.streams_per_key"] = out["paths.streams"] / keys if keys else 0.0
    path_steps = out["solver.path_steps"]
    out["fields.evals_per_path_step"] = (out["fields.eval_points"] / path_steps
                                         if path_steps else 0.0)
    binned = out["occupation.samples_binned"]
    out["occupation.escaped_fraction"] = (
        counts.get("occupation.samples_escaped", 0.0) / binned if binned else 0.0)
    out["trace.spans_s"] = self_time(lambda name: True)
    return out


def stage_table(recorder: Recorder, job_s: float) -> list[tuple]:
    """(name, calls, inclusive s, self s, self share of job) by self time."""
    rows = [(name, int(calls), incl, own, own / job_s)
            for name, (calls, incl, own) in recorder.self_times().items()]
    return sorted(rows, key=lambda r: -r[3])
