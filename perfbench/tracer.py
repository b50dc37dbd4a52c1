"""In-memory span tracer over the distreg layers.

``Tracer.installed()`` wraps the traced functions below at every module
that binds them (``regression``, ``density_distance`` and ``experiments``
import names directly, so each importing module's attribute is patched),
plus ``GridSpec.mesh`` on the class, and restores them on exit.  Each call
becomes a span with a parent span and a unit id; a unit starts at each
call of one of the workload's unit-start functions made directly under
``run_experiment``.  ``layer_metrics`` turns the spans into the per-layer
metrics; a layer's self time is its span's duration minus its children's.

``UnitClock`` is the untraced run's only instrument: it times units at the
runner's own call sites and wraps nothing else.

``kernels.kde_eval_many.bytes_computed`` is computed from array sizes, not
measured: every call counts its float64 inputs and output, and a call that
takes the dense path also counts the (queries x samples x (dim + 2))
temporaries that path materialises.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field

from distreg import density_distance, experiments, kernels, meta_world, regression, theory_checks

RUNNER = "experiments.run_experiment"


@dataclass
class Span:
    name: str
    parent: int | None
    unit: int | None
    start: float
    end: float = 0.0
    stats: dict = field(default_factory=dict)


def _values(tracer, args, kwargs, out):
    return {"values": int(out.size)}


def _eval_shape(tracer, args, kwargs, out):
    est = args[0]
    return {"queries": int(out.shape[0]), "samples": est.count, "dim": est.dim}


def _first_seen(tracer, args, kwargs, out):
    est = args[0]
    # Weak values: a dead estimate drops out, so a reused id() is not mistaken for a repeat.
    if tracer.estimates.get(id(est)) is est:
        return {"distinct": 0}
    tracer.estimates[id(est)] = est
    return {"distinct": 1}


def _zero_weight(tracer, args, kwargs, out):
    # kernel_kernel_estimate returns exactly 0.0 when every weight vanishes;
    # labels here are continuous draws, so a real average is never exactly 0.
    return {"zero": int(out == 0.0)}


def _adaptive(tracer, args, kwargs, out):
    return {"iterations": out.iterations, "converged": int(out.converged)}


def _calibration(tracer, args, kwargs, out):
    return {"levels": len(out.history), "capped": int(out.capped)}


TRACED = (
    (meta_world, "draw_samples", _values),
    (meta_world, "draw_distribution", None),
    (meta_world, "draw_thetas", _values),
    (kernels, "kde_build", None),
    (kernels, "select_bandwidth", None),
    (kernels, "kde_eval_many", _eval_shape),
    (density_distance, "grid_values", _first_seen),
    (density_distance, "l1_distance", None),
    (regression, "kernel_kernel_estimate", _zero_weight),
    (regression, "draw_labeled_dataset", None),
    (regression, "adaptive_closest_point", _adaptive),
    (regression, "calibrate_sample_size", _calibration),
    (theory_checks, "expected_min_distance", None),
    (theory_checks, "lemma1_sums", None),
    (theory_checks, "check_small_ball_bound", None),
    (experiments, "run_experiment", None),
)


class UnitClock:
    """Unit latencies, stamped where ``run_experiment``'s bodies call the library.

    Only ``distreg.experiments``' own bindings of the unit's first and last
    functions are wrapped, so calls the library makes internally (the
    calibration's draws, say) are not seen, and a unit costs two clock reads.
    A unit runs from the entry of a ``start`` function to the exit of an
    ``end`` function; one function may be both.
    """

    def __init__(self, start, end):
        self.unit_s: list[float] = []
        self._start = frozenset(start)
        self._end = frozenset(end)
        self._began = 0.0

    def _wrap(self, attr: str, fn):
        starts, ends = attr in self._start, attr in self._end

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if starts:
                self._began = time.perf_counter()
            out = fn(*args, **kwargs)
            if ends:
                self.unit_s.append(time.perf_counter() - self._began)
            return out

        return timed

    @contextmanager
    def installed(self):
        originals = {attr: getattr(experiments, attr) for attr in self._start | self._end}
        try:
            for attr, fn in originals.items():
                setattr(experiments, attr, self._wrap(attr, fn))
            yield self
        finally:
            for attr, fn in originals.items():
                setattr(experiments, attr, fn)


class Tracer:
    def __init__(self, unit_start=()):
        self.spans: list[Span] = []
        self.estimates = weakref.WeakValueDictionary()
        self._stack: list[int] = []
        self._unit_start = frozenset(unit_start)
        self._unit: int | None = None

    def _wrap(self, name: str, fn, hook):
        attr = name.rsplit(".", 1)[-1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if attr in self._unit_start and parent is not None and self.spans[parent].name == RUNNER:
                self._unit = 0 if self._unit is None else self._unit + 1
            span = Span(name, parent, self._unit, time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                span.stats.update(hook(self, args, kwargs, out))
            return out

        return traced

    def _mark_dense(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._stack:
                self.spans[self._stack[-1]].stats["dense"] = 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Patch every binding site of the traced functions; undo on exit."""
        sites = [m for name, m in sys.modules.items() if name == "distreg" or name.startswith("distreg.")]
        patches = []

        def patch(owner, attr, replacement):
            patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

        try:
            for module, attr, hook in TRACED:
                original = getattr(module, attr)
                wrapper = self._wrap(f"{module.__name__.rsplit('.', 1)[-1]}.{attr}", original, hook)
                for site in sites:
                    for key, value in list(vars(site).items()):
                        if value is original:
                            patch(site, key, wrapper)
            mesh = density_distance.GridSpec.mesh
            patch(density_distance.GridSpec, "mesh", self._wrap("density_distance.mesh", mesh, None))
            # The dense path is private; when a later version drops it, dense_frac reads 0.
            if hasattr(kernels, "_eval_dense"):
                patch(kernels, "_eval_dense", self._mark_dense(kernels._eval_dense))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                record = {
                    "id": i,
                    "parent": s.parent,
                    "unit": s.unit,
                    "name": s.name,
                    "start": s.start - origin,
                    "end": s.end - origin,
                    **s.stats,
                }
                fh.write(json.dumps(record) + "\n")


def tail(values) -> tuple[float, float]:
    """Tail of non-empty values as (value, percentile).

    The highest percentile up to p90 with at least ten values beyond it.  The
    p90 cap keeps large samples from resting on ten values (on a geometric
    iteration count that figure alone spreads past the benchmark's bound
    from seed to seed); with fewer than twenty values the median stands in.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = n - 1 - max(10, math.ceil(0.1 * n))
    if k < (n - 1) // 2:
        return statistics.median(ordered), 50.0
    return ordered[k], 100.0 * (k + 1) / n


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit); absent layers read 0."""
    child_s = [0.0] * len(spans)
    in_calibration = [False] * len(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            child_s[s.parent] += s.end - s.start
            in_calibration[i] = in_calibration[s.parent]
        in_calibration[i] |= s.name == "regression.calibrate_sample_size"
        by_name.setdefault(s.name, []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum(spans[i].end - spans[i].start - child_s[i] for i in by_name.get(name, ()))

    def total(name, key, where=lambda i: True):
        return sum(spans[i].stats.get(key, 0) for i in by_name.get(name, ()) if where(i))

    out: dict[str, tuple[float, str]] = {}
    for name in (
        "meta_world.draw_samples",
        "meta_world.draw_thetas",
        "kernels.kde_build",
        "kernels.select_bandwidth",
        "kernels.kde_eval_many",
        "density_distance.grid_values",
        "density_distance.l1_distance",
        "density_distance.mesh",
        "regression.kernel_kernel_estimate",
        "regression.draw_labeled_dataset",
        "regression.adaptive_closest_point",
        "regression.calibrate_sample_size",
        "theory_checks.expected_min_distance",
        "theory_checks.lemma1_sums",
        "theory_checks.check_small_ball_bound",
        "experiments.run_experiment",
    ):
        out[f"{name}.self_s"] = (self_s(name), "s")
    for name in (
        "meta_world.draw_samples",
        "meta_world.draw_distribution",
        "kernels.kde_build",
        "kernels.kde_eval_many",
        "density_distance.grid_values",
        "density_distance.l1_distance",
        "density_distance.mesh",
        "regression.kernel_kernel_estimate",
        "regression.adaptive_closest_point",
        "theory_checks.expected_min_distance",
    ):
        out[f"{name}.calls"] = (calls(name), "count")

    out["meta_world.draw_samples.values"] = (total("meta_world.draw_samples", "values"), "count")
    out["meta_world.draw_thetas.values"] = (total("meta_world.draw_thetas", "values"), "count")

    evals = [spans[i].stats for i in by_name.get("kernels.kde_eval_many", ())]
    out["kernels.kde_eval_many.pairs"] = (sum(e["queries"] * e["samples"] for e in evals), "count")
    out["kernels.kde_eval_many.dense_frac"] = (
        _ratio(sum(e.get("dense", 0) for e in evals), len(evals)),
        "ratio",
    )
    out["kernels.kde_eval_many.bytes_computed"] = (
        sum(
            8 * (e["queries"] * (e["dim"] + 1) + e["samples"] * e["dim"])
            + e.get("dense", 0) * 8 * e["queries"] * e["samples"] * (e["dim"] + 2)
            for e in evals
        ),
        "B",
    )

    name = "density_distance.grid_values"
    out[f"{name}.unique_frac"] = (_ratio(total(name, "distinct"), calls(name)), "ratio")
    name = "regression.kernel_kernel_estimate"
    out[f"{name}.zero_weight_frac"] = (_ratio(total(name, "zero"), calls(name)), "ratio")

    name = "regression.adaptive_closest_point"
    iterations = [spans[i].stats["iterations"] for i in by_name.get(name, ())]
    converged = total(name, "converged")
    out[f"{name}.candidates"] = (sum(iterations), "count")
    out[f"{name}.iterations_p50"] = (statistics.median(iterations) if iterations else 0, "count")
    out[f"{name}.iterations_tail"] = (tail(iterations)[0] if iterations else 0, "count")
    out[f"{name}.converged_frac"] = (_ratio(converged, len(iterations)), "ratio")
    out[f"{name}.candidates_per_accept"] = (_ratio(sum(iterations), converged), "ratio")

    name = "regression.calibrate_sample_size"
    out[f"{name}.levels"] = (total(name, "levels"), "count")
    out[f"{name}.capped"] = (total(name, "capped"), "count")
    out[f"{name}.samples"] = (
        total("meta_world.draw_samples", "values", lambda i: in_calibration[i]),
        "count",
    )
    return out
