"""Spans around calls into the dynact modules, and the per-layer metrics
computed from them.

Tracing lives entirely in the benchmark: ``instrument`` swaps timing
wrappers onto the module attributes the pipeline calls through, for the
duration of a ``with`` block, and restores the originals afterwards. The
program itself is not changed. Spans are kept in memory until the
repetition ends.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import os
import time
from dataclasses import dataclass, field

from dynact import formats, pipeline
from dynact.grid import NodeKind
from dynact.pipeline import PDE_MODES

# the package re-exports the function reconstruct(), hiding the module
reconstruct = importlib.import_module("dynact.reconstruct")
STAGES = tuple(s for s in pipeline.STAGES if s != "all")


@dataclass
class Span:
    sid: int
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def record(self) -> dict:
        return {"id": self.sid, "name": self.name, "start": self.start, "end": self.end, "parent": self.parent, **self.attrs}


class Tracer:
    """Collects nested spans in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].sid if self._stack else None
        s = Span(len(self.spans), name, 0.0, parent, attrs=attrs)
        self.spans.append(s)
        self._stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def attr(self, key: str):
        """Innermost value of ``key`` among the open spans."""
        for s in reversed(self._stack):
            if key in s.attrs:
                return s.attrs[key]
        return None


class TimedProvider:
    """Deformation provider proxy: each ``eval`` becomes a child span, so
    its time is taken out of the enclosing backprojection's self time."""

    def __init__(self, tracer: Tracer, inner, kind: str):
        self._tracer = tracer
        self._inner = inner
        self.kind = kind

    def eval(self, t, points):
        with self._tracer.span("deformation.eval", kind=self.kind):
            return self._inner.eval(t, points)

    def __getattr__(self, name):
        return getattr(self._inner, name)


_NODE_KINDS = (("interior", NodeKind.INTERIOR), ("boundary", NodeKind.BOUNDARY), ("ghost", NodeKind.GHOST))


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def span_wrapper(tracer: Tracer, name: str, attrs_of=None, after=None):
    """Decorator factory: each call of the wrapped function becomes a span
    ``name``; ``attrs_of(*args)`` and ``after(out, *args)`` add attributes."""

    def factory(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs) if attrs_of else {}
            with tracer.span(name, **attrs) as s:
                out = fn(*args, **kwargs)
            if after:
                s.attrs.update(after(out, *args, **kwargs))
            return out

        return wrapper

    return factory


def span_cost_s(calls: int = 20000) -> float:
    """Time one call through ``span_wrapper`` adds, measured on a no-op."""

    def noop():
        return None

    wrapped = span_wrapper(Tracer(), "probe")(noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the public functions of every dynact layer in spans."""
    patches = []  # (module, attribute, wrapper factory)

    timed = functools.partial(span_wrapper, tracer)

    def grid_counts(grid, *args, **kwargs):
        return {name: int(grid.mask(k).sum()) for name, k in _NODE_KINDS}

    def history_counts(h, *args, **kwargs):
        return {"mode": tracer.attr("mode"), "steps": int(h.num_steps), "snapshots": int(len(h.times))}

    def proxied(kind, name=None):
        def factory(cls):
            @functools.wraps(cls)
            def make(*args, **kwargs):
                if name is None:
                    return TimedProvider(tracer, cls(*args, **kwargs), kind)
                with tracer.span(name):
                    inner = cls(*args, **kwargs)
                return TimedProvider(tracer, inner, kind)

            return make

        return factory

    def views(filtered, geometry, *rest, **kwargs):
        return {"views": int(geometry.num_angles)}

    def backproject_attrs(filtered, geometry, provider, *rest, **kwargs):
        return {"views": int(geometry.num_angles), "kind": getattr(provider, "kind", "other")}

    def bytes_of(path, *args, **kwargs):
        return {"bytes": _file_size(path)}

    def bytes_after(out, path, *args, **kwargs):
        return {"bytes": _file_size(path)}

    for stage in STAGES:
        fn_name = "stage_" + stage.replace("-", "_")
        patches.append((pipeline, fn_name, timed(f"pipeline.{stage}")))
    patches += [
        (pipeline, "simulate_scan", timed("projection.simulate_scan")),
        (pipeline, "rasterize_f0", timed("phantom.rasterize_f0")),
        (pipeline, "make_grid", timed("grid.make_grid", after=grid_counts)),
        (pipeline, "solve_motion", timed("pipeline.solve_motion", attrs_of=lambda cfg, mode, **kw: {"mode": mode})),
        (pipeline, "boundary_data_for_mode", timed("boundary.data", attrs_of=lambda cfg, grid, mode: {"mode": mode})),
        (pipeline, "solve", timed("elastic.solve", after=history_counts)),
        (pipeline, "FieldDeformation", proxied("field", "deformation.field_init")),
        (pipeline, "AnalyticDeformation", proxied("analytic")),
        (pipeline, "evaluate", timed("metrics.evaluate")),
        (reconstruct, "filter_sinogram", timed("reconstruct.filter_sinogram")),
        (reconstruct, "backproject", timed("reconstruct.backproject", attrs_of=backproject_attrs)),
        (reconstruct, "backproject_static", timed("reconstruct.backproject_static", attrs_of=views)),
    ]
    for name in ("write_sinogram", "write_image", "write_pgm", "write_field"):
        patches.append((formats, name, timed("formats.write", after=bytes_after)))
    for name in ("read_sinogram", "read_image", "read_field"):
        patches.append((formats, name, timed("formats.read", attrs_of=bytes_of)))

    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    try:
        for mod, attr, factory in patches:
            setattr(mod, attr, factory(getattr(mod, attr)))
        yield tracer
    finally:
        for mod, attr, original in saved:
            setattr(mod, attr, original)


def stencil_bytes_per_step(interior: int, boundary: int, ghost: int) -> int:
    """Computed (not measured) array traffic of one explicit step.

    Per interior node: 2 components x 9 stencil reads, 11 coefficients,
    2 previous-level reads and 2 writes (33 float64) plus 9 int64 gather
    indices. Per boundary node 2 float64 writes; per ghost node, for each
    of 2 components, 3 reads, 1 factor and 1 write (10 float64).
    """
    return 8 * (interior * (33 + 9) + boundary * 2 + ghost * 10)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    child: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + s.duration
    return [s.duration - child.get(s.sid, 0.0) for s in spans]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, named as in BENCHMARK.json.

    Times are self times summed over the traced set-up and timed part. A
    layer the repetition never called is absent (it reads 0).
    ``trace_overhead_s`` is the span count times the cost of one span.
    """
    m: dict[str, float] = collections.defaultdict(float)
    own = self_times(spans)

    def add(key, value):
        m[key] += value

    last_grid = None
    for s, t in zip(spans, own):
        a = s.attrs
        if s.name == "phantom.rasterize_f0":
            add("phantom.rasterize_f0_s", t)
        elif s.name == "projection.simulate_scan":
            add("projection.simulate_scan_s", t)
        elif s.name == "grid.make_grid":
            add("grid.make_grid_s", t)
            last_grid = a
        elif s.name == "boundary.data":
            add(f"boundary.data_s.{a['mode']}", t)
        elif s.name == "elastic.solve":
            add(f"elastic.solve_s.{a['mode']}", t)
            add("elastic.steps", a["steps"])
            add("elastic.snapshots", a["snapshots"])
        elif s.name == "deformation.field_init":
            add("deformation.field_init_s", t)
        elif s.name == "deformation.eval":
            add("deformation.eval_s", t)
            add("deformation.eval_calls", 1)
        elif s.name == "reconstruct.filter_sinogram":
            add("reconstruct.filter_sinogram_s", t)
            add("reconstruct.filter_calls", 1)
        elif s.name == "reconstruct.backproject_static":
            add("reconstruct.backproject_static_s", t)
            add("reconstruct.views", a["views"])
        elif s.name == "reconstruct.backproject":
            add(f"reconstruct.backproject_{a['kind']}_s", t)
            add("reconstruct.views", a["views"])
        elif s.name == "formats.write":
            add("formats.write_s", t)
            add("formats.bytes_written", a["bytes"])
        elif s.name == "formats.read":
            add("formats.read_s", t)
            add("formats.bytes_read", a["bytes"])
        elif s.name == "metrics.evaluate":
            add("metrics.evaluate_s", t)
        elif s.name.startswith("pipeline.") and s.name[len("pipeline."):] in STAGES:
            add(f"{s.name}_s", s.duration)

    if last_grid is not None:
        m["grid.interior_nodes"] = last_grid["interior"]
        m["grid.boundary_nodes"] = last_grid["boundary"]
        m["grid.ghost_nodes"] = last_grid["ghost"]
    if m["elastic.steps"]:
        solve_s = sum(m[f"elastic.solve_s.{mode}"] for mode in PDE_MODES)
        m["elastic.step_us"] = 1e6 * solve_s / m["elastic.steps"]
        m["elastic.bytes_per_step"] = stencil_bytes_per_step(
            m["grid.interior_nodes"], m["grid.boundary_nodes"], m["grid.ghost_nodes"]
        )
    m["trace_overhead_s"] = len(spans) * span_cost_s()
    return dict(m)
