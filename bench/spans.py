"""Span recording for the traced benchmark run, from outside the library.

A :class:`Recorder` wraps public entry points of ``kernelkit`` by name and
records one :class:`Span` (name, start, end, parent span, attributes) per
call.  Spans stay in memory until the run ends.  :func:`install` patches
every namespace that holds a wrapped function, because modules import
functions by name (``cli`` holds its own reference to ``ouu_study``,
``uq`` to ``fit_interpolant``), so patching only the defining module would
miss those calls.

:func:`layer_metrics` turns the spans of one run into the per-layer
metrics listed in ``BENCHMARK.json``.  This module imports nothing from
numpy or kernelkit at module level, so ``run.py`` can use the
arithmetic without loading the library.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

LAYERS = ("pde", "surrogate", "kernels", "smolyak", "uq", "points")

# Mesh sizes (cells per side) that the workloads solve on; calls on any
# other size are counted under ``pde.solve.cother``.
MESH_CELLS = (2, 3, 4, 5, 6, 7, 9, 10, 11, 13, 16, 20)

# Counts that must repeat exactly for the same code and seed.  The number
# of solve calls is not among them: threads that miss the same cache
# entry at once may both solve it, so calls can exceed distinct inputs.
EXACT_COUNTS = (
    "pde.solve.distinct",
    "surrogate.evaluate.calls",
    "surrogate.evaluate.points",
    "surrogate.evaluate.kernel_entries",
    "kernels.fit.calls",
    "smolyak.terms",
    "smolyak.evals",
    "uq.minimize.objective_calls",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Hooks:
    """Per-target callbacks that derive span attributes from a call.

    ``before(args, kwargs)`` runs before the call and returns
    ``(args, kwargs, state)``, so it may substitute arguments;
    ``after(state, args, kwargs, result)`` runs after the span has ended
    and returns the span's attributes, so its cost is not charged to the
    span.
    """

    before: Callable | None = None
    after: Callable | None = None


class Recorder:
    """Collects spans from any thread.

    The parent of a span is the innermost open span of the same thread.
    A pool thread has no open span of its own when its first task starts;
    its parent is then the innermost open span of the thread that created
    the recorder, which is blocked waiting for the pool at that moment.
    """

    def __init__(self):
        self.spans: list[Span | None] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        try:
            return self._root[-1]
        except IndexError:
            return None

    def wrap(self, name: str, fn: Callable, hooks: Hooks = Hooks()) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = None
            if hooks.before is not None:
                args, kwargs, state = hooks.before(args, kwargs)
            stack = self._stack()
            parent = self._parent(stack)
            with self._lock:
                index = len(self.spans)
                self.spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[index] = Span(name, start, end, parent)
            if hooks.after is not None:
                self.spans[index].attrs = hooks.after(state, args, kwargs, result)
            return result

        return wrapper


@dataclass(frozen=True)
class Target:
    """One entry point to wrap: ``module.attr`` or ``module.Class.method``."""

    span: str
    module: str
    attr: str
    hooks: Hooks = Hooks()


def install(recorder: Recorder, targets, package: str) -> Callable[[], None]:
    """Wrap every target in every loaded module of ``package`` that holds it.

    A function is replaced in each module namespace where the very same
    object is bound, under whatever name.  A method is replaced on its
    class, which every namespace shares.  Returns a function that undoes
    all patches.
    """
    undo: list[tuple[Any, str, Any]] = []
    for target in targets:
        owner = importlib.import_module(target.module)
        head, _, method = target.attr.partition(".")
        if method:
            cls = getattr(owner, head)
            original = cls.__dict__[method]
            setattr(cls, method, recorder.wrap(target.span, original, target.hooks))
            undo.append((cls, method, original))
            continue
        original = getattr(owner, head)
        wrapper = recorder.wrap(target.span, original, target.hooks)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == package or name.startswith(package + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    undo.append((module, key, original))

    def restore() -> None:
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)

    return restore


# ---------------------------------------------------------------------------
# arithmetic over finished spans


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children running concurrently on several threads overlap; their union
    is subtracted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - covered(children.get(i, []), span.start, span.end)
        for i, span in enumerate(spans)
    ]


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer counts, busy times, ratios and shares of ``wall_s``.

    A layer's share is the self time of its spans over ``wall_s``.  Spans
    on concurrent threads each count, so with several workers a share can
    exceed 1.
    """
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name):
        return len(by_name.get(name, []))

    def seconds(name):
        return sum(s.duration for s in by_name.get(name, []))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, []))

    m: dict[str, float] = {}
    solves = by_name.get("pde.solve", [])
    m["pde.solve.calls"] = len(solves)
    m["pde.solve.s"] = seconds("pde.solve")
    m["pde.solve.ms_per_call"] = 1e3 * m["pde.solve.s"] / len(solves) if solves else 0.0
    m["pde.solve.distinct"] = len({s.attrs.get("input") for s in solves})
    m["pde.solve.useful_ratio"] = m["pde.solve.distinct"] / len(solves) if solves else 0.0
    for cells in MESH_CELLS:
        group = [s for s in solves if s.attrs.get("cells") == cells]
        m[f"pde.solve.c{cells}.calls"] = len(group)
        m[f"pde.solve.c{cells}.s"] = sum(s.duration for s in group)
    m["pde.solve.cother.calls"] = sum(
        1 for s in solves if s.attrs.get("cells") not in MESH_CELLS
    )
    factors = by_name.get("pde.field.factor", [])
    m["pde.field.factor.calls"] = len(factors)
    m["pde.field.factor.s"] = seconds("pde.field.factor")
    grids = {s.attrs.get("grid") for s in factors}
    m["pde.field.factor.useful_ratio"] = len(grids) / len(factors) if factors else 0.0
    m["pde.field.draw.calls"] = calls("pde.field.draw")
    m["pde.field.draw.s"] = seconds("pde.field.draw")

    evaluations = by_name.get("surrogate.evaluate", [])
    m["surrogate.evaluate.calls"] = len(evaluations)
    m["surrogate.evaluate.points"] = attr_sum("surrogate.evaluate", "points")
    m["surrogate.evaluate.kernel_entries"] = sum(
        s.attrs.get("points", 0) * s.attrs.get("node_rows", 0) for s in evaluations
    )
    m["surrogate.evaluate.s"] = seconds("surrogate.evaluate")
    shapes = {
        s.attrs["surrogate"]: (s.attrs["distinct_nodes"], s.attrs["node_rows"])
        for s in evaluations
        if "surrogate" in s.attrs
    }
    rows = sum(r for _, r in shapes.values())
    m["surrogate.evaluate.distinct_node_ratio"] = (
        sum(d for d, _ in shapes.values()) / rows if rows else 0.0
    )
    m["surrogate.point.calls"] = calls("surrogate.point")
    m["surrogate.point.s"] = seconds("surrogate.point")

    fits = by_name.get("kernels.fit", [])
    m["kernels.fit.calls"] = len(fits)
    m["kernels.fit.s"] = seconds("kernels.fit")
    m["kernels.fit.nodes_max"] = max((s.attrs.get("nodes", 0) for s in fits), default=0)
    m["kernels.fit.gram_entries"] = sum(s.attrs.get("nodes", 0) ** 2 for s in fits)

    own = self_times(spans)
    estimates = [i for i, s in enumerate(spans) if s.name == "smolyak.estimate"]
    m["smolyak.estimate.calls"] = len(estimates)
    m["smolyak.estimate.s"] = seconds("smolyak.estimate")
    m["smolyak.estimate.self_s"] = sum(own[i] for i in estimates)
    m["smolyak.terms"] = attr_sum("smolyak.estimate", "terms")
    m["smolyak.evals"] = attr_sum("smolyak.estimate", "evals")
    m["smolyak.memo_hit_ratio"] = (
        1.0 - m["smolyak.evals"] / m["smolyak.terms"] if m["smolyak.terms"] else 0.0
    )

    m["uq.minimize.s"] = seconds("uq.minimize")
    m["uq.minimize.objective_calls"] = attr_sum("uq.minimize", "objective_calls")
    m["uq.study.s"] = seconds("uq.study")
    m["points.generate.calls"] = calls("points.generate")
    m["points.generate.s"] = seconds("points.generate")

    busy = dict.fromkeys(LAYERS, 0.0)
    for span, own_s in zip(spans, own):
        layer = span.name.split(".", 1)[0]
        if layer in busy:
            busy[layer] += own_s
    for layer in LAYERS:
        m[f"{layer}.share"] = busy[layer] / wall_s
    return m


def spans_to_json(spans: list[Span]) -> list[list]:
    return [[s.name, s.start, s.end, s.parent, s.attrs] for s in spans]


def spans_from_json(rows: list[list]) -> list[Span]:
    return [Span(name, start, end, parent, attrs) for name, start, end, parent, attrs in rows]
