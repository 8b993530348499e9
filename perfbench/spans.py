"""Spans around the public functions of each ringcache module.

A ``from .x import f`` binds ``f`` in the importing module at import time,
so each boundary is replaced in its defining module and in every other
``ringcache`` module that holds the same function object. A boundary that
no longer exists is reported as absent rather than failing the run.

Spans are kept in memory as ``[name, start, end, parent, op, gc_s]``;
``parent`` is the index of the enclosing span (-1 for a root) and ``gc_s``
the collector pauses that happened while the span was innermost.
"""

from __future__ import annotations

import functools
import gc
import sys
import tracemalloc
from time import perf_counter
from typing import Callable

MODULES = ("cli", "placement", "delivery", "model", "analysis", "verify")

BOUNDARIES = (
    "cli.main",
    "placement.build_layout",
    "placement.layout_to_json",
    "placement.demand_pairs",
    "delivery.deliver",
    "delivery.verify_decodability",
    "delivery.format_log",
    "model.position_sets",
    "analysis.rate_with_sharing",
    "analysis.achievable_rate",
    "analysis.table1_counts",
    "analysis.cutset_bound",
    "analysis.memory_share",
    "verify.count_vs_formula",
    "verify.enumerate_transmission_subsets",
)

# measured with tracemalloc in a pass of their own
ALLOC_BOUNDARIES = ("placement.build_layout", "delivery.deliver")

NAME, START, END, PARENT, OP, GC = range(6)


def install(boundaries, make_wrapper: Callable[[str, Callable], Callable]):
    """Wrap each boundary wherever a ``ringcache`` module binds it.

    Returns ``(found, absent, undo)``; call ``undo()`` to restore the
    original functions.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "ringcache" or name.startswith("ringcache."))]
    found, absent, patched = [], [], []
    for boundary in boundaries:
        module_name, func_name = boundary.split(".")
        home = sys.modules.get(f"ringcache.{module_name}")
        original = getattr(home, func_name, None)
        if not callable(original):
            absent.append(boundary)
            continue
        wrapper = make_wrapper(boundary, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, original))
        found.append(boundary)

    def undo() -> None:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)

    return found, absent, undo


class Tracer:
    """Records one span per boundary call made while an op runs (``op`` is
    the op's index, -1 between ops), and charges each collector pause to
    the innermost open span."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.gen2_collections = 0
        self._gc_start = 0.0

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op < 0:  # outside an op: the benchmark's own checks
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0]
            spans.append(span)
            stack.append(index)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()

        return traced

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
            if info["generation"] == 2:
                self.gen2_collections += 1
        elif self.stack:
            self.spans[self.stack[-1]][GC] += perf_counter() - self._gc_start

    def __enter__(self) -> "Tracer":
        gc.callbacks.append(self.on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self.on_gc)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover. Children
    of one span never overlap (one thread), so their durations add up."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - covered[i] for i, span in enumerate(spans)]


def layer_metrics(spans: list[list], gen2_collections: int) -> dict:
    """Per-boundary calls and self time, per-module self and GC time."""
    selfs = self_times(spans)
    calls = dict.fromkeys(BOUNDARIES, 0)
    self_s = dict.fromkeys(BOUNDARIES, 0.0)
    module_self = dict.fromkeys(MODULES, 0.0)
    module_gc = dict.fromkeys(MODULES, 0.0)
    for span, own in zip(spans, selfs):
        name = span[NAME]
        module = name.split(".", 1)[0]
        calls[name] += 1
        self_s[name] += own
        module_self[module] += own
        module_gc[module] += span[GC]
    metrics = {}
    for name in BOUNDARIES:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    for module in MODULES:
        metrics[f"{module}.self_s"] = (module_self[module], "s")
        metrics[f"{module}.gc_ms"] = (module_gc[module] * 1000, "ms")
    metrics["gc.gen2_collections"] = (gen2_collections, "count")
    return metrics


class AllocProbe:
    """Peak bytes allocated during each call of a boundary, traced by
    tracemalloc only while that call runs."""

    def __init__(self) -> None:
        self.peak: dict[str, int] = {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        peak = self.peak

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if tracemalloc.is_tracing():  # nested in another probed call
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak[name] = max(peak.get(name, 0), tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return probed
