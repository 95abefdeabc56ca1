"""Outside-in tracing of obbkit's layers, for the benchmark's traced run.

The tracer wraps the functions each layer exposes, as they are bound in
the module that calls them, and restores every attribute afterwards.
Nothing inside ``obbkit`` changes.

Two kinds of wrapper record time:

* a *span* (name, start, end, parent) for calls made a few hundred
  times per command: commands, files, chunks, brands;
* a *call* for per-record functions (JSON decode, validation,
  ``normalize_quad``, ``iou_obb``...), kept as count, busy time and self
  time under the current span, so a million calls cost no memory.

Self time is a span's duration minus the part of its interval that its
child spans cover, minus the busy time of the calls made directly in it.
Tracing is for jobs=1 runs: forked workers would keep their records.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
import types
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    calls_s: float = 0.0  # busy time of per-record calls made directly in this span


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span: duration minus child-span coverage and direct call time."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - covered_length(children.get(i, []), s.start, s.end) - s.calls_s
        for i, s in enumerate(spans)
    ]


class Tracer:
    """Spans and per-record call statistics of one traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.calls: dict[str, list[float]] = {}  # name -> [count, busy_s, self_s]
        self.counters: dict[str, float] = {}
        # open frames, innermost last: [span index, or -1 for a call; time covered by children]
        self._stack: list[list] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _parent_span(self) -> int | None:
        for idx, _ in reversed(self._stack):
            if idx >= 0:
                return idx
        return None

    def _open_span(self, name: str) -> list:
        span = Span(name, self.clock(), 0.0, self._parent_span())
        frame = [len(self.spans), 0.0]
        self.spans.append(span)
        self._stack.append(frame)
        return frame

    def _close_span(self, frame: list) -> None:
        span = self.spans[frame[0]]
        span.end = self.clock()
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += span.end - span.start

    def span(self, name: str, fn, observe=None):
        """Wrap ``fn`` so each call is a span; ``observe(args, result)`` runs after it closes."""

        def wrapper(*args, **kwargs):
            frame = self._open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close_span(frame)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def span_iter(self, name: str, fn):
        """Wrap a generator function: the span runs from the first item to exhaustion."""

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def run():
                frame = self._open_span(name)
                try:
                    yield from inner
                finally:
                    self._close_span(frame)

            return run()

        return wrapper

    def call(self, name: str, fn, observe=None):
        """Wrap a per-record function: count, busy and self time, no span."""
        stat = self.calls.setdefault(name, [0, 0.0, 0.0])
        clock, stack, spans = self.clock, self._stack, self.spans

        def wrapper(*args, **kwargs):
            frame = [-1, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += dt
                    if parent[0] >= 0:
                        spans[parent[0]].calls_s += dt
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """Wrap ``fn`` to count its calls only."""

        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict:
        """Per-name totals: spans as {count, busy_s, self_s}, calls likewise, plus counters."""
        spans: dict[str, dict] = {}
        for s, own in zip(self.spans, self_times(self.spans)):
            agg = spans.setdefault(s.name, {"count": 0, "busy_s": 0.0, "self_s": 0.0})
            agg["count"] += 1
            agg["busy_s"] += s.end - s.start
            agg["self_s"] += own
        calls = {name: {"count": int(c), "busy_s": b, "self_s": o} for name, (c, b, o) in self.calls.items()}
        return {"spans": spans, "calls": calls, "counters": dict(self.counters)}


def _json_with_traced_loads(tracer: Tracer):
    proxy = types.SimpleNamespace(**vars(json))
    proxy.loads = tracer.call("formats.decode", json.loads)
    return proxy


def _patches(tracer: Tracer):
    """(module, attribute, replacement) for every wrapped layer function, as its caller binds it."""
    from obbkit import evaluation, formats, geometry, metrics, pipeline, tightness

    t = tracer

    def bytes_written(args, _result):
        t.count("formats.bytes_written", os.path.getsize(args[0]))

    def iou_result(_args, result):
        if result > 0.0:
            t.count("geometry.iou_nonzero")

    return [
        (pipeline, "json", _json_with_traced_loads(t)),
        (formats, "json", _json_with_traced_loads(t)),
        (pipeline, "validate_detection_obj", t.call("formats.validate", pipeline.validate_detection_obj)),
        (formats, "validate_detection_obj", t.call("formats.validate", formats.validate_detection_obj)),
        (pipeline, "iter_detections", t.span_iter("formats.iter_detections", pipeline.iter_detections)),
        (pipeline, "read_label_file", t.span("formats.read_label_file", pipeline.read_label_file)),
        (pipeline, "write_table", t.span("formats.write_table", pipeline.write_table, bytes_written)),
        (geometry, "normalize_quad", t.call("geometry.normalize_quad", geometry.normalize_quad)),
        (formats, "normalize_quad", t.call("geometry.normalize_quad", formats.normalize_quad)),
        (evaluation, "iou_obb", t.call("geometry.iou_obb", evaluation.iou_obb, iou_result)),
        (evaluation, "enclosing_hbb", t.call("geometry.enclosing_hbb", evaluation.enclosing_hbb)),
        (tightness, "enclosing_hbb", t.call("geometry.enclosing_hbb", tightness.enclosing_hbb)),
        (
            pipeline,
            "clip_areas_to_rect",
            t.span(
                "geometry.clip_areas_to_rect",
                pipeline.clip_areas_to_rect,
                lambda args, _r: t.count("geometry.clipped_quads", len(args[0])),
            ),
        ),
        (pipeline, "degenerate_mask", t.span("geometry.degenerate_mask", pipeline.degenerate_mask)),
        (metrics, "temporal_filter", t.span("metrics.temporal_filter", metrics.temporal_filter)),
        (metrics, "aggregate_brand", t.span("metrics.aggregate_brand", metrics.aggregate_brand)),
        (metrics, "build_timeline", t.span("metrics.build_timeline", metrics.build_timeline)),
        (
            metrics,
            "timeline_rows",
            t.span(
                "metrics.timeline_rows",
                metrics.timeline_rows,
                lambda _a, rows: t.count("metrics.timeline_rows", len(rows)),
            ),
        ),
        (pipeline, "run_analyze", t.span("pipeline.run_analyze", pipeline.run_analyze)),
        (pipeline, "run_evaluate", t.span("pipeline.run_evaluate", pipeline.run_evaluate)),
        (pipeline, "run_fit", t.span("pipeline.run_fit", pipeline.run_fit)),
        (pipeline, "_analyze_chunk", t.counter("pipeline.chunks", pipeline._analyze_chunk)),
        (evaluation, "match_frame", t.call("evaluation.match_frame", evaluation.match_frame)),
        (evaluation, "average_precision", t.span("evaluation.average_precision", evaluation.average_precision)),
        (tightness, "tr_sample", t.call("tightness.tr_sample", tightness.tr_sample)),
    ]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the layer wrappers for the duration of the block, then restore every attribute."""
    patches = _patches(tracer)
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    try:
        for mod, attr, new in patches:
            setattr(mod, attr, new)
        yield tracer
    finally:
        for mod, attr, old in reversed(saved):
            setattr(mod, attr, old)
