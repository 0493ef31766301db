"""Per-layer wall-clock tracing, measured from outside the program.

Nothing under ``src/`` knows it is being timed: :func:`instrument`
installs wrappers around public entry points of each module for the
duration of one traced run, and every wrapper appends one span to a
:class:`SpanLog`. The wrappers are

* forwarding proxies for the policy's scheduler (passed in through
  ``BufferedSchedulingPolicy.with_scheduler``) and for
  ``FleetServer.router``;
* class-level wraps of ``FleetServer.run``, ``EnsembleServer.run``,
  ``ServingSession.offer/advance/finish``,
  ``BufferedSchedulingPolicy.make_request``, ``RecordingTracer.emit``,
  ``LiveTelemetry.tick`` and ``Controller.tick``;
* the ``SchedulingInstance`` name the serving loop constructs;
* a ``gc.callbacks`` hook (collector passes become ``runtime.gc`` spans).

The run is single-threaded, so a stack of open spans gives each span
its parent; a layer's self time is its spans' durations minus the
durations of their direct children.
"""

from __future__ import annotations

import gc
import time
from array import array
from contextlib import contextmanager
from typing import Dict, Iterator, List

import numpy as np

import repro.serving.server as serving_server
from repro.control.controller import Controller
from repro.fleet.server import FleetServer
from repro.obs.live import LiveTelemetry
from repro.obs.tracer import RecordingTracer
from repro.serving.policies import BufferedSchedulingPolicy
from repro.serving.server import EnsembleServer, ServingSession

# Span names, in code order; the prefix before the dot is the layer.
SPAN_NAMES = (
    "bench.serve",
    "fleet.run",
    "fleet.route",
    "serving.run",
    "serving.offer",
    "serving.advance",
    "serving.finish",
    "serving.request",
    "scheduling.instance",
    "scheduling.schedule",
    "obs.emit",
    "obs.live_tick",
    "control.tick",
    "runtime.gc",
)
CODE = {name: code for code, name in enumerate(SPAN_NAMES)}


class SpanLog:
    """Columnar in-memory span store (one row per timed call).

    ``tag`` carries the query id for per-query calls, the batch size
    for scheduler calls, and -1 otherwise.
    """

    def __init__(self, run: int):
        self.run = run
        self.code = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.tag = array("l")
        self._stack: List[int] = []
        self.spans_kept = 0

    def open(self, code: int, tag: int = -1) -> int:
        idx = len(self.code)
        stack = self._stack
        self.parent.append(stack[-1] if stack else -1)
        self.code.append(code)
        self.tag.append(tag)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def arrays(self) -> Dict[str, np.ndarray]:
        """The columns as numpy arrays (plus durations)."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        return {
            "code": np.frombuffer(self.code, dtype=np.int8).astype(int),
            "start": start,
            "end": end,
            "dur": end - start,
            "parent": np.frombuffer(self.parent, dtype=np.int_),
            "tag": np.frombuffer(self.tag, dtype=np.int_),
        }

    def save(self, path) -> None:
        """Write the spans as ``.npz`` columns (names in ``names``)."""
        cols = self.arrays()
        np.savez(
            path,
            names=np.asarray(SPAN_NAMES),
            run=np.int64(self.run),
            code=cols["code"],
            start=cols["start"],
            end=cols["end"],
            parent=cols["parent"],
            tag=cols["tag"],
        )


def _timed(log: SpanLog, name: str, fn, tag_of=None):
    """Wrap ``fn`` so each call is one span; ``tag_of`` maps the call's
    positional arguments to the span's tag."""
    code = CODE[name]

    def wrapper(*args, **kwargs):
        tag = tag_of(*args) if tag_of is not None else -1
        idx = log.open(code, tag)
        try:
            return fn(*args, **kwargs)
        finally:
            log.close(idx)

    return wrapper


class TimedProxy:
    """Times one method of the wrapped object and forwards every other
    attribute read and write to it, so the server's feature probes on a
    scheduler (``profile``, ``collect_stats``, ``last_used_fallback``)
    see the object itself."""

    def __init__(self, inner, log: SpanLog, method: str, name: str, tag_of):
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(
            self, method, _timed(log, name, getattr(inner, method), tag_of)
        )

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __setattr__(self, name, value):
        setattr(self._inner, name, value)


def scheduler_proxy(scheduler, log: SpanLog) -> TimedProxy:
    """Times ``schedule()``; the tag is the batch size."""
    return TimedProxy(
        scheduler, log, "schedule", "scheduling.schedule",
        lambda instance: len(instance.queries),
    )


def router_proxy(router, log: SpanLog) -> TimedProxy:
    """Times ``choose()``; the tag is the query id."""
    return TimedProxy(
        router, log, "choose", "fleet.route", lambda query_id, *_: query_id
    )


def _timed_emit(log: SpanLog, fn):
    code = CODE["obs.emit"]

    def emit(self, kind, time, query_id=-1, **attrs):
        if self.keep_spans:
            log.spans_kept += 1
        idx = log.open(code, query_id)
        try:
            return fn(self, kind, time, query_id, **attrs)
        finally:
            log.close(idx)

    return emit


@contextmanager
def instrument(log: SpanLog) -> Iterator[None]:
    """Install the class- and module-level wrappers for one traced run.

    The proxies are per object, so the caller installs them when it
    builds the server. Everything patched here is restored on exit,
    even if the run raises.
    """
    patches = [
        (FleetServer, "run", _timed(log, "fleet.run", FleetServer.run)),
        (EnsembleServer, "run",
         _timed(log, "serving.run", EnsembleServer.run)),
        (ServingSession, "offer",
         _timed(log, "serving.offer", ServingSession.offer)),
        (ServingSession, "advance",
         _timed(log, "serving.advance", ServingSession.advance)),
        (ServingSession, "finish",
         _timed(log, "serving.finish", ServingSession.finish)),
        (BufferedSchedulingPolicy, "make_request",
         _timed(log, "serving.request",
                BufferedSchedulingPolicy.make_request,
                lambda policy, query_id, *_: query_id)),
        (RecordingTracer, "emit", _timed_emit(log, RecordingTracer.emit)),
        (LiveTelemetry, "tick",
         _timed(log, "obs.live_tick", LiveTelemetry.tick)),
        (Controller, "tick", _timed(log, "control.tick", Controller.tick)),
        (serving_server, "SchedulingInstance",
         _timed(log, "scheduling.instance",
                serving_server.SchedulingInstance)),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    gc_code = CODE["runtime.gc"]
    gc_open: List[int] = []

    def on_gc(phase, info):
        if phase == "start":
            gc_open.append(log.open(gc_code, info["generation"]))
        elif gc_open:
            log.close(gc_open.pop())

    gc.callbacks.append(on_gc)
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield
    finally:
        gc.callbacks.remove(on_gc)
        for owner, attr, original in saved:
            setattr(owner, attr, original)
