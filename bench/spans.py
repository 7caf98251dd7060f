"""In-memory span tracer that wraps rollcall's layers from the outside.

`install` replaces the public functions of the `protocol`, `counter`, `sim`,
`stats`, `client` and `timesync` modules, and the public methods of their
service classes, with wrappers that record a span per call: name, start,
end, parent span and request id. Every module that imported a function by
name (`from .protocol import decode_message`) is rebound too, so calls made
inside the package are seen. Dataclass value types (`RoundRef`,
`ExperimentConfig`, ...) are left alone: their methods are field accessors
whose wrapping would cost more than they do.

A layer's self time is its span's duration minus the time its child spans
cover. Spans nest strictly within one thread, so that is the duration minus
the sum of the direct children's durations, computed as each span closes.
Aggregates are kept for every span; the spans themselves are kept up to a
cap and written out at the end.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

LAYERS = ("protocol", "counter", "sim", "stats", "client", "timesync")


class Tracer:
    """Span and count recorder shared by every thread of one process."""

    def __init__(
        self, clock: Callable[[], int] = time.perf_counter_ns, keep_spans: int = 20_000
    ) -> None:
        self.clock = clock
        self.keep_spans = keep_spans
        self.active = True
        # (span id, name, start ns, end ns, parent id or None, request id)
        self.spans: list[tuple[int, str, int, int, int | None, Any]] = []
        # root spans (no parent in their thread): (name, start, end, request id)
        self.roots: list[tuple[str, int, int, Any]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._all_stats: list[dict[str, list[int]]] = []
        self._all_counts: list[dict[str, int]] = []
        self._register = threading.Lock()

    # -- per-thread state ------------------------------------------------------

    def _state(self) -> threading.local:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.request = None
            local.stats = {}
            local.counts = {}
            with self._register:
                self._all_stats.append(local.stats)
                self._all_counts.append(local.counts)
        return local

    def set_request(self, request: Any) -> None:
        """Tag the spans this thread opens from now on with `request`."""
        self._state().request = request

    def count(self, key: str, n: int = 1) -> None:
        counts = self._state().counts
        counts[key] = counts.get(key, 0) + n

    # -- spans -------------------------------------------------------------------

    def open(self, name: str) -> list:
        local = self._state()
        stack = local.stack
        parent = stack[-1][0] if stack else None
        frame = [next(self._ids), name, self.clock(), 0, parent, local.request]
        stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = self.clock()
        local = self._local
        stack = local.stack
        stack.pop()
        span_id, name, start, child_ns, parent, request = frame
        duration = end - start
        entry = local.stats.get(name)
        if entry is None:
            entry = local.stats[name] = [0, 0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_ns
        if stack:
            stack[-1][3] += duration
        else:
            self.roots.append((name, start, end, request))
        if len(self.spans) < self.keep_spans:
            self.spans.append((span_id, name, start, end, parent, request))

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        """`fn` recording a span per call; `hook(tracer, args, result)` counts."""

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(frame)
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- results -----------------------------------------------------------------

    def stats(self) -> dict[str, list[int]]:
        """name -> [calls, total ns, self ns], summed over threads."""
        merged: dict[str, list[int]] = {}
        for per_thread in list(self._all_stats):
            for name, (calls, total, own) in list(per_thread.items()):
                entry = merged.setdefault(name, [0, 0, 0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
        return merged

    def counts(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        for per_thread in list(self._all_counts):
            for key, n in list(per_thread.items()):
                merged[key] = merged.get(key, 0) + n
        return merged

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(
                {
                    "stats": self.stats(),
                    "counts": self.counts(),
                    "roots": self.roots,
                    "spans": self.spans,
                }
            ),
            encoding="utf-8",
        )


def covered_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


# --- hooks: counts taken where the work happens ----------------------------------


def _count_handle_line(tracer: Tracer, args: tuple, result: str) -> None:
    line = args[1]
    if line.startswith("REPORT "):
        tracer.count("counter.report_lines")
    if not result.startswith("SYNCR "):
        tracer.count("counter.logged_requests")
    if result.startswith("ACK"):
        tracer.count("counter.accepts")
    elif result.startswith("REJ "):
        tracer.count("counter.rejects_" + result[4:].lower())


def _count_net_request(tracer: Tracer, args: tuple, result: None) -> None:
    if args[1].startswith("REPORT "):
        tracer.count("sim.report_sends")


_HOOKS = {
    "counter.CounterCore.handle_line": _count_handle_line,
    "sim.VirtualNet.request": _count_net_request,
}


class TimedLock:
    """A lock whose acquisitions are recorded as `counter.lock_wait` spans."""

    def __init__(self, tracer: Tracer, lock: Any) -> None:
        self._tracer = tracer
        self._lock = lock

    def __enter__(self) -> "TimedLock":
        if self._tracer.active:
            frame = self._tracer.open("counter.lock_wait")
            self._lock.acquire()
            self._tracer.close(frame)
        else:
            self._lock.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self._lock.release()


def _wrappable(cls: type, module_name: str) -> bool:
    return (
        cls.__module__ == module_name
        and not dataclasses.is_dataclass(cls)
        and not issubclass(cls, BaseException)
        and not getattr(cls, "_is_protocol", False)
        and not hasattr(cls, "__members__")  # enums
    )


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer of the imported `rollcall` package; returns an undo."""
    replaced: dict[Callable, Callable] = {}
    undo: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, value: Any) -> None:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    for layer in LAYERS:
        module = importlib.import_module(f"rollcall.{layer}")
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                name = f"{layer}.{attr}"
                replaced[obj] = tracer.wrap(name, obj, _HOOKS.get(name))
            elif inspect.isclass(obj) and _wrappable(obj, module.__name__):
                for method, fn in list(vars(obj).items()):
                    if not inspect.isfunction(fn):
                        continue
                    if method.startswith("_") and method != "__init__":
                        continue
                    name = f"{layer}.{attr}.{method}"
                    patch(obj, method, tracer.wrap(name, fn, _HOOKS.get(name)))

    # rebind every by-name import of a wrapped function inside the package
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "rollcall" and not mod_name.startswith("rollcall."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in replaced:
                patch(module, attr, replaced[obj])

    # the network model's drop decision is private; count its outcomes only
    sim = importlib.import_module("rollcall.sim")
    lost = sim.VirtualNet._lost

    def counted_lost(self, at_ms):
        result = lost(self, at_ms)
        if result and tracer.active:
            tracer.count("sim.drops")
        return result

    patch(sim.VirtualNet, "_lost", counted_lost)

    # fsync is the durable half of a log append; time it apart from the write
    patch(os, "fsync", tracer.wrap("counter.fsync", os.fsync))

    # the live service: time lock waits and tag each request's spans
    counter = importlib.import_module("rollcall.counter")
    service_init = counter.CounterService.__init__
    service_handle = counter.CounterService.handle
    connections: dict[int, int] = {}
    sequence = threading.local()

    def traced_init(self, *args, **kwargs):
        service_init(self, *args, **kwargs)
        self._lock = TimedLock(tracer, self._lock)

    def tagged_handle(self, line):
        # connection index = order of first request per serving thread;
        # sequence = request number on that connection, as the client counts
        if not hasattr(sequence, "n"):
            sequence.n = 0
            connections[threading.get_ident()] = len(connections)
        tracer.set_request((connections[threading.get_ident()], sequence.n))
        sequence.n += 1
        return service_handle(self, line)

    patch(counter.CounterService, "__init__", traced_init)
    patch(counter.CounterService, "handle", tagged_handle)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
