"""Low-overhead span tracer with Chrome/Perfetto trace-event export.

A :class:`Tracer` records closed spans — ``(name, category, t0, t1,
pid, tid, args)`` — into a bounded ring buffer and exports them as
Chrome trace-event JSON (the format ``chrome://tracing`` and
https://ui.perfetto.dev load natively).  It is deliberately *not* an
OpenTelemetry-style context-propagating tracer: the serve tier already
knows every request's lifecycle stamps (it computes latencies from
them), so spans are mostly recorded post-hoc from timestamps that
already exist.  What the tracer adds is retention, cross-process
stitching, and an export format.

Three properties carry the design:

- **Disabled means free.**  Every instrumentation site is either
  ``if tracer is not None`` on an attribute the hot path already
  touches, or :func:`backend_span` — one module-global load and an
  ``is None`` test returning a singleton no-op context manager.  The
  CI bench gates the off-path at ≤2% of serve throughput.
- **Cross-process timestamps need no translation.**  The default clock
  is ``time.perf_counter``, which on Linux is ``CLOCK_MONOTONIC`` —
  one clock domain shared by parent and forked/spawned workers.
  Worker spans ship across the executor pipe as compact tuples
  (:func:`Tracer.drain_compact`) piggybacked on the render payload and
  are re-attached with :func:`Tracer.adopt`; the export pass rebases
  everything to the earliest span, so the stitched timeline is
  coherent without clock negotiation.
- **Bounded memory.**  The ring buffer (``capacity`` spans, default
  65536) evicts oldest-first and counts what it dropped; a runaway
  replay degrades the trace, never the process.

Timestamps inside the tracer are seconds (whatever ``clock`` returns);
export converts to the trace-event format's microseconds.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from typing import Callable, Iterable, Sequence

__all__ = [
    "NULL_SPAN",
    "Tracer",
    "active_tracer",
    "backend_span",
    "set_active_tracer",
]

# Compact wire form of one span: (name, cat, t0, t1, tid, args|None).
CompactSpan = tuple


class _NullSpan:
    """Singleton no-op context manager for disabled tracing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


NULL_SPAN = _NullSpan()


class _LiveSpan:
    """Context manager that records one span on exit."""

    __slots__ = ("_tracer", "_name", "_cat", "_tid", "_args", "_t0")

    def __init__(self, tracer: "Tracer", name: str, cat: str, tid: int, args: dict | None) -> None:
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._tid = tid
        self._args = args
        self._t0 = 0.0

    def __enter__(self) -> "_LiveSpan":
        self._t0 = self._tracer.clock()
        return self

    def __exit__(self, *exc) -> None:
        tracer = self._tracer
        tracer.add(self._name, self._cat, self._t0, tracer.clock(), tid=self._tid, args=self._args)


class Tracer:
    """Bounded ring buffer of closed spans, one per traced operation.

    ``clock`` must be monotonic and shared with whoever else records
    into (or is adopted by) this tracer; the default
    ``time.perf_counter`` satisfies that across processes on Linux.
    ``tid`` is a free-form integer lane — the serve tier uses lane 0
    for its batcher and ``CLIENT_TID_BASE + client_id`` for per-client
    request lanes; workers get their own ``pid`` row.
    """

    #: Request lanes start here so they never collide with the batcher lane.
    CLIENT_TID_BASE = 100

    def __init__(
        self,
        capacity: int = 65536,
        *,
        clock: Callable[[], float] = time.perf_counter,
        pid: int | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.clock = clock
        self.pid = os.getpid() if pid is None else pid
        self.dropped = 0
        self._spans: deque[tuple] = deque(maxlen=capacity)
        # (pid, tid) -> label and pid -> label, emitted as metadata events.
        self._thread_names: dict[tuple[int, int], str] = {}
        self._process_names: dict[int, str] = {}

    # -- recording ---------------------------------------------------------
    def add(
        self,
        name: str,
        cat: str,
        t0: float,
        t1: float,
        *,
        tid: int = 0,
        args: dict | None = None,
        pid: int | None = None,
    ) -> None:
        """Record a closed span from existing timestamps (seconds)."""
        if len(self._spans) == self.capacity:
            self.dropped += 1
        self._spans.append((name, cat, t0, t1, self.pid if pid is None else pid, tid, args))

    def span(self, name: str, cat: str = "serve", *, tid: int = 0, args: dict | None = None) -> _LiveSpan:
        """Context manager timing a block with this tracer's clock."""
        return _LiveSpan(self, name, cat, tid, args)

    def name_thread(self, tid: int, label: str, *, pid: int | None = None) -> None:
        self._thread_names[(self.pid if pid is None else pid, tid)] = label

    def name_process(self, pid: int, label: str) -> None:
        self._process_names[pid] = label

    # -- cross-process stitching -------------------------------------------
    def drain_compact(self) -> list[CompactSpan]:
        """Drain all spans to compact tuples for the executor pipe."""
        out = [(name, cat, t0, t1, tid, args) for (name, cat, t0, t1, _pid, tid, args) in self._spans]
        self._spans.clear()
        return out

    def adopt(self, spans: Sequence[CompactSpan], *, pid: int, process_label: str | None = None) -> None:
        """Stitch compact worker spans (same clock domain) into this trace."""
        if process_label is not None and pid not in self._process_names:
            self._process_names[pid] = process_label
        for name, cat, t0, t1, tid, args in spans:
            self.add(name, cat, t0, t1, tid=tid, args=args, pid=pid)

    # -- introspection -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._spans)

    def spans(self) -> list[tuple]:
        """Current contents, oldest first: (name, cat, t0, t1, pid, tid, args)."""
        return list(self._spans)

    # -- export ------------------------------------------------------------
    def to_chrome_trace(self) -> dict:
        """Chrome trace-event JSON object (``traceEvents`` list).

        All timestamps are rebased to the earliest span so the viewer
        opens at t=0; durations are microseconds per the format.  Spans
        are complete events (``ph: "X"``); track labels become metadata
        events (``ph: "M"``).
        """
        spans = list(self._spans)
        base = min((s[2] for s in spans), default=0.0)
        events: list[dict] = []
        for pid, label in sorted(self._process_names.items()):
            events.append(
                {"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "args": {"name": label}}
            )
        for (pid, tid), label in sorted(self._thread_names.items()):
            events.append(
                {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid, "args": {"name": label}}
            )
        for name, cat, t0, t1, pid, tid, args in spans:
            event = {
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": (t0 - base) * 1e6,
                "dur": max(0.0, (t1 - t0) * 1e6),
                "pid": pid,
                "tid": tid,
            }
            if args:
                event["args"] = args
            events.append(event)
        events.sort(key=lambda e: (e.get("ts", -1.0), e["pid"], e["tid"]))
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_spans": self.dropped},
        }

    def write(self, path: str | os.PathLike) -> int:
        """Write the Chrome trace JSON to ``path``; returns span count."""
        payload = self.to_chrome_trace()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
        return len(self._spans)


# -- module-global activation (the backend-span seam) -----------------------
#
# Backends sit several layers below the serve loop and must not grow a
# tracer parameter through every dispatch signature.  Instead the layer
# that owns a tracer activates it around the render call; backend code
# asks for the active tracer through `backend_span`, which costs one
# global load + `is None` when tracing is off.

_ACTIVE: Tracer | None = None


def active_tracer() -> Tracer | None:
    return _ACTIVE


def set_active_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` as the process-active tracer; returns the previous.

    Callers restore the previous value when their scope ends (see
    ``ServeLoop._render_inline`` and ``workers._worker_render``).
    """
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = tracer
    return prev


def backend_span(name: str, cat: str = "backend", *, tid: int = 0, args: dict | None = None):
    """Span on the active tracer, or the no-op singleton when tracing is off."""
    tracer = _ACTIVE
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, cat, tid=tid, args=args)
