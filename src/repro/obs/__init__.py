"""Unified observability for the render/serve stack.

Two halves, one contract:

- :mod:`repro.obs.trace` — :class:`Tracer`, a bounded-ring span
  recorder with an injectable monotonic clock, cross-process span
  stitching over the executor pipe, and Chrome/Perfetto trace-event
  JSON export.  ``serve-sim --trace out.json`` produces one coherent
  timeline for a worker-pooled, prefetching replay.
- :mod:`repro.obs.metrics` — :class:`MetricsRegistry`, the
  process-wide registry of int-like :class:`Counter` values, callback
  :class:`Gauge` views, and mergeable log-bucket :class:`Histogram`
  latencies with ``snapshot()``/``delta`` semantics and Prometheus
  text exposition.  The serve tier's pre-existing ``stats()`` dicts
  are thin views over objects registered here.

See ``src/repro/obs/README.md`` for the overhead budget and the
Perfetto how-to.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    delta,
    set_default_registry,
)
from .trace import (
    NULL_SPAN,
    Tracer,
    active_tracer,
    backend_span,
    set_active_tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Tracer",
    "active_tracer",
    "backend_span",
    "default_registry",
    "delta",
    "set_active_tracer",
    "set_default_registry",
]
