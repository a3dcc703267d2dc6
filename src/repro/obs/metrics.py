"""Process-wide metrics: counters, gauges, and log-bucket histograms.

One registry for the whole render/serve stack.  The pre-existing stats
surfaces (``FrameCache``, ``ViewCache``, ``ServeLoop.prefetch_stats``,
``RenderWorkerPool.transport_stats``, ``SlabArena.stats``) re-register their counters and gauges here and keep
their ``stats()`` dicts as thin views over the same objects, so nothing
is counted twice and nothing drifts.

Design constraints, in order:

- **Int compatibility.**  Call sites across the serve tier mutate cache
  counters directly (``cache.hits += 1``) and tests compare them to
  plain ints (``assert cache.hits == 3``, ``cache.hits / total``).
  :class:`Counter` is therefore a full int-like value object — ``+=``,
  comparisons, arithmetic, ``int()`` — not a method-only facade, so the
  migration changes zero call sites.
- **Mergeable percentiles.**  :class:`Histogram` uses geometric
  ("log") buckets so two histograms recorded by different loops (or in
  different processes) merge by adding bucket counts, and percentiles
  of the merged distribution are exact up to bucket resolution
  (~10% relative error at the default growth factor).  Averaging
  per-source percentiles — the bug class this replaces — has no such
  guarantee.
- **Delta semantics.**  ``snapshot()`` returns a plain dict of numbers;
  ``delta(prev, cur)`` subtracts monotonic values so a caller can meter
  an interval (one replay, one batch window) without resetting anything.

Exposition is Prometheus text format (``render_prometheus``) because it
is line-oriented, greppable, and loads into anything.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Iterable, Mapping

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "delta",
    "set_default_registry",
]


def _label_suffix(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return "{" + inner + "}"


class Counter:
    """A monotonic integer that behaves like an ``int`` at call sites.

    Existing code does ``cache.hits += 1`` and ``cache.hits / total``;
    both keep working when the attribute becomes a :class:`Counter`.
    ``+=`` mutates in place (``__iadd__`` returns ``self``), so the
    object identity registered on a :class:`MetricsRegistry` survives
    augmented assignment — the registry always sees the live value.
    """

    __slots__ = ("_value",)

    def __init__(self, value: int = 0) -> None:
        self._value = int(value)

    @property
    def value(self) -> int:
        return self._value

    def inc(self, n: int = 1) -> None:
        self._value += int(n)

    def reset(self) -> None:
        self._value = 0

    # -- int-like protocol -------------------------------------------------
    def __iadd__(self, other: int) -> "Counter":
        self._value += int(other)
        return self

    def __isub__(self, other: int) -> "Counter":
        self._value -= int(other)
        return self

    def __int__(self) -> int:
        return self._value

    __index__ = __int__

    def __float__(self) -> float:
        return float(self._value)

    def __bool__(self) -> bool:
        return self._value != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Counter):
            return self._value == other._value
        return self._value == other

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash(self._value)

    def __lt__(self, other) -> bool:
        return self._value < int(other)

    def __le__(self, other) -> bool:
        return self._value <= int(other)

    def __gt__(self, other) -> bool:
        return self._value > int(other)

    def __ge__(self, other) -> bool:
        return self._value >= int(other)

    def __add__(self, other):
        return self._value + other

    __radd__ = __add__

    def __sub__(self, other):
        return self._value - other

    def __rsub__(self, other):
        return other - self._value

    def __mul__(self, other):
        return self._value * other

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._value / other

    def __rtruediv__(self, other):
        return other / self._value

    def __floordiv__(self, other):
        return self._value // other

    def __mod__(self, other):
        return self._value % other

    def __neg__(self):
        return -self._value

    def __repr__(self) -> str:
        return f"Counter({self._value})"

    def __format__(self, spec: str) -> str:
        return format(self._value, spec)


class Gauge:
    """A point-in-time value: either set directly or backed by a callable.

    Callback gauges (``Gauge(fn=...)``) are how the existing stats
    surfaces re-register without rewriting their internals: the gauge
    reads the live attribute at snapshot time.
    """

    __slots__ = ("_value", "_fn")

    def __init__(self, value: float = 0.0, fn: Callable[[], float] | None = None) -> None:
        self._value = value
        self._fn = fn

    @property
    def value(self) -> float:
        if self._fn is not None:
            return self._fn()
        return self._value

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise ValueError("cannot set() a callback-backed gauge")
        self._value = value

    def __repr__(self) -> str:
        return f"Gauge({self.value!r})"


class Histogram:
    """Log-bucket histogram with exact merge and bucketed percentiles.

    Buckets are geometric: bucket ``i`` covers
    ``[v0 * growth**i, v0 * growth**(i+1))`` with ``v0 = 1e-6`` and
    ``growth = 1.2`` by default — for latencies in seconds that is 1 µs
    resolution at the bottom and ~10% relative error everywhere.
    Values ``<= v0`` land in the underflow bucket (index ``-1``).

    ``merge`` adds bucket counts, which is exactly the histogram of the
    concatenated samples; percentiles computed after a merge are
    therefore correct across loops/processes up to bucket width.

    ``observe`` only appends to a pending list, which is folded into the
    buckets before every read, merge and snapshot, and whenever it reaches
    :attr:`FOLD_AT` values.  Folding visits values in observation order,
    so every statistic equals observing them one at a time; the hot path
    pays one list append.
    """

    __slots__ = (
        "v0", "growth", "_log_growth", "_buckets", "_count", "_sum", "_min",
        "_max", "_pending",
    )

    FOLD_AT = 4096

    def __init__(self, *, v0: float = 1e-6, growth: float = 1.2) -> None:
        if not v0 > 0.0:
            raise ValueError(f"v0 must be positive, got {v0}")
        if not growth > 1.0:
            raise ValueError(f"growth must exceed 1, got {growth}")
        self.v0 = v0
        self.growth = growth
        self._log_growth = math.log(growth)
        self._buckets: dict[int, int] = {}
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._pending: list[float] = []

    # -- recording ---------------------------------------------------------
    def observe(self, value: float) -> None:
        pending = self._pending
        pending.append(value)
        if len(pending) >= self.FOLD_AT:
            self._fold()

    def _fold(self) -> None:
        """Move the pending values into the buckets, in one vector pass.

        The running sum is a sequential ``add.accumulate`` seeded with the
        current sum, so it rounds exactly like one ``+=`` per value.
        """
        pending, self._pending = self._pending, []
        if not pending:
            return
        values = np.asarray(pending, dtype=np.float64)
        idx = np.full(values.shape, -1, dtype=np.int64)
        over = values > self.v0
        idx[over] = np.log(values[over] / self.v0) / self._log_growth
        buckets = self._buckets
        for i, n in zip(*np.unique(idx, return_counts=True)):
            buckets[int(i)] = buckets.get(int(i), 0) + int(n)
        seeded = np.empty(values.shape[0] + 1)
        seeded[0], seeded[1:] = self._sum, values
        self._sum = float(np.add.accumulate(seeded)[-1])
        self._min = min(self._min, float(values.min()))
        self._max = max(self._max, float(values.max()))
        self._count += len(pending)

    # -- introspection -----------------------------------------------------
    @property
    def count(self) -> int:
        return self._count + len(self._pending)

    @property
    def sum(self) -> float:
        self._fold()
        return self._sum

    @property
    def min(self) -> float:
        self._fold()
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        self._fold()
        return self._max if self._count else 0.0

    def mean(self) -> float:
        count = self.count
        return self.sum / count if count else 0.0

    def bucket_upper(self, idx: int) -> float:
        return self.v0 * self.growth ** (idx + 1)

    def buckets(self) -> dict[int, int]:
        self._fold()
        return dict(self._buckets)

    def percentile(self, q: float) -> float:
        """Value at quantile ``q`` (0..100), resolved to bucket geometry.

        Returns the geometric midpoint of the bucket containing the
        target rank, clamped to the observed ``[min, max]`` so tiny
        sample counts do not report values outside the data.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        self._fold()
        if self._count == 0:
            return 0.0
        rank = q / 100.0 * self._count
        cumulative = 0
        for idx in sorted(self._buckets):
            cumulative += self._buckets[idx]
            if cumulative >= rank:
                if idx == -1:
                    return min(max(self.v0, self._min), self._max)
                lo = self.v0 * self.growth**idx
                hi = self.v0 * self.growth ** (idx + 1)
                mid = math.sqrt(lo * hi)
                return min(max(mid, self._min), self._max)
        return self._max

    # -- merge -------------------------------------------------------------
    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into ``self`` (in place); returns ``self``."""
        if (other.v0, other.growth) != (self.v0, self.growth):
            raise ValueError(
                "cannot merge histograms with different bucket geometry: "
                f"({self.v0}, {self.growth}) vs ({other.v0}, {other.growth})"
            )
        self._fold()
        other._fold()
        for idx, n in other._buckets.items():
            self._buckets[idx] = self._buckets.get(idx, 0) + n
        self._count += other._count
        self._sum += other._sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        return self

    @classmethod
    def merged(cls, histograms: Iterable["Histogram"]) -> "Histogram":
        """A fresh histogram holding the union of ``histograms``."""
        histograms = list(histograms)
        if not histograms:
            return cls()
        out = cls(v0=histograms[0].v0, growth=histograms[0].growth)
        for h in histograms:
            out.merge(h)
        return out

    def __repr__(self) -> str:
        return f"Histogram(count={self.count}, sum={self.sum:.6g})"


class MetricsRegistry:
    """Named view over live :class:`Counter`/:class:`Gauge`/:class:`Histogram` objects.

    Registration *attaches* an existing object under ``(name, labels)``
    — it never copies — so components keep mutating their own counters
    and the registry always reads current values.  Thread-safe for
    registration; reads are dict scans over immutable snapshots of the
    key set (fine under the GIL for this stack's access patterns).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], object] = {}
        self._help: dict[str, str] = {}

    @staticmethod
    def _key(name: str, labels: Mapping[str, str]) -> tuple[str, tuple[tuple[str, str], ...]]:
        return name, tuple(sorted((k, str(v)) for k, v in labels.items()))

    def register(self, name: str, metric, *, help: str = "", **labels: str):
        """Attach ``metric`` under ``name`` + ``labels``; returns it.

        Re-registering the same key replaces the binding (components are
        recreated freely in tests and replays; last writer wins).
        """
        if not isinstance(metric, (Counter, Gauge, Histogram)):
            raise TypeError(f"not a metric: {metric!r}")
        with self._lock:
            self._metrics[self._key(name, labels)] = metric
            if help:
                self._help[name] = help
        return metric

    def counter(self, name: str, *, help: str = "", **labels: str) -> Counter:
        return self.register(name, Counter(), help=help, **labels)

    def gauge(self, name: str, *, help: str = "", **labels: str) -> Gauge:
        return self.register(name, Gauge(), help=help, **labels)

    def gauge_fn(self, name: str, fn: Callable[[], float], *, help: str = "", **labels: str) -> Gauge:
        return self.register(name, Gauge(fn=fn), help=help, **labels)

    def histogram(self, name: str, *, help: str = "", **labels: str) -> Histogram:
        return self.register(name, Histogram(), help=help, **labels)

    def unregister(self, name: str, **labels: str) -> None:
        with self._lock:
            self._metrics.pop(self._key(name, labels), None)

    def get(self, name: str, **labels: str):
        return self._metrics.get(self._key(name, labels))

    def names(self) -> list[str]:
        return sorted({name for name, _ in self._metrics})

    def __len__(self) -> int:
        return len(self._metrics)

    # -- snapshots ---------------------------------------------------------
    def snapshot(self) -> dict[str, float | int | dict]:
        """Flat ``{"name{k=\"v\"}": value}`` dict of current values.

        Counters snapshot to ``int``, gauges to ``float``, histograms to
        a small dict (count / sum / p50 / p90 / p99 in the recorded
        unit).  The result is plain data — safe to diff, pickle, or
        dump as JSON.
        """
        out: dict[str, float | int | dict] = {}
        for (name, labels), metric in sorted(self._metrics.items()):
            key = name + _label_suffix(dict(labels))
            if isinstance(metric, Counter):
                out[key] = metric.value
            elif isinstance(metric, Gauge):
                out[key] = metric.value
            else:
                assert isinstance(metric, Histogram)
                out[key] = {
                    "count": metric.count,
                    "sum": metric.sum,
                    "p50": metric.percentile(50.0),
                    "p90": metric.percentile(90.0),
                    "p99": metric.percentile(99.0),
                }
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the current values."""
        lines: list[str] = []
        by_name: dict[str, list[tuple[tuple[tuple[str, str], ...], object]]] = {}
        for (name, labels), metric in sorted(self._metrics.items()):
            by_name.setdefault(name, []).append((labels, metric))
        for name, entries in sorted(by_name.items()):
            if name in self._help:
                lines.append(f"# HELP {name} {self._help[name]}")
            kind = entries[0][1]
            if isinstance(kind, Counter):
                lines.append(f"# TYPE {name} counter")
            elif isinstance(kind, Gauge):
                lines.append(f"# TYPE {name} gauge")
            else:
                lines.append(f"# TYPE {name} histogram")
            for labels, metric in entries:
                labeled = dict(labels)
                if isinstance(metric, Counter):
                    lines.append(f"{name}{_label_suffix(labeled)} {metric.value}")
                elif isinstance(metric, Gauge):
                    value = metric.value
                    text = format(value, "g") if isinstance(value, float) else str(value)
                    lines.append(f"{name}{_label_suffix(labeled)} {text}")
                else:
                    assert isinstance(metric, Histogram)
                    cumulative = 0
                    for idx in sorted(metric.buckets()):
                        cumulative += metric.buckets()[idx]
                        le = format(metric.bucket_upper(idx), "g")
                        lines.append(
                            f"{name}_bucket{_label_suffix({**labeled, 'le': le})} {cumulative}"
                        )
                    lines.append(f"{name}_bucket{_label_suffix({**labeled, 'le': '+Inf'})} {metric.count}")
                    lines.append(f"{name}_sum{_label_suffix(labeled)} {format(metric.sum, 'g')}")
                    lines.append(f"{name}_count{_label_suffix(labeled)} {metric.count}")
        return "\n".join(lines) + ("\n" if lines else "")


def delta(prev: Mapping[str, float | int | dict], cur: Mapping[str, float | int | dict]) -> dict:
    """Interval view between two ``snapshot()`` results.

    Numeric values subtract (counters and gauges alike — gauges of
    monotonic quantities meter cleanly; point-in-time gauges come out as
    their change, which is what a dashboard wants anyway).  Histogram
    snapshots subtract count/sum and keep the *current* percentiles,
    since bucketed percentiles of an interval need the live objects, not
    snapshots.  Keys only in ``cur`` pass through unchanged.
    """
    out: dict = {}
    for key, value in cur.items():
        base = prev.get(key)
        if isinstance(value, dict):
            prev_d = base if isinstance(base, dict) else {}
            out[key] = {
                **value,
                "count": value.get("count", 0) - prev_d.get("count", 0),
                "sum": value.get("sum", 0.0) - prev_d.get("sum", 0.0),
            }
        elif isinstance(base, (int, float)) and isinstance(value, (int, float)):
            out[key] = value - base
        else:
            out[key] = value
    return out


_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry (``repro.cli metrics`` exposes this)."""
    return _DEFAULT


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one (tests)."""
    global _DEFAULT
    prev = _DEFAULT
    _DEFAULT = registry
    return prev
