"""Cache-geometry cost model: *predict* a span budget from the LLC.

One batched scan's temporaries are ``(tile_size, R)`` matrices, and once
their combined working set outgrows the last-level cache every
whole-batch operation streams from DRAM.  The model predicts the span
count whose scan working set fills a share of the LLC, from first
principles (the cache-simulation methodology of PAPERS.md,
arXiv:1406.5000):

    budget ≈ residency_fraction · LLC_bytes / bytes_per_span

``bytes_per_span`` is the peak live scan footprint of one span column
(:func:`repro.splat.backends.kernels.batch_scan_bytes_per_span`);
``residency_fraction`` discounts the LLC for everything else contending
for it (pair tables, the images being scattered into, other processes).

The prediction is the fallback of
:func:`repro.splat.backends.packed.tile_span_budget`, a recorded knob
that no render reads.  Measured span-budget sweeps put it 22–90x off
on a VM whose sysfs reports a 300 MiB L3.

Cache detection reads sysfs and degrades to ``None`` on hosts without it
(macOS, containers masking ``/sys``), in which case there is no
prediction.  The module imports only the standard library.
"""

from __future__ import annotations

import dataclasses
import functools
import os

__all__ = [
    "CacheLevel",
    "DEFAULT_RESIDENCY_FRACTION",
    "SpanCostModel",
    "detect_cache_levels",
    "llc_bytes",
    "span_cost_model",
]

_SYSFS_CACHE_ROOT = "/sys/devices/system/cpu/cpu0/cache"

# Fraction of the LLC one chunk's scan temporaries may claim.  The other
# half covers the batch pair tables, the destination frames, and whatever
# else is warm; 0.5 reproduces the hand-measured 8k-span default within
# ~2x on the 12–32 MB LLCs it was measured on.
DEFAULT_RESIDENCY_FRACTION = 0.5


@dataclasses.dataclass(frozen=True)
class CacheLevel:
    """One detected CPU cache level (data or unified)."""

    level: int
    size_bytes: int
    kind: str  # "Data" | "Unified" | "Instruction"


def _parse_size(raw: str) -> int | None:
    raw = raw.strip()
    if not raw:
        return None
    mult = 1
    if raw[-1] in "kK":
        mult, raw = 1024, raw[:-1]
    elif raw[-1] in "mM":
        mult, raw = 1024 * 1024, raw[:-1]
    try:
        return int(raw) * mult
    except ValueError:
        return None


@functools.lru_cache(maxsize=4)
def detect_cache_levels(root: str = _SYSFS_CACHE_ROOT) -> tuple[CacheLevel, ...]:
    """CPU cache hierarchy from sysfs, empty on hosts that don't expose it.

    Reads ``cpu0``'s ``cache/index*/{level,size,type}`` — the per-core view
    is what residency tuning wants (the budget is per render process, and a
    process runs on one core's slice of the hierarchy at a time).
    """
    levels: list[CacheLevel] = []
    try:
        entries = sorted(os.listdir(root))
    except OSError:
        return ()
    for entry in entries:
        if not entry.startswith("index"):
            continue
        path = os.path.join(root, entry)
        try:
            with open(os.path.join(path, "level")) as f:
                level = int(f.read().strip())
            with open(os.path.join(path, "size")) as f:
                size = _parse_size(f.read())
            with open(os.path.join(path, "type")) as f:
                kind = f.read().strip()
        except (OSError, ValueError):
            continue
        if size:
            levels.append(CacheLevel(level=level, size_bytes=size, kind=kind))
    return tuple(levels)


def llc_bytes(root: str = _SYSFS_CACHE_ROOT) -> int | None:
    """Size of the last-level data/unified cache, ``None`` if undetectable."""
    data = [c for c in detect_cache_levels(root) if c.kind != "Instruction"]
    if not data:
        return None
    top = max(c.level for c in data)
    return max(c.size_bytes for c in data if c.level == top)


@dataclasses.dataclass(frozen=True)
class SpanCostModel:
    """Residency model of one batched span scan on a concrete host."""

    llc_bytes: int
    bytes_per_span: int
    residency_fraction: float = DEFAULT_RESIDENCY_FRACTION

    @property
    def predicted_span_budget(self) -> int:
        """Spans whose scan working set fills the LLC's residency share."""
        raw = int(self.llc_bytes * self.residency_fraction / self.bytes_per_span)
        return max(raw, 1)


def span_cost_model(
    tile_size: int = 16,
    residency_fraction: float = DEFAULT_RESIDENCY_FRACTION,
    root: str = _SYSFS_CACHE_ROOT,
) -> SpanCostModel | None:
    """The host's span-residency model, ``None`` where caches are opaque."""
    llc = llc_bytes(root)
    if llc is None:
        return None
    from ..splat.backends.kernels import batch_scan_bytes_per_span

    return SpanCostModel(
        llc_bytes=llc,
        bytes_per_span=batch_scan_bytes_per_span(tile_size),
        residency_fraction=residency_fraction,
    )
