"""Gaze-region quantization and the serve tier's rendered-frame cache.

A foveated frame is a function of *where the user looks*, but two gazes a
fraction of a degree apart produce perceptually (and, for coarse tile
grids, often literally) interchangeable frames.  The serve tier therefore
keys cached frames not on the raw gaze pixel but on a **gaze region**: a
deterministic quantization of the gaze point onto an eccentricity-aware
polar grid.

The grid follows the same visual-acuity falloff the HVS model uses
(:class:`repro.hvs.eccentricity.PoolingModel`): ring widths grow with the
ring's eccentricity from the screen centre, so cells are fine where foveal
placement matters (a small gaze move changes which tiles are foveal) and
coarse in the periphery (where the region layout barely moves).  Each ring
is split into a fixed number of angular sectors; ring 0 — the central
foveal disc — is a single cell.

:class:`FrameCache` sits on top: an LRU over rendered
:class:`~repro.foveation.FRRenderResult` frames keyed on
``(foveated-model fingerprint, camera fingerprint, gaze region, render
config)`` with a byte budget, built from the same
:mod:`repro.splat.cachekey` helpers as :class:`repro.splat.ViewCache` so
the two caches cannot drift on fingerprint semantics.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from ..envknobs import env_int
from ..foveation.hierarchy import FoveatedModel
from ..obs.metrics import Counter, MetricsRegistry
from ..hvs.eccentricity import PoolingModel
from ..splat.cachekey import (
    camera_fingerprint,
    content_fingerprint,
    model_fingerprint,
    render_config_fingerprint,
)
from ..splat.camera import Camera
from ..splat.renderer import RenderConfig
from ..tune.profile import profile_value
from .shm import result_arrays

# A gaze pixel's ray is always strictly less than 90° off the optical axis
# (`atan` of a finite tangent-plane radius), so rings are generated up to
# this bound and no further: every ring :func:`quantize_gaze` can return
# has its inner edge below it, which keeps the tangent-plane inverse
# (:func:`polar_gaze`) well-defined for representative in-ring points.
MAX_GAZE_ECC_DEG = 90.0


@dataclasses.dataclass(frozen=True)
class GazeGridSpec:
    """The eccentricity-aware polar grid gaze points are quantized onto.

    ``ring_gain`` scales the HVS pooling diameter into a ring width: ring
    ``i`` starting at eccentricity ``e`` is ``ring_gain · d(e)`` degrees
    wide, with ``d`` the pooling-diameter falloff — so ring widths (and
    per-cell areas) grow monotonically toward the periphery.
    ``n_sectors`` angular sectors split every ring except the central
    foveal disc (ring 0), which is always one cell.
    """

    ring_gain: float = 2.0
    n_sectors: int = 12
    pooling: PoolingModel = PoolingModel()

    def __post_init__(self) -> None:
        if self.ring_gain <= 0:
            raise ValueError("ring_gain must be positive")
        if self.n_sectors < 1:
            raise ValueError("n_sectors must be at least 1")


@dataclasses.dataclass(frozen=True)
class GazeRegionKey:
    """One cell of the gaze grid: ring index + angular sector (hashable)."""

    ring: int
    sector: int


@functools.lru_cache(maxsize=64)
def _ring_edges(spec: GazeGridSpec, max_ecc_deg: float) -> np.ndarray:
    edges = [0.0]
    while edges[-1] < max_ecc_deg:
        edges.append(edges[-1] + spec.ring_gain * float(spec.pooling.diameter_deg(edges[-1])))
    out = np.asarray(edges)
    out.setflags(write=False)  # the cached array is shared across callers
    return out


def ring_edges(spec: GazeGridSpec, max_ecc_deg: float = MAX_GAZE_ECC_DEG) -> np.ndarray:
    """Ring boundary eccentricities ``[0, e_1, e_2, ...]`` covering ``max_ecc_deg``.

    Boundaries are generated iteratively — each ring is ``ring_gain ·
    d(inner edge)`` degrees wide — so the sequence is a pure function of
    the spec: quantization is deterministic across processes and sessions.
    Memoized per (spec, bound): every request quantizes at least one gaze,
    and the grid never changes under a spec.  The returned array is
    read-only (shared).
    """
    return _ring_edges(spec, max_ecc_deg)


def ring_width_deg(spec: GazeGridSpec, ring: int) -> float:
    """Width of ring ``ring`` in degrees (strictly increasing with ``ring``)."""
    if ring < 0:
        raise ValueError("ring must be non-negative")
    edges = ring_edges(spec)
    if ring + 1 >= edges.shape[0]:
        raise ValueError(f"ring {ring} lies beyond {MAX_GAZE_ECC_DEG} degrees")
    return float(edges[ring + 1] - edges[ring])


def ring_area_deg2(spec: GazeGridSpec, ring: int) -> float:
    """Solid area of ring ``ring`` in square degrees (flat-field approximation).

    ``π(e_out² − e_in²)`` — strictly increasing with the ring index, which
    is the "coarser in the periphery" contract the property tests pin.
    """
    edges = ring_edges(spec)
    if ring + 1 >= edges.shape[0]:
        raise ValueError(f"ring {ring} lies beyond {MAX_GAZE_ECC_DEG} degrees")
    e_in, e_out = float(edges[ring]), float(edges[ring + 1])
    return float(np.pi * (e_out * e_out - e_in * e_in))


def gaze_polar(camera: Camera, gaze: tuple[float, float] | None) -> tuple[float, float]:
    """A gaze pixel as ``(eccentricity°, angle rad)`` from the screen centre.

    Uses the same visual-angle geometry as
    :meth:`Camera.pixel_eccentricity`: the eccentricity is the angle
    between the gaze ray and the optical axis.  ``None`` (centre gaze) maps
    to ``(0, 0)``.
    """
    if gaze is None:
        return 0.0, 0.0
    gx = (float(gaze[0]) - camera.cx) / camera.fx
    gy = (float(gaze[1]) - camera.cy) / camera.fy
    ecc = float(np.rad2deg(np.arctan(np.hypot(gx, gy))))
    angle = float(np.arctan2(gy, gx))
    return ecc, angle


def polar_gaze(camera: Camera, ecc_deg: float, angle: float) -> tuple[float, float]:
    """Inverse of :func:`gaze_polar`: ``(ecc°, angle)`` → gaze pixel ``(x, y)``."""
    r = np.tan(np.deg2rad(ecc_deg))
    gx = r * np.cos(angle)
    gy = r * np.sin(angle)
    return (float(gx * camera.fx + camera.cx), float(gy * camera.fy + camera.cy))


def quantize_gaze(
    camera: Camera,
    gaze: tuple[float, float] | None,
    spec: GazeGridSpec | None = None,
) -> GazeRegionKey:
    """The grid cell a gaze point falls in (deterministic).

    Ring from the gaze's eccentricity against the spec's ring edges, sector
    from its polar angle; ring 0 is a single cell (sector 0) so the
    angularly-ambiguous neighbourhood of the exact centre quantizes
    stably.
    """
    spec = spec or GazeGridSpec()
    ecc, angle = gaze_polar(camera, gaze)
    edges = ring_edges(spec)
    ring = int(np.searchsorted(edges, min(ecc, MAX_GAZE_ECC_DEG), side="right") - 1)
    ring = min(ring, edges.shape[0] - 2)
    if ring == 0:
        return GazeRegionKey(ring=0, sector=0)
    sector = int((angle + np.pi) / (2.0 * np.pi) * spec.n_sectors) % spec.n_sectors
    return GazeRegionKey(ring=ring, sector=sector)


def region_bounds(
    spec: GazeGridSpec, key: GazeRegionKey
) -> tuple[float, float, float, float]:
    """``(ecc_lo, ecc_hi, angle_lo, angle_hi)`` of a cell, degrees/radians.

    Ring 0 spans the full circle.
    """
    edges = ring_edges(spec)
    if key.ring + 1 >= edges.shape[0]:
        raise ValueError(f"ring {key.ring} lies beyond {MAX_GAZE_ECC_DEG} degrees")
    ecc_lo, ecc_hi = float(edges[key.ring]), float(edges[key.ring + 1])
    if key.ring == 0:
        return ecc_lo, ecc_hi, -np.pi, np.pi
    sector_width = 2.0 * np.pi / spec.n_sectors
    angle_lo = -np.pi + key.sector * sector_width
    return ecc_lo, ecc_hi, angle_lo, angle_lo + sector_width


def region_center(
    camera: Camera, spec: GazeGridSpec, key: GazeRegionKey
) -> tuple[float, float]:
    """A gaze pixel interior to a cell (quantizes back to ``key``).

    The outermost ring's generated outer edge can overshoot 90° (ring
    widths are added whole); its representative eccentricity is clamped
    below :data:`MAX_GAZE_ECC_DEG` so the tangent-plane inverse stays on
    the gaze's side of the image plane — any ring reachable by
    :func:`quantize_gaze` has its inner edge below the bound, so the
    midpoint remains interior.
    """
    ecc_lo, ecc_hi, angle_lo, angle_hi = region_bounds(spec, key)
    ecc = 0.5 * (ecc_lo + min(ecc_hi, MAX_GAZE_ECC_DEG))
    return polar_gaze(camera, ecc, 0.5 * (angle_lo + angle_hi))


# ----------------------------------------------------------------------
# Frame cache
# ----------------------------------------------------------------------
def foveated_model_fingerprint(fmodel: FoveatedModel) -> tuple:
    """Content fingerprint of everything a foveated frame reads from the model.

    The base model's parameters (via the shared
    :func:`repro.splat.cachekey.model_fingerprint`) plus the hierarchy:
    quality bounds, the multi-versioned per-level tables, and the region
    layout.  Mutating any of them — e.g. finetuning a level mid-serve —
    changes the fingerprint, so no cache keyed on it can serve stale
    frames.
    """
    return (
        model_fingerprint(fmodel.base),
        content_fingerprint(
            fmodel.quality_bounds, fmodel.mv_opacity_logits, fmodel.mv_sh_dc
        ),
        tuple(fmodel.layout.boundaries_deg),
        fmodel.layout.blend_band_deg,
    )


def result_nbytes(obj) -> int:
    """Approximate in-memory footprint of a cached result (array bytes).

    This is *true plane nbytes*: a handle-backed frame from the worker
    pool's shared-memory transport (:mod:`repro.serve.shm`) is a tree of
    zero-copy views over the arena, and each view's ``nbytes`` is the
    plane's real size — so the cache budget charges shm-resident frames
    exactly what they pin, the same as heap-resident ones.  An array
    referenced from several places in the tree counts once, as
    :func:`~repro.serve.shm.export_result` stores it once.
    """
    return sum(a.nbytes for a in result_arrays(obj))


DEFAULT_FRAME_CACHE_BYTES = 64 << 20
FRAME_CACHE_BYTES_ENV = "REPRO_FRAME_CACHE_BYTES"


def resolved_cache_bytes(max_bytes: int | None = None) -> int | None:
    """The effective frame-cache byte budget (``None`` = cache disabled).

    Precedence: explicit ``max_bytes`` > ``$REPRO_FRAME_CACHE_BYTES`` >
    the host profile's ``cache_max_bytes`` (:mod:`repro.tune`) >
    the built-in default (64 MiB).  An env value ``<= 0`` disables the
    cache (returns ``None``); a malformed env value warns and falls
    through to the profile-or-default.
    """
    if max_bytes is not None:
        return int(max_bytes)
    fallback = profile_value("cache_max_bytes") or DEFAULT_FRAME_CACHE_BYTES
    value = env_int(FRAME_CACHE_BYTES_ENV, int(fallback))
    return None if value <= 0 else value


class FrameCache:
    """Byte-budgeted LRU of rendered foveated frames, keyed by gaze region.

    Keys are ``(foveated-model fingerprint, camera fingerprint, gaze
    region, render-config fingerprint)`` — see :func:`frame_key`.  A hit
    returns the frame rendered for an *earlier gaze in the same region*
    (the LOD-cache approximation the grid granularity controls); an exact
    key match is required, so a mutated model or a different backend never
    serves a stale frame.

    Eviction is LRU under ``max_bytes`` of cached array payload (a hit
    refreshes recency); ``hits`` / ``misses`` / ``evictions`` and
    :meth:`stats` make behaviour observable for benchmarks and the CLI.
    """

    def __init__(
        self,
        max_bytes: int | None = None,
        spec: GazeGridSpec | None = None,
    ) -> None:
        if max_bytes is None:
            max_bytes = resolved_cache_bytes()
            if max_bytes is None:
                raise ValueError(
                    f"frame cache disabled by {FRAME_CACHE_BYTES_ENV} <= 0; "
                    "serve without one via ServeConfig(cache_max_bytes=None) "
                    "or pass an explicit max_bytes"
                )
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = max_bytes
        self.spec = spec or GazeGridSpec()
        # Int-like metric objects (repro.obs) so existing `cache.hits += 1`
        # call sites and int comparisons keep working while a registry can
        # attach to the live values via register_metrics().
        self.hits = Counter()
        self.misses = Counter()
        self.evictions = Counter()
        self.current_bytes = 0
        self._entries: dict[tuple, tuple[object, int]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def key(
        self,
        fmodel: FoveatedModel,
        camera: Camera,
        gaze: tuple[float, float] | None,
        config: RenderConfig | None = None,
    ) -> tuple:
        """The cache key of one request.

        The model fingerprint is recomputed for every key, but a model
        whose parameters are byte-for-byte unchanged since its last key is
        compared against a snapshot, not rehashed
        (:class:`repro.splat.cachekey.ContentMemo`).  The compare is what
        detects in-place model mutation, so no stale frame is ever served.
        """
        config = config or RenderConfig()
        return (
            foveated_model_fingerprint(fmodel),
            camera_fingerprint(camera),
            quantize_gaze(camera, gaze, self.spec),
            render_config_fingerprint(config),
        )

    def get(self, key: tuple):
        """The cached frame for ``key`` (refreshing recency), or ``None``."""
        result = self.peek(key)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def peek(self, key: tuple):
        """Like :meth:`get` but counter-neutral (recency still refreshes).

        The scheduler re-checks queued requests against the cache right
        before rendering; that second look must not double-count the miss
        already recorded at submit time.
        """
        entry = self._entries.pop(key, None)
        if entry is None:
            return None
        self._entries[key] = entry
        return entry[0]

    def contains(self, key: tuple) -> bool:
        """Membership test that is both counter- and recency-neutral.

        The scheduler's prefetch dedup probes the cache for keys it merely
        *considers* speculating on; those probes must neither count as
        lookups nor promote entries in the LRU order.
        """
        return key in self._entries

    def degraded_alternate(self, key: tuple):
        """The best cached frame of the same pose at *another* gaze region.

        The degrade policy's lookup: when a deadline-pressed request cannot
        render in time, a frame rendered for a neighbouring region of the
        same (model, camera, config) still covers the requested gaze — just
        in that frame's peripheral, coarser LOD.  Candidates share every
        key element except the gaze region; the nearest region wins (ring
        distance first, then circular sector distance, then a deterministic
        index tie-break).  Counter- and recency-neutral like
        :meth:`contains` — a degraded serve is neither a hit nor a miss of
        the exact key, and must not perturb LRU order.  Returns the cached
        frame or ``None``.
        """
        model_fp, camera_fp, region, config_fp = key
        n_sectors = self.spec.n_sectors
        best = None
        best_rank: tuple | None = None
        for other, (result, _) in self._entries.items():
            if (
                other[0] != model_fp
                or other[1] != camera_fp
                or other[3] != config_fp
            ):
                continue
            other_region = other[2]
            if other_region == region:
                continue  # the exact key is a hit, not a degrade
            ring_d = abs(other_region.ring - region.ring)
            if other_region.ring == 0 or region.ring == 0:
                # The foveal disc has a single sector spanning all angles.
                sector_d = 0
            else:
                raw = abs(other_region.sector - region.sector)
                sector_d = min(raw, n_sectors - raw)
            rank = (ring_d, sector_d, other_region.ring, other_region.sector)
            if best_rank is None or rank < best_rank:
                best, best_rank = result, rank
        return best

    def put(self, key: tuple, result) -> None:
        """Insert a rendered frame, evicting LRU entries past the budget.

        A frame larger than the whole budget is not cached (storing it
        would evict everything for an entry that can never be amortized).

        Handle-backed frames (zero-copy views over the worker pool's
        shared-memory arena) are stored as-is — no materializing copy;
        evicting one drops the cache's reference, and the arena slot frees
        when the last consumer lets go (the lease is tied to the result by
        ``weakref.finalize``).
        """
        nbytes = result_nbytes(result)
        if nbytes > self.max_bytes:
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self.current_bytes -= old[1]
        self._entries[key] = (result, nbytes)
        self.current_bytes += nbytes
        while self.current_bytes > self.max_bytes and len(self._entries) > 1:
            # Dict order is insertion order and every access re-inserts, so
            # the first key is the LRU entry (same discipline as ViewCache).
            _, evicted_bytes = self._entries.pop(next(iter(self._entries)))
            self.current_bytes -= evicted_bytes
            self.evictions += 1

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0 when never queried)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Counters snapshot for reports: hits/misses/evictions/bytes/entries.

        A thin view over the same :class:`~repro.obs.metrics.Counter`
        objects :meth:`register_metrics` exposes — plain ints here, so
        the dict stays JSON-safe and cannot drift from the registry.
        """
        return {
            "hits": int(self.hits),
            "misses": int(self.misses),
            "evictions": int(self.evictions),
            "entries": len(self._entries),
            "bytes": self.current_bytes,
            "hit_rate": self.hit_rate,
        }

    def register_metrics(self, registry: MetricsRegistry, **labels: str) -> None:
        """Attach this cache's live counters/gauges onto ``registry``.

        The counters are the very objects :meth:`get`/:meth:`put` mutate
        (no copies, no polling), plus callback gauges for occupancy.
        """
        registry.register("frame_cache_hits", self.hits, help="frame-cache exact-key hits", **labels)
        registry.register("frame_cache_misses", self.misses, help="frame-cache misses", **labels)
        registry.register(
            "frame_cache_evictions", self.evictions, help="frame-cache LRU evictions", **labels
        )
        registry.gauge_fn(
            "frame_cache_bytes", lambda: self.current_bytes, help="cached frame payload bytes", **labels
        )
        registry.gauge_fn(
            "frame_cache_entries", lambda: len(self._entries), help="cached frame count", **labels
        )
