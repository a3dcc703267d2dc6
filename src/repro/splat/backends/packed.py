"""Packed rasterization backend: whole-frame vectorized span operations.

Instead of looping over tiles and building a dense ``(splats, pixels)``
alpha matrix per tile, this engine flattens the frame's tile–splat
intersections into per-pixel-row *spans* (see
:mod:`repro.splat.backends.segments`): each pair contributes one
``tile_size``-wide lane vector per pixel row on which its ellipse reaches
one of the tile's lane centres, sorted so every pixel's fragment list is
contiguous.  Alpha evaluation, front-to-back compositing with early
termination, statistics (Val_i), and the analytic backward pass are then
segmented scans and reductions over the span arrays — **no Python loop
over tiles** in the forward, backward, foveated or multi-model paths (the
multi-model path loops over quality *levels*, of which there are a
handful).

The numeric core lives in :mod:`repro.splat.backends.kernels`,
parameterized by an array namespace: this module orchestrates span
construction, the band pieces and the scatter back into frames, while
every scan and reduction runs through the backend's ``nsx`` (numpy by
default; the ``packed-xp`` registry entry resolves torch/cupy at runtime).
There is one kernel family: the standard forward (a batch of one view),
the batched forward, the foveated and multi-model frames and the backward
pass all run on the same span kernels, with their scratch in the backend's
thread-local :class:`~repro.splat.backends.kernels.Workspace`, so repeated
renders touch only warm pages.

The unit of scan work is the tile-row *band*: the scans restart at every
band, a call's bands are packed into pieces of at most
:func:`span_chunk_budget` spans, and the pieces run on a process-wide
thread pool (:func:`render_pool`).  A frame is bitwise the same however
it was batched, whatever the span budget and on any number of threads.

Work scales with the rasterized splat area rather than
``intersections × tile area`` (the reference loop's cost), which is where
the speedup comes from; results match ``reference`` to within 1e-10.  The
alpha values and their intersect-test thresholding are bit-identical; the
transmittance comes from a log-space segmented scan and agrees with the
reference cumprod only to the last ulp, so the early-termination gates
(``trans >= TRANSMITTANCE_EPS``) could in principle flip on a pixel whose
transmittance lands within an ulp of the threshold — astronomically rare,
but if an equivalence test ever fails by ~1e-4 on an unrelated change,
look here first.

All span matrices are laid out lanes-first, ``(tile_size, R)``, so the
segmented scans and reductions run along the contiguous axis.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any

import numpy as np

from ...obs.trace import backend_span
from ..projection import ProjectedGaussians
from ..rasterizer import RasterGradients
from ..tiling import TileAssignment, TileGrid
from .base import FoveatedFrame
from .kernels import (
    ArrayNamespace,
    BatchTables,
    Workspace,
    backward_grads,
    batch_composite,
    batch_dominated_winners,
    batch_level_alphas,
    batch_per_pixel_permutation,
    batch_span_alphas,
    batch_span_colors,
    batch_span_quad,
    batch_transmittance,
    batch_weights,
    exp_neg_half,
    get_array_namespace,
)
from .segments import (
    PackedSegments,
    RowSpans,
    SpanBatch,
    build_row_spans,
    build_segments,
    concat_spans,
    expand_row_spans,
    join_row_spans,
    pair_row_ranges,
)


@functools.lru_cache(maxsize=16)
def _tile_of_pixel(grid: TileGrid) -> np.ndarray:
    """Tile id of every pixel, ``(H, W)``."""
    ts = grid.tile_size
    ys = np.arange(grid.height, dtype=np.int64) // ts
    xs = np.arange(grid.width, dtype=np.int64) // ts
    return ys[:, None] * grid.tiles_x + xs[None, :]


def _background_frame(grid: TileGrid, background: np.ndarray) -> np.ndarray:
    image = np.empty((grid.height, grid.width, 3))
    image[:, :] = background
    return image


def _group_pixel_index(spans: RowSpans) -> tuple[np.ndarray, np.ndarray]:
    """Flat image index and on-image mask of every group lane, ``(Q, ts)``."""
    geom = spans.seg.geometry
    grid = geom.grid
    base = spans.group_y * grid.width + geom.origin_x[spans.group_tile].astype(np.int64)
    idx = base[:, None] + np.arange(grid.tile_size, dtype=np.int64)[None, :]
    return idx, geom.lane_valid[spans.group_tile]


# Cache-residency budget of one scan piece, in spans.  A scan's
# temporaries are ``(tile_size, R)``; once they outgrow the fast cache
# levels every operation streams from DRAM, which measured ~2x slower per
# element than cache-resident pieces.  8k spans keeps each scan matrix
# around 1 MB (at the default 16-px tiles) — the best point of a 6k–24k
# sweep across frame sizes and view counts — while still amortizing the
# fixed per-piece kernel overhead across several small views.  Pieces cut
# only at tile-row bands, so a band over the budget is a piece of its own.
# ``repro.cli tune`` re-measures the knee per machine and persists it to a
# host profile; ``REPRO_BATCH_SPAN_BUDGET`` overrides both.  Device
# namespaces skip the chunking entirely (no CPU cache to stay resident in).
DEFAULT_SPAN_CHUNK_BUDGET = 8192
SPAN_BUDGET_ENV = "REPRO_BATCH_SPAN_BUDGET"

# The span extent of the retired cache-tiled backend.  Nothing renders
# with it any more (band pieces bound every scan); it still resolves
# because ``perfbench/stamp.py`` records it with the other knobs.
DEFAULT_TILE_SPAN_BUDGET = 4 * DEFAULT_SPAN_CHUNK_BUDGET
TILE_BUDGET_ENV = "REPRO_TILE_SPAN_BUDGET"


def _profile_knob(name: str) -> int | float | None:
    """A knob from the persisted host profile (``None`` when untuned).

    Lazy import: :mod:`repro.tune.profile` is a leaf module, but keeping it
    off the backend import path means the render engine never pays for (or
    cycles through) the tuner unless a knob is actually resolved.
    """
    from ...tune.profile import profile_value

    return profile_value(name)


def span_chunk_budget(budget: int | None = None) -> int:
    """The per-chunk span budget: explicit > env > host profile > default.

    An explicit ``budget`` argument wins outright (callers that measured
    their own workload).  Otherwise ``REPRO_BATCH_SPAN_BUDGET`` applies —
    hardened: non-integer or non-positive settings fall back with a warning
    instead of crashing the render path (or silently degenerating to
    zero-view chunks) — then the host profile's tuned ``span_budget``
    (see :mod:`repro.tune`), then :data:`DEFAULT_SPAN_CHUNK_BUDGET`.
    """
    if budget is not None:
        if budget < 1:
            raise ValueError(f"span budget must be positive, got {budget}")
        return int(budget)
    from ...envknobs import env_int

    fallback = _profile_knob("span_budget") or DEFAULT_SPAN_CHUNK_BUDGET
    return env_int(SPAN_BUDGET_ENV, int(fallback), minimum=1)


@functools.lru_cache(maxsize=1)
def _predicted_tile_spans() -> int | None:
    """The LLC cost model's tile extent, clamped to a sane range.

    Memoized: cache geometry cannot change within a process, and the
    prediction sits on the per-render resolution path.
    """
    from ...tune.model import span_cost_model

    model = span_cost_model()
    if model is None:
        return None
    return min(max(model.predicted_span_budget, DEFAULT_SPAN_CHUNK_BUDGET), 1 << 20)


def tile_span_budget(budget: int | None = None) -> int:
    """The retired tile extent, in spans (recorded, not used to render).

    Precedence: explicit > ``REPRO_TILE_SPAN_BUDGET`` (hardened like
    :func:`span_chunk_budget`) > host profile ``tile_spans`` > the LLC
    cost-model prediction (:func:`repro.tune.model.span_cost_model`) >
    :data:`DEFAULT_TILE_SPAN_BUDGET`.
    """
    if budget is not None:
        if budget < 1:
            raise ValueError(f"tile span budget must be positive, got {budget}")
        return int(budget)
    from ...envknobs import env_int

    fallback = (
        _profile_knob("tile_spans")
        or _predicted_tile_spans()
        or DEFAULT_TILE_SPAN_BUDGET
    )
    return env_int(TILE_BUDGET_ENV, int(fallback), minimum=1)


def _pair_tables(projected: ProjectedGaussians, seg: PackedSegments) -> dict[str, np.ndarray]:
    """Per-pair gather tables of one view, aligned with its pair rows.

    Every band piece of the view indexes these through ``span_pair``, so
    they are gathered once per view (and once per call for the gaze
    samples of one pose); :meth:`BatchTables.build` moves them to the
    namespace.
    """
    sel = seg.pair_splats
    return {
        "means": projected.means2d[sel],
        "conics": projected.conics[sel],
        "opacities": projected.opacities[sel],
        "colors": projected.colors[sel],
        "pids": projected.point_ids[sel],
        "origin_x": seg.geometry.origin_x[seg.pair_tiles],
        "depths": projected.depths[sel],
    }


def _concat_tables(tables: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """One piece's pair tables: its parts' tables, in :func:`concat_spans` order."""
    if len(tables) == 1:
        return tables[0]
    return {name: np.concatenate([t[name] for t in tables]) for name in tables[0]}


# ----------------------------------------------------------------------
# Band pieces and the render pool
#
# The unit of scan work is the *band*: every (tile, row) group of one tile
# row of one view.  The scans restart at every band (``SpanBatch.
# band_offsets``), so a batch may be cut on any band boundary without
# moving a bit.  ``_band_pieces`` packs a stream of bands into pieces of at
# most ``span_chunk_budget()`` spans (a band over the budget is its own
# piece); each piece runs its whole kernel chain on one thread of a
# process-wide pool (or, for a small call, on the calling thread), and the
# calling thread scatters the results in piece order.  Pieces write
# disjoint pixels and winner counts are integers, so the output does not
# depend on thread scheduling.
# ----------------------------------------------------------------------

_UNSET: Any = object()
_pool: ThreadPoolExecutor | None = _UNSET  # created lazily, per process
_pool_threads: int | None = None  # set_render_threads(), else usable_cpus()
_pool_lock = threading.Lock()


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity set, else the CPU count)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def set_render_threads(threads: int) -> None:
    """Size this process's render pool (default: one thread per usable CPU).

    Process workers that share the host call this so their pools do not
    oversubscribe it (see :mod:`repro.serve.workers`).  One thread runs
    every piece on the calling thread.
    """
    global _pool, _pool_threads
    if threads < 1:
        raise ValueError(f"render threads must be positive, got {threads}")
    with _pool_lock:
        old, _pool, _pool_threads = _pool, _UNSET, threads
    if old is not _UNSET and old is not None:
        old.shutdown(wait=False)


def render_pool() -> ThreadPoolExecutor | None:
    """The process's band-piece pool, or ``None`` with one thread."""
    global _pool
    pool = _pool
    if pool is _UNSET:
        with _pool_lock:
            if _pool is _UNSET:
                threads = _pool_threads or usable_cpus()
                _pool = (
                    ThreadPoolExecutor(threads, thread_name_prefix="repro-render")
                    if threads > 1
                    else None
                )
            pool = _pool
    return pool


def render_threads() -> int:
    """Threads the band pieces of a render run on in this process."""
    pool = render_pool()
    return 1 if pool is None else pool._max_workers


def _forget_pool_after_fork() -> None:
    # A forked child inherits the pool object but none of its threads: a
    # piece submitted to it would never run.  The child builds its own.
    global _pool, _pool_lock
    _pool, _pool_lock = _UNSET, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool_after_fork)


def _band_pieces(sources, budget: int | None):
    """Pack a stream of bands into pieces of at most ``budget`` spans.

    ``sources`` yields ``(source, sizes)``: ``sizes[r]`` is the number of
    spans the source scans in tile row ``r``.  Yields ``(parts, spans)``
    with ``parts`` a list of ``(source, r0, r1)`` row ranges in stream
    order.  A band over the budget is a piece of its own; ``budget=None``
    packs everything into one piece.
    """
    if budget is not None and budget < 1:
        raise ValueError(f"span budget must be positive, got {budget}")
    parts: list[list] = []
    total = 0
    for source, sizes in sources:
        for r in np.flatnonzero(sizes).tolist():
            n = int(sizes[r])
            if parts and budget is not None and total + n > budget:
                yield [tuple(p) for p in parts], total
                parts, total = [], 0
            if parts and parts[-1][0] is source:
                parts[-1][2] = r + 1
            else:
                parts.append([source, r, r + 1])
            total += n
    if parts:
        yield [tuple(p) for p in parts], total


def _run_pieces(pieces, run, work: dict, budget: int | None) -> list:
    """Run ``run(parts)`` for every piece; results in piece order.

    A call stays on the calling thread until its pieces hold more than one
    ``budget`` of spans per pool thread: below that a thread hand-off costs
    more than it saves (small frames' pieces are mostly numpy calls that
    hold the GIL).  Past it, every piece goes to the render pool as soon as
    it is cut, with at most two per thread in flight so the stream's inputs
    are freed as it goes; the calling thread only cuts and waits.
    ``work`` receives the trace counters: ``pieces``, ``threads``,
    ``max_piece_spans`` and ``spans``.
    """
    pool = render_pool()
    threads = render_threads()
    local: list = []  # pieces held back for the calling thread
    results: list = []
    pending: collections.deque = collections.deque()
    parallel = False
    n_pieces = max_spans = total = 0
    for parts, spans in pieces:
        n_pieces += 1
        max_spans = max(max_spans, spans)
        total += spans
        if not parallel and local and pool is not None and budget is not None:
            if total > threads * budget:
                parallel = True
                pending.extend(pool.submit(run, p) for p in local)
                local.clear()
        if parallel:
            pending.append(pool.submit(run, parts))
            while len(pending) > 2 * threads:
                results.append(pending.popleft().result())
        else:
            local.append(parts)
    results = [run(p) for p in local] + results + [f.result() for f in pending]
    work.update(
        pieces=n_pieces,
        threads=threads if parallel else 1,
        max_piece_spans=max_spans,
        spans=total,
    )
    return results


@dataclasses.dataclass
class _ViewRows:
    """A view's pairs and the pixel rows each one expands to.

    Band pieces build their own spans from these (:func:`expand_row_spans`)
    on the thread that runs them, so a view's whole span list never exists.
    """

    seg: PackedSegments
    y_lo: np.ndarray  # (K,) first row of each pair
    counts: np.ndarray  # (K,) spans of each pair (its rows)
    row_pairs: np.ndarray  # (tiles_y + 1,) first pair of each tile row
    tables: dict[str, np.ndarray]  # per-pair gather tables

    @classmethod
    def build(
        cls, projected: ProjectedGaussians, assignment: TileAssignment, full_rows: bool = False
    ) -> "_ViewRows":
        seg = build_segments(assignment)
        grid = seg.grid
        row_pairs = np.searchsorted(
            seg.pair_tiles, np.arange(grid.tiles_y + 1) * grid.tiles_x
        )
        return cls(
            seg, *pair_row_ranges(projected, seg, full_rows), row_pairs,
            _pair_tables(projected, seg),
        )

    def band_sizes(self, counts: np.ndarray) -> np.ndarray:
        """Per tile row, the spans of pairs expanding to ``counts`` rows."""
        ends = np.concatenate([[0], np.cumsum(counts)])
        return np.diff(ends[self.row_pairs])


@dataclasses.dataclass
class _Source:
    """One view's (or foveated frame's) share of the band stream."""

    index: int  # position in the call's view list
    rows: _ViewRows
    counts: np.ndarray  # (K,) spans each pair contributes here (0: none)
    plan: "_FoveatedPlan | None" = None

    def spans(self, r0: int, r1: int) -> RowSpans:
        """This source's spans of tile rows ``[r0, r1)``."""
        rows = self.rows
        return expand_row_spans(
            rows.seg, rows.y_lo, self.counts, rows.row_pairs[r0], rows.row_pairs[r1]
        )


# ----------------------------------------------------------------------
# Foveated span-stage decomposition
#
# The foveated frame is composed from the same span kernels as the
# standard forward: a host-side, pair-level *plan* (level filtering keeps
# each composite pass to the pairs passing its level's quality bound, plus
# the blend-band tile selection), then band pieces that each expand their
# rows' kept spans, fill their share of the exp table that every pass
# gathers its alphas from, and run one transmittance scan and composite
# over both passes; a final per-frame blend.  ``foveated_frame`` is a
# batch of one through the identical code path.
# ----------------------------------------------------------------------


@dataclasses.dataclass
class _FoveatedPlan:
    """Host-side stage decomposition of one foveated frame.

    Built before any span exists: the filtering-stage workload statistics,
    the blend-band pixel selection, and the pairs each composite pass
    scans.  ``keep_primary`` marks the pairs passing their own tile's level
    bound; ``keep_blend`` the blend-band tiles' pairs passing the second
    level's bound (``None`` without band pixels) — filtered points never
    reach the scan.  ``level_tiles`` are each level's non-empty tiles, whose
    primary spans feed the accelerator model.  The pair fields are ``None``
    for frames without intersections (they render as pure background).
    """

    maps: Any
    seg: PackedSegments | None
    pair_tl: np.ndarray | None  # (K,) primary level per pair
    pair_second: np.ndarray | None  # (K,) second (blend) level per pair
    keep_primary: np.ndarray | None  # (K,)
    keep_blend: np.ndarray | None  # (K,)
    built: int  # spans built for the frame before level filtering
    sort_ints: np.ndarray  # (T,)
    raster_ints: np.ndarray  # (T,)
    mix_full: np.ndarray | None  # (H, W) pixels blending two levels
    lo_t: np.ndarray | None  # (T,) inner level of each tile's blend pair
    blend_pixels: int
    level_tiles: dict[int, np.ndarray]


def _foveated_plan(
    projected: ProjectedGaussians,
    assignment: TileAssignment,
    maps: Any,
    bounds: np.ndarray,
    n_levels: int,
    rows: _ViewRows | None,
) -> _FoveatedPlan:
    """Filtering + blend-band planning of one frame (no pixel math).

    Level filtering is expressed as pair selection: each pass scans only
    the spans of pairs passing that pass's quality bound, so the alpha scan
    only ever sees fragments that contribute.  ``rows`` is the view's
    gaze-independent pair structure (``None`` without intersections).
    """
    grid = assignment.grid
    num_tiles = grid.num_tiles
    if rows is None:
        return _FoveatedPlan(
            maps=maps, seg=None, pair_tl=None, pair_second=None, keep_primary=None,
            keep_blend=None, built=0,
            sort_ints=np.zeros(num_tiles, dtype=np.int64),
            raster_ints=np.zeros(num_tiles, dtype=np.float64),
            mix_full=None, lo_t=None, blend_pixels=0, level_tiles={},
        )

    seg = rows.seg
    tl = maps.tile_level
    second = maps.tile_second_level
    pair_bounds = bounds[projected.point_ids[seg.pair_splats]]
    pair_tl = tl[seg.pair_tiles]

    # Filtering stage: points with quality bound below a level never reach
    # sorting/rasterization for that level.
    sort_level = np.where(second > 0, np.minimum(tl, second), tl)
    sort_mask = pair_bounds >= sort_level[seg.pair_tiles]
    sort_ints = np.bincount(seg.pair_tiles[sort_mask], minlength=num_tiles).astype(
        np.int64
    )
    keep_primary = pair_bounds >= pair_tl
    raster_ints = np.bincount(
        seg.pair_tiles[keep_primary], minlength=num_tiles
    ).astype(np.float64)

    # Blending stage selection: band pixels of tiles with a second level are
    # rendered at both levels and interpolated.
    nonempty = np.diff(assignment.tile_offsets) > 0
    lo_t = np.where(second > 0, np.minimum(tl, second), 0)
    tile_map = _tile_of_pixel(grid)
    mix_full = (
        (maps.band_level == lo_t[tile_map])
        & maps.needs_blend
        & ((second > 0) & nonempty)[tile_map]
    )
    blend_pixels = int(mix_full.sum())
    pair_second = second[seg.pair_tiles]
    keep_blend = None
    if blend_pixels:
        mix_count = np.bincount(tile_map[mix_full], minlength=num_tiles)
        sel_tiles = mix_count > 0  # implies second > 0 and non-empty
        mask_second = pair_bounds >= pair_second
        # Second-level pass touches only the band pixels.
        msec = np.bincount(seg.pair_tiles[mask_second], minlength=num_tiles)
        raster_ints[sel_tiles] += (
            msec[sel_tiles] * mix_count[sel_tiles] / grid.tile_size**2
        )
        keep_blend = sel_tiles[seg.pair_tiles] & mask_second

    # Level t owns the primary spans of its non-empty tiles — exactly the
    # fragments the primary composite rasterizes there.  This is the real
    # foveated workload the accelerator model consumes
    # (accel.spans_to_tile_counts).
    level_tiles = {}
    for t in range(1, n_levels + 1):
        tiles_t = (tl == t) & nonempty
        if tiles_t.any():
            level_tiles[t] = tiles_t

    return _FoveatedPlan(
        maps=maps, seg=seg, pair_tl=pair_tl, pair_second=pair_second,
        keep_primary=keep_primary, keep_blend=keep_blend,
        built=int(rows.counts.sum()), sort_ints=sort_ints,
        raster_ints=raster_ints, mix_full=mix_full, lo_t=lo_t,
        blend_pixels=blend_pixels, level_tiles=level_tiles,
    )


def _foveated_blend(
    plan: _FoveatedPlan, grid: TileGrid, prim: np.ndarray, sec: np.ndarray
) -> np.ndarray:
    """Blending stage: interpolate band pixels between the two level images."""
    maps = plan.maps
    tile_map = _tile_of_pixel(grid)
    lo_is_primary = (maps.tile_level == plan.lo_t)[tile_map][:, :, None]
    lo_img = np.where(lo_is_primary, prim, sec)
    hi_img = np.where(lo_is_primary, sec, prim)
    w = maps.weight_next[:, :, None]
    return np.where(plan.mix_full[:, :, None], (1.0 - w) * lo_img + w * hi_img, prim)


class PackedBackend:
    """Flattened intersection-list engine (the default).

    ``array_namespace`` retargets the numeric kernels: ``None`` pins the
    engine to numpy (the ``packed`` registry entry); the ``packed-xp``
    entry passes the runtime-resolved namespace (``REPRO_ARRAY_API`` /
    ``--array-api``).
    """

    name = "packed"

    def __init__(
        self,
        array_namespace: ArrayNamespace | None = None,
        name: str | None = None,
    ) -> None:
        self.nsx = array_namespace or get_array_namespace("numpy")
        if name is not None:
            self.name = name
        # Scratch arena of the span kernels, reused across calls (the
        # backend is a process-wide singleton) and owned by the namespace.
        self._ws = Workspace(self.nsx)

    def forward(
        self,
        projected: ProjectedGaussians,
        assignment: TileAssignment,
        num_points: int,
        background: np.ndarray,
        collect_stats: bool,
        per_pixel_sort: bool,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        # A batch of one view through the same band pieces as ``forward_batch``.
        return self.forward_batch(
            [(projected, assignment)], num_points, background, collect_stats,
            per_pixel_sort,
        )[0]

    def forward_batch(
        self,
        views: list[tuple[ProjectedGaussians, TileAssignment]],
        num_points: int,
        background: np.ndarray,
        collect_stats: bool,
        per_pixel_sort: bool,
    ) -> list[tuple[np.ndarray, np.ndarray | None]]:
        """Rasterize several views of one model in band-piece scans.

        The views' bands stream into band pieces (the grids may differ as
        long as the tile size is shared): on CPU namespaces each piece
        holds at most :func:`span_chunk_budget` spans — several small
        views' worth, or a few tile rows of a large one — so its scan
        matrices stay cache-resident, and the pieces run on the render
        pool.  Device namespaces run one concatenated scan per batch: there
        is no CPU cache to stay resident in, and kernel launches amortize
        best over the largest possible segments.
        """
        if not views:
            return []
        sizes = {a.grid.tile_size for _, a in views}
        if len(sizes) > 1:
            raise ValueError(f"views must share one tile size, got {sorted(sizes)}")
        return self._forward_views(
            views, [None] * len(views), num_points, background, collect_stats,
            per_pixel_sort,
        )

    def _forward_views(
        self,
        views: list[tuple[ProjectedGaussians, TileAssignment]],
        tile_masks: list[np.ndarray | None],
        num_points: int,
        background: np.ndarray,
        collect_stats: bool,
        per_pixel_sort: bool,
    ) -> list[tuple[np.ndarray, np.ndarray | None]]:
        """Scan the views in band pieces (``tile_masks[v]``: tiles to render,
        ``None`` for all of them; the other tiles keep the background)."""
        images = [_background_frame(a.grid, background) for _, a in views]
        dominated: list[np.ndarray | None] = [
            np.zeros(num_points, dtype=np.int64) if collect_stats else None
            for _ in views
        ]
        budget = span_chunk_budget() if self.nsx.device == "cpu" else None

        def sources():
            for v, ((projected, assignment), mask) in enumerate(zip(views, tile_masks)):
                if assignment.num_intersections == 0:
                    continue
                # Per-pixel sorting keeps every tile row: its early-termination
                # gate sits at the per-pixel deepest splat, which the strip
                # bound could otherwise prune (the permuted group-last slot is
                # then exactly the reference's gate row).
                rows = _ViewRows.build(projected, assignment, full_rows=per_pixel_sort)
                counts = rows.counts
                if mask is not None:
                    counts = np.where(mask[rows.seg.pair_tiles], counts, 0)
                yield _Source(v, rows, counts), rows.band_sizes(counts)

        def run(parts):
            return self._forward_piece(
                parts, num_points if collect_stats else None, background,
                per_pixel_sort,
            )

        work: dict[str, int] = {"views": len(views)}
        with backend_span("alpha-scan", args=work):
            results = _run_pieces(_band_pieces(sources(), budget), run, work, budget)

        with backend_span("composite", args={"views": len(views)}):
            for scattered, winners in results:
                for v, idx, values in scattered:
                    images[v].reshape(-1, 3)[idx] = values
                for v, counts in winners:
                    dominated[v] += counts
        return list(zip(images, dominated))

    def _forward_piece(
        self,
        parts: list[tuple[_Source, int, int]],
        num_points: int | None,
        background: np.ndarray,
        per_pixel_sort: bool,
    ) -> tuple[list, list]:
        """The whole kernel chain of one piece (on a pool or the calling thread).

        Returns ``(scattered, winners)``: per part, the flat pixel indices
        and colours it writes, and — given ``num_points`` — the per-point
        Val_i winner counts.  All are fresh arrays, never workspace views.
        """
        nsx, ws = self.nsx, self._ws
        pieces = [(src, src.spans(r0, r1)) for src, r0, r1 in parts]
        batch = concat_spans([spans for _, spans in pieces])
        pairs = _concat_tables([src.rows.tables for src, _ in pieces])
        bt = BatchTables.build(nsx, batch, pairs)
        weights, final, perm = self._scan(bt, batch, per_pixel_sort)
        pixels = batch_composite(
            nsx, ws, weights, final, batch_span_colors(nsx, ws, bt),
            batch.groups, background, perm,
        )
        scattered = []
        for i, (src, spans) in enumerate(pieces):
            idx, ok = _group_pixel_index(spans)
            scattered.append((src.index, idx[ok], pixels[batch.view_groups(i)][ok]))
        winners_out = []
        if num_points is not None:
            lane_ok = np.concatenate(
                [s.seg.geometry.lane_valid[s.group_tile] for _, s in pieces]
            )  # (Q, ts)
            winners, has_any = batch_dominated_winners(
                nsx, ws, weights, batch.groups, lane_ok, perm
            )
            for i, (src, _) in enumerate(pieces):
                gsl = batch.view_groups(i)
                sel = has_any[:, gsl]
                winner_pairs = batch.span_pair[winners[:, gsl][sel]]
                winners_out.append(
                    (src.index, np.bincount(pairs["pids"][winner_pairs], minlength=num_points))
                )
        return scattered, winners_out

    def _scan(
        self, bt: BatchTables, batch: SpanBatch, per_pixel_sort: bool
    ) -> tuple[Any, Any, Any]:
        """Alphas and transmittance of one piece: ``(weights, final, perm)``."""
        nsx, ws = self.nsx, self._ws
        quad = batch_span_quad(nsx, ws, bt)
        alphas = batch_span_alphas(nsx, ws, bt, quad)
        perm = None
        if per_pixel_sort:
            perm = batch_per_pixel_permutation(nsx, bt, quad, batch.groups)
            alphas = nsx.take_along_last(alphas, perm)
        trans, final = batch_transmittance(
            nsx, ws, alphas, batch.groups, batch.group_has_tile_last,
            batch.band_offsets,
        )
        return batch_weights(nsx, ws, trans, alphas), final, perm

    def backward(
        self,
        projected: ProjectedGaussians,
        assignment: TileAssignment,
        num_points: int,
        grad_image: np.ndarray,
        background: np.ndarray,
    ) -> RasterGradients:
        result = RasterGradients(
            color=np.zeros((num_points, 3)),
            opacity=np.zeros(num_points),
            log_scale=np.zeros(num_points),
        )
        if assignment.num_intersections == 0:
            return result

        spans = build_row_spans(projected, build_segments(assignment))
        if spans.num_spans == 0:
            return result
        # One piece on the calling thread: the suffix sums span the frame.
        batch = concat_spans([spans])
        pairs = _pair_tables(projected, spans.seg)
        lane_index, lane_ok = _group_pixel_index(spans)
        return backward_grads(
            self.nsx, self._ws, BatchTables.build(self.nsx, batch, pairs),
            batch.groups, batch.group_has_tile_last,
            pairs["pids"][batch.span_pair], grad_image, background,
            num_points, lane_index, lane_ok,
        )

    def foveated_frame(
        self,
        projected: ProjectedGaussians,
        assignment: TileAssignment,
        maps: Any,
        bounds: np.ndarray,
        level_opacity: dict[int, np.ndarray],
        level_delta: dict[int, np.ndarray],
        background: np.ndarray,
    ) -> FoveatedFrame:
        # A batch of one frame through the staged batch path (cf. ``forward``
        # running as a batch of one view): the single-frame and batched
        # entry points run the exact same code, so a batch of one is
        # bit-identical to ``render_foveated`` by construction.
        return self.foveated_frame_batch(
            [(projected, assignment)], [maps], bounds, level_opacity,
            level_delta, background,
        )[0]

    def foveated_frame_batch(
        self,
        views: list[tuple[ProjectedGaussians, TileAssignment]],
        maps_list: list[Any],
        bounds: np.ndarray,
        level_opacity: dict[int, np.ndarray],
        level_delta: dict[int, np.ndarray],
        background: np.ndarray,
    ) -> list[FoveatedFrame]:
        """Render several foveated frames in band-piece scans.

        Each frame decomposes into span-kernel stages (see
        :func:`_foveated_plan` / :meth:`_foveated_piece`): level filtering
        keeps each composite pass to the spans whose pair passes its
        quality bound, and the blend-band second-level pass becomes an
        *extra batch segment* riding the same scan as the primary
        composite.  The frames' bands then stream into pieces of at most
        :func:`span_chunk_budget` *scanned* (post-filter) spans on CPU
        namespaces, exactly like :meth:`forward_batch`; a piece carries
        both passes of its tile rows, so the ``exp(-q/2)`` table of the
        rows' union is filled once per piece.  Only the per-frame planning,
        the scatter into each frame and the blend interpolation remain per
        frame.
        """
        if not views:
            return []
        if len(maps_list) != len(views):
            raise ValueError(
                f"need one region map per view, got {len(maps_list)} maps "
                f"for {len(views)} views"
            )
        sizes = {a.grid.tile_size for _, a in views}
        if len(sizes) > 1:
            raise ValueError(f"views must share one tile size, got {sorted(sizes)}")
        n_levels = len(level_opacity)
        op_mat = np.stack([level_opacity[t] for t in range(1, n_levels + 1)])  # (L, N)
        de_mat = np.stack([level_delta[t] for t in range(1, n_levels + 1)])  # (L, N, 3)
        budget = span_chunk_budget() if self.nsx.device == "cpu" else None

        prim = [_background_frame(a.grid, background) for _, a in views]
        sec: dict[int, np.ndarray] = {}
        plans: list[_FoveatedPlan] = []

        # Gaze samples of one pose repeat the same prepared view: its pair
        # rows and gather tables are built once per call and dropped once
        # the last frame of that view is planned (the pieces in flight hold
        # what they still need).
        view_memo: dict[int, _ViewRows] = {}
        remaining = collections.Counter(id(a) for _, a in views)

        def sources():
            for f, ((projected, assignment), maps) in enumerate(zip(views, maps_list)):
                key = id(assignment)
                rows = view_memo.get(key)
                if rows is None and assignment.num_intersections:
                    rows = view_memo[key] = _ViewRows.build(projected, assignment)
                remaining[key] -= 1
                if remaining[key] == 0:
                    view_memo.pop(key, None)
                plan = _foveated_plan(projected, assignment, maps, bounds, n_levels, rows)
                plans.append(plan)
                if plan.blend_pixels:
                    sec[f] = _background_frame(assignment.grid, background)
                if rows is None:
                    continue
                primary = np.where(plan.keep_primary, rows.counts, 0)
                sizes = rows.band_sizes(primary)
                union = primary
                if plan.keep_blend is not None:
                    blend = np.where(plan.keep_blend, rows.counts, 0)
                    sizes = sizes + rows.band_sizes(blend)
                    union = np.maximum(primary, blend)
                yield _Source(f, rows, union, plan), sizes

        def run(parts):
            return self._foveated_piece(parts, op_mat, de_mat, background)

        work: dict[str, int] = {"frames": len(views)}
        with backend_span("alpha-scan", args=work):
            results = _run_pieces(_band_pieces(sources(), budget), run, work, budget)
        # Work counters: spans the passes scan (``spans``) vs. spans built
        # before level filtering (the compaction saving).
        work["built"] = sum(plan.built for plan in plans)

        with backend_span("composite", args={"frames": len(views)}):
            primary_parts: list[list[RowSpans]] = [[] for _ in views]
            for scattered, primaries in results:
                for f, second, idx, values in scattered:
                    (sec[f] if second else prim[f]).reshape(-1, 3)[idx] = values
                for f, spans in primaries:
                    primary_parts[f].append(spans)
            out = []
            for f, ((_, assignment), plan) in enumerate(zip(views, plans)):
                image = prim[f]
                if plan.blend_pixels:
                    image = _foveated_blend(plan, assignment.grid, prim[f], sec[f])
                level_spans = {}
                if plan.level_tiles:
                    primary = join_row_spans(plan.seg, primary_parts[f])
                    level_spans = {t: primary.subset(m) for t, m in plan.level_tiles.items()}
                out.append(
                    FoveatedFrame(
                        image=image,
                        sort_intersections_per_tile=plan.sort_ints,
                        raster_intersections_per_tile=plan.raster_ints,
                        blend_pixels=plan.blend_pixels,
                        level_spans=level_spans,
                    )
                )
        return out

    def _foveated_piece(
        self,
        parts: list[tuple[_Source, int, int]],
        op_mat: np.ndarray,
        de_mat: np.ndarray,
        background: np.ndarray,
    ) -> tuple[list, list]:
        """Both composite passes of some frames' tile rows (one piece).

        Each part expands its rows' *union* spans — every span either pass
        scans — and the parts share one quadratic form and one ``exp(-q/2)``
        table: this piece's column slice of the frames' table, exact because
        it is elementwise.  Each pass — a frame's primary rows, then its
        blend-band rows — gathers its columns from that table and scales
        them by the per-span level opacity, so a span both passes keep pays
        for one exp.  Every pass then rides one transmittance scan and one
        compositing reduction.  Returns ``(scattered, primaries)``: per
        pass, ``(frame, is_blend_pass, flat pixel indices, colours)``, and
        per part, ``(frame, primary spans)`` for the frame's ``level_spans``.
        """
        nsx, ws = self.nsx, self._ws
        unions, passes, targets, primaries = [], [], [], []
        cols, span_pair, levels = [], [], []
        union_off = pair_off = 0
        for src, r0, r1 in parts:
            plan = src.plan
            union = src.spans(r0, r1)
            keep = plan.keep_primary[union.span_pair]
            primary = union if plan.keep_blend is None else union.subset_spans(keep)
            pass_list = [(primary, keep, plan.pair_tl, False)]
            if plan.keep_blend is not None:
                keep_b = plan.keep_blend[union.span_pair]
                pass_list.append((union.subset_spans(keep_b), keep_b, plan.pair_second, True))
            for spans, pass_keep, pair_levels, second in pass_list:
                if spans.num_spans == 0:
                    continue
                passes.append(spans)
                targets.append((src.index, second))
                cols.append(np.flatnonzero(pass_keep) + union_off)
                span_pair.append(spans.span_pair + pair_off)
                # Kept spans never index level 0.
                levels.append(pair_levels[spans.span_pair] - 1)
            primaries.append((src.index, primary))
            unions.append(union)
            union_off += union.num_spans
            pair_off += union.seg.num_pairs

        union_batch = concat_spans(unions)
        pairs = _concat_tables([src.rows.tables for src, _, _ in parts])
        base_exp = batch_span_quad(nsx, ws, BatchTables.build(nsx, union_batch, pairs))
        base_exp = exp_neg_half(nsx, base_exp, out=base_exp)
        batch = concat_spans(passes)
        span_pair = np.concatenate(span_pair)
        levels = np.concatenate(levels)
        pids = pairs["pids"][span_pair]
        alphas = batch_level_alphas(
            nsx, ws, base_exp, np.concatenate(cols), op_mat[levels, pids]
        )
        colors = pairs["colors"][span_pair] + de_mat[levels, pids]
        trans, final = batch_transmittance(
            nsx, ws, alphas, batch.groups, batch.group_has_tile_last,
            batch.band_offsets,
        )
        weights = batch_weights(nsx, ws, trans, alphas)
        pixels = batch_composite(
            nsx, ws, weights, final, nsx.asarray(colors), batch.groups, background,
        )
        scattered = []
        for v, (spans, (f, second)) in enumerate(zip(passes, targets)):
            idx, ok = _group_pixel_index(spans)
            scattered.append((f, second, idx[ok], pixels[batch.view_groups(v)][ok]))
        return scattered, primaries

    def multi_model_frame(
        self,
        views: list[tuple[ProjectedGaussians, TileAssignment]],
        maps: Any,
        background: np.ndarray,
    ) -> FoveatedFrame:
        grid = views[0][1].grid
        num_tiles = grid.num_tiles
        tile_ids = np.arange(num_tiles)
        tl = maps.tile_level
        second = maps.tile_second_level

        # Every level pays its own sorting/rasterization on its own view.
        ints = np.stack([v[1].intersections_per_tile() for v in views])  # (L, T)
        n_primary = ints[tl - 1, tile_ids]
        sort_ints = n_primary.astype(np.int64)
        raster_ints = n_primary.astype(np.float64)

        lo_t = np.where(second > 0, np.minimum(tl, second), 0)
        tile_map = _tile_of_pixel(grid)
        mix_full = (
            (maps.band_level == lo_t[tile_map])
            & maps.needs_blend
            & (second > 0)[tile_map]
        )
        blend_pixels = int(mix_full.sum())
        mix_count = np.bincount(tile_map[mix_full], minlength=num_tiles)
        sel_second = mix_count > 0  # implies second > 0
        n_second = ints[np.maximum(second - 1, 0), tile_ids]
        raster_ints[sel_second] += (
            n_second[sel_second] * mix_count[sel_second] / grid.tile_size**2
        )

        prim = _background_frame(grid, background)
        sec = _background_frame(grid, background)
        for level in range(1, len(views) + 1):
            need_p = tl == level
            need_s = sel_second & (second == level)
            need = need_p | need_s
            projected_v, assignment_v = views[level - 1]
            if not need.any() or assignment_v.num_intersections == 0:
                continue
            ((img_v, _),) = self._forward_views(
                [views[level - 1]], [need], 0, background, False, False
            )
            mask_p = need_p[tile_map]
            mask_s = need_s[tile_map]
            prim[mask_p] = img_v[mask_p]
            sec[mask_s] = img_v[mask_s]

        out = prim
        if blend_pixels:
            lo_is_primary = (tl == lo_t)[tile_map][:, :, None]
            lo_img = np.where(lo_is_primary, prim, sec)
            hi_img = np.where(lo_is_primary, sec, prim)
            w = maps.weight_next[:, :, None]
            out = np.where(mix_full[:, :, None], (1.0 - w) * lo_img + w * hi_img, prim)

        return FoveatedFrame(
            image=out,
            sort_intersections_per_tile=sort_ints,
            raster_intersections_per_tile=raster_ints,
            blend_pixels=blend_pixels,
        )
