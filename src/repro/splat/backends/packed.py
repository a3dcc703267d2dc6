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

The numeric core lives in :mod:`repro.splat.backends.kernels`: this
module orchestrates span construction, the band pieces and the scatter
back into frames, while every scan and reduction runs on the numpy span
kernels there.  There is one kernel family: the standard forward (a batch
of one view), the batched forward, the foveated and multi-model frames and
the backward pass all run on the same span kernels, with their scratch in
the backend's thread-local
:class:`~repro.splat.backends.kernels.Workspace`, so repeated renders
touch only warm pages.

Every scan is group-local: a piece's ``(tile, row)`` groups are ordered
by length and scanned one length class at a time, each group from an
exact start, so a tile's pixels depend only on its own spans.  The unit
of piece work is the tile-row *band*: a call's bands
are packed into pieces of at most :func:`span_chunk_budget` spans, and the
pieces run on a process-wide thread pool (:func:`render_pool`).  A frame
is bitwise the same however it was batched, whatever the span budget and
on any number of threads; the foveated frames of one view share each
(tile, level) render, rendered once per call.

Work scales with the rasterized splat area rather than
``intersections × tile area`` (the reference loop's cost), which is where
the speedup comes from; results match ``reference`` to within 1e-10.  The
alpha values and their intersect-test thresholding, the transmittance (the
same sequential product as the reference ``cumprod``), the blend weights,
the early-termination gates and the final transmittance are all
bit-identical; only the colour sums differ in the last bits (each group's
own matrix product against the reference's whole-tile product).

All span matrices are laid out lanes-first, ``(tile_size, R)``, so the
segmented scans and reductions run along the contiguous axis.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any

import numpy as np

from ...envknobs import KNOBS
from ...obs.trace import backend_span
from ..projection import ProjectedGaussians
from ..rasterizer import RasterGradients
from ..tiling import TileAssignment, TileGrid, pixel_tiles
from .base import FoveatedFrame
from .kernels import (
    BatchTables,
    Workspace,
    backward_grads,
    batch_composite,
    batch_dominated_winners,
    batch_per_pixel_permutation,
    batch_span_alphas,
    batch_span_colors,
    batch_span_quad,
    batch_transmittance,
    batch_weights,
)
from .segments import (
    PackedSegments,
    RowSpans,
    TileWork,
    build_row_spans,
    build_segments,
    concat_spans,
    expand_row_spans,
    pair_row_ranges,
)


def _background_frame(grid: TileGrid, background: np.ndarray) -> np.ndarray:
    image = np.empty((grid.height, grid.width, 3))
    # Row by row: broadcasting a 3-vector over every pixel is ~10x slower.
    image.reshape(grid.height, -1)[:] = np.tile(background, grid.width)
    return image


def _group_pixel_index(spans: RowSpans) -> tuple[np.ndarray, np.ndarray]:
    """Flat image index and on-image mask of every group lane, ``(Q, ts)``."""
    geom = spans.seg.geometry
    grid = geom.grid
    base = spans.group_y * grid.width + geom.origin_x[spans.group_tile].astype(np.int64)
    idx = base[:, None] + np.arange(grid.tile_size, dtype=np.int64)[None, :]
    return idx, geom.lane_valid[spans.group_tile]


# The per-piece span budget (:data:`repro.envknobs.KNOBS`
# ``span_budget``, 8192 by default: about 1 MB per scan matrix at 16-px
# tiles).  Pieces cut only at tile-row bands, so a band over the budget is
# a piece of its own.
DEFAULT_SPAN_CHUNK_BUDGET = KNOBS["span_budget"].default
SPAN_BUDGET_ENV = KNOBS["span_budget"].env
span_chunk_budget = KNOBS["span_budget"].resolve

# The span extent of the retired cache-tiled backend.  Nothing renders
# with it any more (band pieces bound every scan); it still resolves
# because ``perfbench/stamp.py`` records it with the other knobs.
DEFAULT_TILE_SPAN_BUDGET = KNOBS["tile_spans"].default
TILE_BUDGET_ENV = KNOBS["tile_spans"].env
tile_span_budget = KNOBS["tile_spans"].resolve


def _pair_tables(projected: ProjectedGaussians, seg: PackedSegments) -> dict[str, np.ndarray]:
    """Per-pair gather tables of one view, aligned with its pair rows.

    Every band piece of the view indexes these through ``span_pair``, so
    they are gathered once per view (and once per call for the gaze
    samples of one pose); :meth:`BatchTables.build` bundles them with a
    piece's span rows.
    """
    sel = seg.pair_splats
    # Contiguous columns: the span kernels gather each per span.
    means = projected.means2d[sel].T.copy()
    conics = projected.conics[sel].T.copy()
    return {
        "means_x": means[0],
        "means_y": means[1],
        "conic_a": conics[0],
        "conic_b": conics[1],
        "conic_c": conics[2],
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
# The unit of piece work is the *band*: every (tile, row) group of one tile
# row of one view.  The scans are group-local (``LengthClasses``), so a
# batch may be cut on any group boundary, and so on any band boundary,
# without moving a bit.  ``_band_pieces`` packs a
# stream of bands into pieces of at most ``span_chunk_budget()`` spans (a
# band over the budget is its own piece); each piece runs its whole kernel
# chain on one thread of a process-wide pool (or, for a small call, on the
# calling thread), and the calling thread scatters the results in piece
# order.  Pieces write disjoint pixels and winner counts are integers, so
# the output does not depend on thread scheduling.
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


def _band_pieces(sources, budget: int):
    """Pack a stream of bands into pieces of at most ``budget`` spans.

    ``sources`` yields ``(source, sizes)``: ``sizes[r]`` is the number of
    spans the source scans in tile row ``r``.  Yields ``(parts, spans)``
    with ``parts`` a list of ``(source, r0, r1)`` row ranges in stream
    order.  A band over the budget is a piece of its own.
    """
    if budget < 1:
        raise ValueError(f"span budget must be positive, got {budget}")
    parts: list[list] = []
    total = 0
    for source, sizes in sources:
        for r in np.flatnonzero(sizes).tolist():
            n = int(sizes[r])
            if parts and total + n > budget:
                yield [tuple(p) for p in parts], total
                parts, total = [], 0
            if parts and parts[-1][0] is source:
                parts[-1][2] = r + 1
            else:
                parts.append([source, r, r + 1])
            total += n
    if parts:
        yield [tuple(p) for p in parts], total


def _run_pieces(pieces, run, work: dict, budget: int) -> list:
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
        if not parallel and local and pool is not None:
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

    @functools.cached_property
    def num_spans(self) -> int:
        """Spans of the whole view (every pair on all of its rows)."""
        return int(self.counts.sum())

    def band_sizes(self, counts: np.ndarray) -> np.ndarray:
        """Per tile row, the spans of pairs expanding to ``counts`` rows."""
        ends = np.concatenate([[0], np.cumsum(counts)])
        return np.diff(ends[self.row_pairs])

    def expand(self, counts: np.ndarray, r0: int, r1: int) -> RowSpans:
        """The spans of tile rows ``[r0, r1)``, pair ``p`` on its first
        ``counts[p]`` rows (``counts`` masks :attr:`counts`)."""
        return expand_row_spans(
            self.seg, self.y_lo, counts, self.row_pairs[r0], self.row_pairs[r1]
        )


@dataclasses.dataclass
class _Source:
    """One view's share of the band stream: its passes over the view's
    pairs (a standard view is one pass; foveated: every level pass of the
    frames sharing the view)."""

    index: int  # position in the call's view (foveated: view group) list
    rows: _ViewRows
    pass_counts: list[np.ndarray]  # (K,) per pass: spans each pair contributes (0: none)
    tables: dict[str, np.ndarray]  # the passes' pair tables, stacked in pass order


# ----------------------------------------------------------------------
# Foveated span-stage decomposition
#
# The foveated frame is composed from the same span kernels as the
# standard forward.  Scans are group-local, so a tile's pixels at quality
# level t depend only on the pose, the tile and t: the gaze only
# chooses each tile's levels and the band pixels' blend weights.  A call
# therefore renders every (tile, level) its frames of one view need once:
# a host-side, pair-level plan per frame (workload statistics, the blend
# band and the (tile, level) renders it needs), the view's *level passes*
# (pass k renders each tile's k-th needed level, with that level's
# opacities and colours as per-pair tables), band pieces that run the
# forward kernel chain over the passes, and a final per-frame assembly of
# the tile renders plus the blend of its band pixels.  A lone foveated
# frame is a batch of one through the identical code path: its passes are
# its primary pass and its blend pass.
# ----------------------------------------------------------------------


# One RGB float64 pixel as a single 24-byte element: gathering or scattering
# whole pixels moves each in one copy, where fancy indexing over (N, 3)
# rows pays a strided sub-copy per pixel (~3x slower scattering band pixels).
_PIXEL = np.dtype((np.void, 24))


def _pixel_elements(image: np.ndarray) -> np.ndarray:
    """A C-contiguous ``(..., 3)`` float64 image as ``(N,)`` pixel elements
    (a view: writes land in ``image``)."""
    if not image.flags.c_contiguous or image.dtype != np.float64:
        raise ValueError("pixel elements need a C-contiguous float64 image")
    return image.reshape(-1, 3).view(_PIXEL).reshape(-1)


def _pixel_values(elements: np.ndarray) -> np.ndarray:
    """Pixel elements back as ``(N, 3)`` float64 rows (a view)."""
    return elements.view(np.float64).reshape(-1, 3)


def _assemble(layers: np.ndarray, grid: TileGrid, tile_layer: np.ndarray) -> np.ndarray:
    """A frame whose tile ``t`` is copied from ``layers[tile_layer[t]]``.

    ``layers`` is ``(P, H, W, 3)``; the result is a fresh ``(H, W, 3)``.
    Copied in *runs* of ``gcd(tile_size, W)`` pixels: a run divides every
    tile's share of an image row, so each is one contiguous element of
    one tile's layer (a whole tile row unless the last tile column is
    ragged), and one gather moves them all.
    """
    height, width, ts = grid.height, grid.width, grid.tile_size
    run = math.gcd(ts, width)
    per_row = width // run
    grid_layer = tile_layer.reshape(grid.tiles_y, grid.tiles_x)
    layer = grid_layer[np.arange(height)[:, None] // ts, np.arange(0, width, run)[None, :] // ts]
    index = (layer * height + np.arange(height)[:, None]) * per_row
    index += np.arange(per_row)
    runs = layers.reshape(-1, 3 * run).view(np.dtype((np.void, 24 * run)))
    return runs.reshape(-1).take(index.reshape(-1)).view(np.float64).reshape(height, width, 3)


@dataclasses.dataclass
class _BlendBand:
    """The pixels a foveated or multi-model frame renders at two levels.

    ``pixels`` are flat image indices (row-major) of the band pixels whose
    tile renders a second level, ``tiles`` their tiles; ``lo_t`` is the
    inner level of each tile's level pair (0 without a second level).
    """

    lo_t: np.ndarray  # (T,)
    pixels: np.ndarray  # (M,)
    tiles: np.ndarray  # (M,)

    @classmethod
    def select(
        cls, maps: Any, grid: TileGrid, tile_ok: np.ndarray | None = None
    ) -> "_BlendBand":
        """Band pixels of the tiles with a second level (and ``tile_ok``)."""
        tl, second = maps.tile_level, maps.tile_second_level
        lo_t = np.where(second > 0, np.minimum(tl, second), 0)
        candidates = np.flatnonzero(maps.needs_blend)
        tiles = pixel_tiles(grid).reshape(-1).take(candidates)
        blends = second > 0 if tile_ok is None else (second > 0) & tile_ok
        mix = (maps.band_level.reshape(-1).take(candidates) == lo_t[tiles]) & blends[tiles]
        return cls(lo_t=lo_t, pixels=candidates[mix], tiles=tiles[mix])

    @property
    def num_pixels(self) -> int:
        return int(self.pixels.shape[0])

    def blend(
        self, maps: Any, image: np.ndarray, layers: np.ndarray, second_layer: np.ndarray
    ) -> None:
        """Interpolate the band pixels of ``image`` toward their second level,
        in place.

        ``image`` holds each tile's primary level; a band pixel's second
        level is read from ``layers[second_layer[tile]]`` (``layers`` is
        ``(P, H, W, 3)`` and may hold ``image`` itself).  A band pixel is
        ``(1 − w)·lo + w·hi`` for its band's inner (``lo``) and outer
        (``hi``) level renders: each render gets one per-pixel weight,
        ``1 − w`` or ``w`` by which of the two it is, and IEEE addition
        commutes, so summing primary then second is the same to the bit.
        """
        w = maps.weight_next.reshape(-1).take(self.pixels)
        rest = 1.0 - w
        lo_is_primary = (maps.tile_level == self.lo_t)[self.tiles]
        w_primary = np.where(lo_is_primary, rest, w)
        w_second = np.where(lo_is_primary, w, rest)
        elements = _pixel_elements(image)
        src = second_layer[self.tiles] * elements.shape[0] + self.pixels
        # Both gathers are fresh (M, 3) rows: ``layers`` may hold ``image``.
        out = _pixel_values(elements.take(self.pixels))
        out *= w_primary[:, None]
        second = _pixel_values(_pixel_elements(layers).take(src))
        second *= w_second[:, None]
        out += second
        elements.put(self.pixels, out.view(_PIXEL).reshape(-1))


@dataclasses.dataclass
class _FramePlan:
    """Host-side stage decomposition of one foveated frame.

    Built before any span exists: the filtering-stage workload statistics,
    the blend-band pixel selection and the (tile, level) renders the frame
    needs — ``primary`` is each non-empty tile's own level, ``second`` the
    second level of each tile holding band pixels (0: none).
    ``level_tiles`` are each level's non-empty tiles, whose primary-pass
    work feeds the accelerator model.  The pair fields are ``None`` for frames
    without intersections (they render as pure background).
    """

    maps: Any
    built: int  # spans built for the frame before level filtering
    sort_ints: np.ndarray  # (T,)
    raster_ints: np.ndarray  # (T,)
    band: _BlendBand | None  # pixels blending two levels (None: no pairs)
    level_tiles: dict[int, np.ndarray]
    primary: np.ndarray | None  # (T,)
    second: np.ndarray | None  # (T,)

    @property
    def blend_pixels(self) -> int:
        return 0 if self.band is None else self.band.num_pixels


def _level_tables(
    tables: dict[str, np.ndarray], op_mat: np.ndarray, de_mat: np.ndarray, levels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair opacity and colour at each pair's level (``levels``
    aligned with the pair ``tables``).

    Pairs at level 0 (no level in their pass) read level 1; no pass scans
    them.
    """
    flat = (np.maximum(levels, 1) - 1) * op_mat.shape[1] + tables["pids"]
    opacities = op_mat.reshape(-1).take(flat)
    colors = de_mat.reshape(-1, 3).take(flat, axis=0)
    colors += tables["colors"]
    return opacities, colors


def _tile_bound_counts(
    seg: PackedSegments, pair_bounds: np.ndarray, num_levels: int
) -> np.ndarray:
    """Per tile, its pairs whose quality bound is at least ``l``, ``(T, L + 1)``.

    Column ``l`` is the pairs a render of the tile at level ``l`` keeps
    (column 0: all of them).  Gaze-independent: one table per view serves
    every frame's plan.
    """
    width = num_levels + 1
    keys = seg.pair_tiles * width + np.clip(pair_bounds, 0, num_levels)
    hist = np.bincount(keys, minlength=seg.grid.num_tiles * width).reshape(-1, width)
    return np.cumsum(hist[:, ::-1], axis=1)[:, ::-1]


def _frame_plan(
    maps: Any, grid: TileGrid, rows: _ViewRows | None, tile_pairs: np.ndarray | None
) -> _FramePlan:
    """Filtering + blend-band planning of one frame (no pixel math).

    Level filtering is expressed as pair selection: a tile's render at a
    level scans only the spans of pairs passing that level's quality bound,
    so the alpha scan only ever sees fragments that contribute.  ``rows``
    is the view's gaze-independent pair structure and ``tile_pairs`` its
    :func:`_tile_bound_counts` table (both ``None`` without
    intersections); the plan reads its pair counts from the table, in
    O(T) work.
    """
    num_tiles = grid.num_tiles
    if rows is None:
        return _FramePlan(
            maps=maps, built=0,
            sort_ints=np.zeros(num_tiles, dtype=np.int64),
            raster_ints=np.zeros(num_tiles, dtype=np.float64),
            band=None, level_tiles={}, primary=None, second=None,
        )

    tile_ids = np.arange(num_tiles)
    tl = maps.tile_level
    second = maps.tile_second_level

    # Filtering stage: points with quality bound below a level never reach
    # sorting/rasterization for that level.
    sort_level = np.where(second > 0, np.minimum(tl, second), tl)
    sort_ints = tile_pairs[tile_ids, sort_level]
    raster_ints = tile_pairs[tile_ids, tl].astype(np.float64)

    # Blending stage selection: band pixels of tiles with a second level are
    # rendered at both levels and interpolated.
    nonempty = rows.seg.tile_last_pair >= 0
    band = _BlendBand.select(maps, grid, nonempty)
    blend_level = np.zeros(num_tiles, dtype=np.int64)
    if band.num_pixels:
        mix_count = np.bincount(band.tiles, minlength=num_tiles)
        sel_tiles = np.flatnonzero(mix_count)  # implies second > 0 and non-empty
        # The second level's raster work counts only the band pixels.
        msec = tile_pairs[sel_tiles, second[sel_tiles]]
        raster_ints[sel_tiles] += msec * mix_count[sel_tiles] / grid.tile_size**2
        blend_level[sel_tiles] = second[sel_tiles]

    # Level t owns the primary-pass work of its non-empty tiles — exactly
    # the fragments the primary composite rasterizes there.  This is the
    # real foveated workload the accelerator model consumes
    # (accel.foveated_tile_counts).
    level_tiles = {}
    for t in np.unique(tl[nonempty]).tolist():
        level_tiles[t] = (tl == t) & nonempty

    return _FramePlan(
        maps=maps, built=rows.num_spans, sort_ints=sort_ints,
        raster_ints=raster_ints, band=band, level_tiles=level_tiles,
        primary=np.where(nonempty, tl, 0), second=blend_level,
    )


@dataclasses.dataclass
class _LevelPasses:
    """The (tile, level) renders a view's frames need, as composite passes.

    ``levels[k, t]`` is the level tile ``t`` renders in pass ``k`` (0:
    none): pass ``k`` holds each tile's ``k``-th needed level in order of
    first use over the frames (each frame's primary levels, then its blend
    levels), so a lone frame's passes are its primary pass and its blend
    pass.  ``pass_counts`` holds each pass's per-pair span counts, zero for
    the pairs it drops (below its tile's level bound, or in a tile the pass
    does not render), and ``tables`` the passes' pair tables stacked in pass
    order, with opacities and colours at each pass's level.
    """

    levels: np.ndarray  # (P, T)
    pass_counts: list[np.ndarray]  # (K,) per pass
    tables: dict[str, np.ndarray]

    @classmethod
    def build(
        cls,
        rows: _ViewRows,
        plans: list[_FramePlan],
        pair_bounds: np.ndarray,
        op_mat: np.ndarray,
        de_mat: np.ndarray,
    ) -> "_LevelPasses":
        num_tiles = rows.seg.grid.num_tiles
        tiles = np.arange(num_tiles)
        levels = np.zeros((op_mat.shape[0], num_tiles), dtype=np.int64)
        used = np.zeros(num_tiles, dtype=np.int64)
        for plan in plans:
            for need in (plan.primary, plan.second):
                fresh = (need > 0) & ~(levels == need).any(axis=0)
                levels[used[fresh], tiles[fresh]] = need[fresh]
                used += fresh
        levels = levels[: used.max()]
        pair_levels = levels.take(rows.seg.pair_tiles, axis=1)  # (P, K)
        keep = (pair_levels > 0) & (pair_bounds >= pair_levels)
        tables = rows.tables
        if len(levels) > 1:
            tables = {name: np.concatenate([t] * len(levels)) for name, t in tables.items()}
        opacities, colors = _level_tables(tables, op_mat, de_mat, pair_levels.reshape(-1))
        return cls(
            levels=levels,
            pass_counts=[np.where(k, rows.counts, 0) for k in keep],
            tables=dict(tables, opacities=opacities, colors=colors),
        )


def _layer_of(levels: np.ndarray, need: np.ndarray) -> np.ndarray:
    """The pass rendering each tile at its ``need`` level, ``(T,)``
    (``levels`` as in :class:`_LevelPasses`; 0 where ``need`` is 0)."""
    return np.argmax(levels == need, axis=0)


def _foveated_frame(
    plan: _FramePlan, image: np.ndarray, work: TileWork | None = None
) -> FoveatedFrame:
    """The frame of ``plan``; its levels mask ``work``, the primary pass's."""
    return FoveatedFrame(
        image=image,
        sort_intersections_per_tile=plan.sort_ints,
        raster_intersections_per_tile=plan.raster_ints,
        blend_pixels=plan.blend_pixels,
        level_spans={
            t: dataclasses.replace(work, tiles=tiles)
            for t, tiles in plan.level_tiles.items()
        },
    )


class PackedBackend:
    """Flattened intersection-list engine (the default)."""

    name = "packed"

    def __init__(self) -> None:
        # Scratch arena of the span kernels, reused across calls (the
        # backend is a process-wide singleton).
        self._ws = Workspace()

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
        long as the tile size is shared): each piece holds at most
        :func:`span_chunk_budget` spans — several small views' worth, or a
        few tile rows of a large one — so its scan matrices stay
        cache-resident, and the pieces run on the render pool.
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
        budget = span_chunk_budget()

        def sources():
            for v, ((projected, assignment), mask) in enumerate(zip(views, tile_masks)):
                if assignment.num_intersections == 0 or (mask is not None and not mask.any()):
                    continue
                # Per-pixel sorting keeps every tile row: its early-termination
                # gate sits at the per-pixel deepest splat, which the strip
                # bound could otherwise prune (the permuted group-last slot is
                # then exactly the reference's gate row).
                rows = _ViewRows.build(projected, assignment, full_rows=per_pixel_sort)
                counts = rows.counts
                if mask is not None:
                    counts = np.where(mask[rows.seg.pair_tiles], counts, 0)
                yield _Source(v, rows, [counts], rows.tables), rows.band_sizes(counts)

        def run(parts):
            # The piece's spans die here, on the thread that built them.
            scattered, _, winners = self._piece(
                parts, background, per_pixel_sort,
                num_points if collect_stats else None,
            )
            return scattered, winners

        # ``val_stats``: whether the pieces also count Val_i winners.
        work: dict[str, int] = {"views": len(views), "val_stats": int(collect_stats)}
        with backend_span("alpha-scan", args=work):
            results = _run_pieces(_band_pieces(sources(), budget), run, work, budget)

        with backend_span("composite", args={"views": len(views)}):
            pixels = [_pixel_elements(image) for image in images]
            for scattered, winners in results:
                for v, _, idx, values in scattered:
                    pixels[v][idx] = values
                for v, counts in winners:
                    dominated[v] += counts
        return list(zip(images, dominated))

    def _piece(
        self,
        parts: list[tuple[_Source, int, int]],
        background: np.ndarray,
        per_pixel_sort: bool = False,
        num_points: int | None = None,
    ) -> tuple[list, list, list]:
        """The whole kernel chain of one piece (on a pool or the calling thread).

        Each part expands every pass of its source straight from the pass's
        per-pair span counts, and all passes ride one transmittance scan and
        one compositing reduction over the sources' stacked pair tables.
        Returns ``(scattered, pass_spans, winners)``: per non-empty pass,
        ``(source, pass, flat pixel indices, colours as pixel elements)``
        (:func:`_pixel_elements`); per pass,
        ``(source, pass, spans)``; and — given ``num_points`` — per pass
        ``(source, per-point Val_i winner counts)``.  All are fresh arrays,
        never workspace views.
        """
        ws = self._ws
        passes, targets = [], []
        for src, r0, r1 in parts:
            # Empty passes stay in the batch: they own no groups, and keep
            # each pass at its offset into the stacked tables.
            for k, counts in enumerate(src.pass_counts):
                passes.append(src.rows.expand(counts, r0, r1))
                targets.append((src.index, k))
        batch = concat_spans(passes)
        pairs = _concat_tables([src.tables for src, _, _ in parts])
        bt = BatchTables.build(batch, pairs)
        classes = bt.classes
        weights, final, perm = self._scan(bt, per_pixel_sort)
        pixels = batch_composite(
            ws, weights, final, batch_span_colors(ws, bt), classes, background, perm
        )
        # Group g's lanes are rows group_rank[g]·ts + lane of the class-order
        # pixel elements.
        ts = bt.tile_size
        lanes = np.arange(ts, dtype=np.int64)
        elements = _pixel_elements(pixels)
        scattered = []
        for v, (spans, (i, k)) in enumerate(zip(passes, targets)):
            if spans.num_spans:
                idx, ok = _group_pixel_index(spans)
                at = classes.group_rank[batch.view_groups(v), None] * ts + lanes
                scattered.append((i, k, idx[ok], elements.take(at[ok])))
        winners_out = []
        if num_points is not None:
            lane_ok = np.concatenate(
                [s.seg.geometry.lane_valid[s.group_tile] for s in passes]
            )[classes.group_order]  # (Q, ts)
            winners, has_any = batch_dominated_winners(
                ws, weights, classes.groups, lane_ok, perm
            )
            for v, (i, _) in enumerate(targets):
                cols = classes.group_rank[batch.view_groups(v)]
                sel = has_any[:, cols]
                winner_pairs = bt.span_pair[winners[:, cols][sel]]
                winners_out.append(
                    (i, np.bincount(pairs["pids"][winner_pairs], minlength=num_points))
                )
        pass_spans = [(i, k, spans) for spans, (i, k) in zip(passes, targets)]
        return scattered, pass_spans, winners_out

    def _scan(
        self, bt: BatchTables, per_pixel_sort: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Alphas and transmittance of one piece: ``(weights, final, perm)``,
        in class order."""
        ws = self._ws
        quad = batch_span_quad(ws, bt)
        alphas = batch_span_alphas(ws, bt, quad)
        perm = None
        if per_pixel_sort:
            perm = batch_per_pixel_permutation(bt, quad, bt.classes.groups)
            alphas = np.take_along_axis(alphas, perm, axis=-1)
        trans, final = batch_transmittance(
            ws, alphas, bt.classes, bt.group_has_tile_last
        )
        return batch_weights(ws, trans, alphas), final, perm

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
        # One piece on the calling thread: the gradients sum over the frame.
        pairs = _pair_tables(projected, spans.seg)
        lane_index, lane_ok = _group_pixel_index(spans)
        return backward_grads(
            self._ws, BatchTables.build(concat_spans([spans]), pairs),
            pairs["pids"], grad_image, background, num_points, lane_index, lane_ok,
        )

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

        Frames of one view (one tile assignment object: the gaze samples of
        one pose) share every tile render.  The scans are group-local, so
        a tile's pixels at level ``t`` depend only on the view,
        the tile and ``t``: each (tile, level) pair the view's frames need
        — every non-empty tile at its primary level, every tile holding
        band pixels at its second level — is rendered once, in the view's
        level passes (:class:`_LevelPasses`), and level filtering keeps
        each render to the spans whose pair passes its quality bound.  The
        views' bands stream into pieces of at most
        :func:`span_chunk_budget` *scanned* (post-filter) spans, exactly
        like :meth:`forward_batch`; a piece carries every pass of its tile
        rows.  Each frame is then assembled from its tiles' renders and its
        band pixels blended: bitwise what the frame renders alone.
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
        budget = span_chunk_budget()

        members: dict[int, list[int]] = {}
        for f, (_, assignment) in enumerate(views):
            members.setdefault(id(assignment), []).append(f)
        groups = list(members.values())
        plans: list[Any] = [None] * len(views)
        # Per view group: its pair segments and pass level tables (None
        # without intersections).
        layouts: list[tuple[PackedSegments, np.ndarray] | None] = [None] * len(groups)

        def sources():
            # One source per view: its pair rows, gather tables and level
            # passes are built once and dropped with the source (the pieces
            # in flight hold what they still need).
            for g, frames in enumerate(groups):
                projected, assignment = views[frames[0]]
                rows = pair_bounds = tile_pairs = None
                if assignment.num_intersections:
                    rows = _ViewRows.build(projected, assignment)
                    pair_bounds = bounds[projected.point_ids[rows.seg.pair_splats]]
                    tile_pairs = _tile_bound_counts(rows.seg, pair_bounds, n_levels)
                for f in frames:
                    plans[f] = _frame_plan(maps_list[f], assignment.grid, rows, tile_pairs)
                if rows is None:
                    continue
                passes = _LevelPasses.build(
                    rows, [plans[f] for f in frames], pair_bounds, op_mat, de_mat
                )
                layouts[g] = (rows.seg, passes.levels)
                sizes = sum(rows.band_sizes(counts) for counts in passes.pass_counts)
                yield _Source(g, rows, passes.pass_counts, passes.tables), sizes

        def run(parts):
            # Each pass's spans die here, reduced to their per-tile work.
            scattered, pass_spans, _ = self._piece(parts, background)
            return scattered, [(g, k, TileWork.of(spans)) for g, k, spans in pass_spans]

        work: dict[str, int] = {"frames": len(views)}
        with backend_span("alpha-scan", args=work):
            results = _run_pieces(_band_pieces(sources(), budget), run, work, budget)
        # Work counters: spans the passes scan (``spans``) vs. spans the
        # frames built before level filtering (the compaction and reuse
        # saving).
        work["built"] = sum(plan.built for plan in plans)

        with backend_span("composite", args={"frames": len(views)}):
            # Layer k of a group holds its pass-k tile renders, and row k
            # of its work tables the pass's spans and sort work per tile.
            layers: dict[int, np.ndarray] = {}
            tile_work: dict[int, tuple[np.ndarray, np.ndarray]] = {}
            for g, layout in enumerate(layouts):
                if layout is not None:
                    frame = _background_frame(layout[0].grid, background)
                    layers[g] = np.repeat(frame[None], len(layout[1]), axis=0)
                    shape = layout[1].shape
                    tile_work[g] = (np.zeros(shape, np.int64), np.zeros(shape))
            for scattered, pass_work in results:
                for g, k, idx, values in scattered:
                    _pixel_elements(layers[g][k])[idx] = values
                for g, k, w in pass_work:
                    tile_work[g][0][k] += w.grid_spans
                    tile_work[g][1][k] += w.grid_sort_work

            out: list[Any] = [None] * len(views)
            for g, frames in enumerate(groups):
                if layouts[g] is None:
                    for f in frames:
                        grid = views[f][1].grid
                        out[f] = _foveated_frame(plans[f], _background_frame(grid, background))
                    continue
                seg, levels = layouts[g]
                spans_table, sort_table = tile_work[g]
                tile_ids = np.arange(seg.grid.num_tiles)
                for f in frames:
                    plan = plans[f]
                    primary = _layer_of(levels, plan.primary)
                    # A lone frame's primary levels are its first pass (copied:
                    # the frame owns its image, not a view of every layer).
                    image = (
                        layers[g][0].copy()
                        if len(frames) == 1
                        else _assemble(layers[g], seg.grid, primary)
                    )
                    if plan.blend_pixels:
                        plan.band.blend(
                            plan.maps, image, layers[g], _layer_of(levels, plan.second)
                        )
                    at = (primary, tile_ids)
                    frame_work = TileWork(spans_table[at], sort_table[at], seg.grid.tile_size)
                    out[f] = _foveated_frame(plan, image, frame_work)
        return out

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

        band = _BlendBand.select(maps, grid)
        mix_count = np.bincount(band.tiles, minlength=num_tiles)
        sel_second = mix_count > 0  # implies second > 0
        n_second = ints[np.maximum(second - 1, 0), tile_ids]
        raster_ints[sel_second] += (
            n_second[sel_second] * mix_count[sel_second] / grid.tile_size**2
        )

        # Layer t - 1 holds level t's model rendered on the tiles that need
        # it; every level rides one band-piece scan.
        needs = [
            (tl == level) | (sel_second & (second == level))
            for level in range(1, len(views) + 1)
        ]
        layers = np.stack([
            image
            for image, _ in self._forward_views(views, needs, 0, background, False, False)
        ])

        image = _assemble(layers, grid, tl - 1)
        if band.num_pixels:
            band.blend(maps, image, layers, np.maximum(second - 1, 0))

        return FoveatedFrame(
            image=image,
            sort_intersections_per_tile=sort_ints,
            raster_intersections_per_tile=raster_ints,
            blend_pixels=band.num_pixels,
        )
