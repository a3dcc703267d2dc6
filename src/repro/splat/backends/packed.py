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
(tile, level) render, kept in the view's :class:`TileStore` (across calls
for a :class:`~repro.splat.renderer.ViewCache` entry).

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
from ..cachekey import same_bytes, snapshot
from ..projection import ProjectedGaussians
from ..rasterizer import RasterGradients
from ..tiling import TileAssignment, TileGrid
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


def _background_frame(
    grid: TileGrid, background: np.ndarray, image: np.ndarray | None = None
) -> np.ndarray:
    """A frame of ``background`` (written into ``image`` when given)."""
    if image is None:
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
    they are gathered once per view (and, for foveated frames, once per
    :class:`TileStore`); :meth:`BatchTables.build` bundles them with a
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
    pairs (a standard view is one pass; foveated: the passes rendering the
    (tile, level) pairs the view's store lacks)."""

    index: int  # position in the call's view (foveated: view group) list
    rows: _ViewRows
    pass_counts: list[np.ndarray]  # (K,) per pass: spans each pair contributes (0: none)
    tables: dict[str, np.ndarray]  # the passes' pair tables, stacked in pass order
    # (T,) per pass: added to the flat pixel indices of each tile (foveated:
    # the offset of the plane of the level the pass renders the tile at).
    pass_offsets: list[np.ndarray] | None = None


# ----------------------------------------------------------------------
# Foveated span-stage decomposition
#
# The foveated frame is composed from the same span kernels as the
# standard forward.  Scans are group-local, so a tile's pixels at quality
# level t depend only on the pose, the tile and t: the gaze only
# chooses each tile's levels and the band pixels' blend weights.  Each
# view's (tile, level) renders therefore live in its ``TileStore``, one
# plane per level, and a call renders only the pairs its frames need that
# the store lacks: a host-side, pair-level plan per frame (workload
# statistics, the blend band and the (tile, level) renders it needs), the
# *level passes* over the missing pairs (pass k renders each tile's k-th
# missing level, with those levels' opacities and colours as per-pair
# tables), band pieces that run the forward kernel chain over the passes,
# and a final per-frame assembly from the planes plus the blend of its
# band pixels.  A lone foveated frame is a batch of
# one through the identical code path.
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


@functools.lru_cache(maxsize=8)
def _run_tiles(height: int, width: int, tile_size: int) -> np.ndarray:
    """The tile of each pixel *run* of an image, row-major (read-only).

    A run is ``gcd(tile_size, W)`` pixels: it divides every tile's share of
    an image row, so each run is one contiguous piece of one tile.
    """
    run = math.gcd(tile_size, width)
    tiles_x = -(-width // tile_size)
    run_tile = (
        (np.arange(height)[:, None] // tile_size) * tiles_x
        + np.arange(0, width, run)[None, :] // tile_size
    ).reshape(-1)
    run_tile.setflags(write=False)
    return run_tile


def _assemble(
    image: np.ndarray,
    layers: np.ndarray,
    grid: TileGrid,
    tile_layer: np.ndarray,
    tiles: np.ndarray | None = None,
) -> None:
    """Copy each tile ``t`` of ``tiles`` (default: ``tile_layer > 0``) into
    ``image`` from ``layers[tile_layer[t]]``, clipped to [0, 1], in place.

    ``layers`` is ``(P, H, W, 3)``, so a frame pays only for the tiles it
    does not already hold.  One gather moves all of their pixel runs
    (:func:`_run_tiles`).
    """
    if tiles is None:
        tiles = tile_layer > 0
    if not tiles.any():
        return
    run_tile = _run_tiles(grid.height, grid.width, grid.tile_size)
    run = math.gcd(grid.tile_size, grid.width)
    moved = np.flatnonzero(tiles.take(run_tile))
    source = tile_layer.take(run_tile.take(moved)) * run_tile.size + moved
    runs = layers.reshape(-1, 3 * run).take(source, axis=0)
    image.reshape(-1, 3 * run)[moved] = np.clip(runs, 0.0, 1.0, out=runs)


@dataclasses.dataclass
class _BlendBand:
    """The pixels a foveated or multi-model frame renders at two levels.

    ``pixels`` are flat image indices (row-major) of the band pixels whose
    tile renders a second level, ``tiles`` their tiles and ``index`` their
    positions in the maps' band arrays; ``lo_t`` is the inner level of
    each blending tile's level pair (0 for the other tiles).
    """

    lo_t: np.ndarray  # (T,)
    pixels: np.ndarray  # (M,)
    tiles: np.ndarray  # (M,)
    index: np.ndarray  # (M,)

    @classmethod
    def select(cls, maps: Any, tile_ok: np.ndarray | None = None) -> "_BlendBand":
        """Band pixels of the tiles with a second level (and ``tile_ok``)
        whose band is the tile's level pair (its inner level is ``lo_t``)."""
        tl, second = maps.tile_level, maps.tile_second_level
        blends = second > 0 if tile_ok is None else (second > 0) & tile_ok
        lo_t = np.where(blends, np.minimum(tl, second), 0)
        # A band pixel's inner level is at least 1, so no pixel of a tile
        # with ``lo_t`` 0 is kept.
        index = np.flatnonzero(maps.band_inner == lo_t.take(maps.band_tiles))
        return cls(
            lo_t=lo_t,
            pixels=maps.band_pixels.take(index),
            tiles=maps.band_tiles.take(index),
            index=index,
        )

    @property
    def num_pixels(self) -> int:
        return int(self.pixels.shape[0])

    def blend(
        self,
        maps: Any,
        image: np.ndarray,
        layers: np.ndarray,
        primary_layer: np.ndarray,
        second_layer: np.ndarray,
    ) -> None:
        """Write the band pixels of ``image``, blended and clipped to [0, 1].

        A band pixel's primary render is read from
        ``layers[primary_layer[tile]]`` and its second from
        ``layers[second_layer[tile]]`` (``layers`` is ``(P, H, W, 3)``,
        unclipped).  A band pixel is ``(1 − w)·lo + w·hi`` for its band's
        inner (``lo``) and outer (``hi``) level renders: each render gets
        one per-pixel weight, ``1 − w`` or ``w`` by which of the two it is,
        and IEEE addition commutes, so summing primary then second is the
        same to the bit.
        """
        w = maps.band_weight.take(self.index)
        rest = 1.0 - w
        lo_is_primary = (maps.tile_level == self.lo_t)[self.tiles]
        w_primary = np.where(lo_is_primary, rest, w)
        w_second = np.where(lo_is_primary, w, rest)
        elements = _pixel_elements(layers)
        plane = image.shape[0] * image.shape[1]
        out = _pixel_values(elements.take(primary_layer[self.tiles] * plane + self.pixels))
        out *= w_primary[:, None]
        second = _pixel_values(elements.take(second_layer[self.tiles] * plane + self.pixels))
        second *= w_second[:, None]
        out += second
        np.clip(out, 0.0, 1.0, out=out)
        _pixel_elements(image).put(self.pixels, out.view(_PIXEL).reshape(-1))


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

    def mark_needs(self, need: np.ndarray) -> None:
        """Set the frame's (tile, level) renders in an ``(L, T)`` mask."""
        for level in (self.primary, self.second):
            if level is not None:
                tiles = np.flatnonzero(level)
                need[level[tiles] - 1, tiles] = True


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
    band = _BlendBand.select(maps, nonempty)
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


class TileStore:
    """One view's unclipped (tile, level) renders, kept across foveated calls.

    A tile's render at level ``t`` depends only on the view, the tile and
    ``t``, so it serves every later frame of the view that needs that
    pair.  A :class:`~repro.splat.renderer.ViewCache` entry carries a store
    (``PreparedView.tile_store``), so a frame at a cached pose scans only
    the pairs its store lacks; a view without one gets a store per call.

    ``planes[t - 1]`` holds level ``t``'s renders, unclipped, over the
    background: the ``(L, H, W, 3)`` block is allocated at the view's first
    render and each plane is filled on its level's first use, so a view
    holds at most ``L·H·W·24`` bytes.  ``rendered`` marks the ``(L, T)``
    pairs rendered, and ``spans``/``sort_work`` hold each render's
    :class:`TileWork` row.
    The store also keeps the view's gaze-independent tables: its pair rows,
    each pair's quality bound and :func:`_tile_bound_counts`.

    Renders are valid only for the tables they were made with (quality
    bounds, level opacities and colour deltas, background): :meth:`bind`
    drops everything on any difference.  One call renders with a store at a
    time (``lock``); a call that finds it taken renders with its own.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self._tables: tuple[np.ndarray, ...] = ()

    def bind(
        self,
        projected: ProjectedGaussians,
        assignment: TileAssignment,
        tables: tuple[np.ndarray, ...],
        num_levels: int,
    ) -> None:
        """Keep the renders if they were made with ``tables`` (the bounds,
        every level's opacities, then colour deltas, then the background),
        else start empty for them."""
        if len(tables) == len(self._tables) and all(
            new is old or same_bytes(new, old) for new, old in zip(tables, self._tables)
        ):
            return
        # A read-only array that owns its data (the memoized level tables)
        # is kept by reference; anything a caller may still edit, as a copy.
        self._tables = tuple(
            a if a.base is None and not a.flags.writeable else snapshot(a) for a in tables
        )
        self.rows: _ViewRows | None = None
        self.pair_bounds = self.tile_pairs = None
        if assignment.num_intersections:
            self.rows = _ViewRows.build(projected, assignment)
            self.pair_bounds = tables[0][projected.point_ids[self.rows.seg.pair_splats]]
            self.tile_pairs = _tile_bound_counts(self.rows.seg, self.pair_bounds, num_levels)
        shape = (num_levels, assignment.grid.num_tiles)
        self.planes: np.ndarray | None = None
        self.filled = np.zeros(num_levels, dtype=bool)
        self.rendered = np.zeros(shape, dtype=bool)
        self.spans = np.zeros(shape, dtype=np.int64)
        self.sort_work = np.zeros(shape)

    def fill(self, levels: np.ndarray) -> np.ndarray:
        """The planes, each of ``levels`` (a ``(L,)`` mask) filled with the
        background on its first use."""
        grid = self.rows.seg.grid
        if self.planes is None:
            self.planes = np.empty((len(levels), grid.height, grid.width, 3))
        for t in np.flatnonzero(levels & ~self.filled):
            _background_frame(grid, self._tables[-1], self.planes[t])
        self.filled |= levels
        return self.planes

    def passes(
        self, missing: np.ndarray, op_mat: np.ndarray, de_mat: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray], dict[str, np.ndarray]]:
        """The composite passes rendering the ``missing`` ``(L, T)`` pairs.

        Returns ``(levels, pass_counts, tables)``.  ``levels[k, t]`` is the
        level tile ``t`` renders in pass ``k`` (0: none): pass ``k`` holds
        each tile's ``k``-th missing level, so a lone frame, whose tiles
        need at most two levels, renders in two passes (one pass per level
        would scan the same spans at more per-pass cost).  ``pass_counts``
        holds each pass's per-pair span counts, zero for the pairs it drops
        (below its tile's level bound, or in a tile the pass does not
        render), and ``tables`` the passes' pair tables stacked in pass
        order, with opacities and colours at each pass's levels
        (``op_mat``/``de_mat``: every level's tables, stacked).
        """
        rows = self.rows
        lv, tiles = np.nonzero(missing)
        rank = (np.cumsum(missing, axis=0) - 1)[lv, tiles]
        levels = np.zeros((rank.max() + 1, missing.shape[1]), dtype=np.int64)
        levels[rank, tiles] = lv + 1
        pair_levels = levels.take(rows.seg.pair_tiles, axis=1)  # (P, K)
        keep = (pair_levels > 0) & (self.pair_bounds >= pair_levels)
        tables = rows.tables
        if len(levels) > 1:
            tables = {name: np.concatenate([t] * len(levels)) for name, t in tables.items()}
        opacities, colors = _level_tables(tables, op_mat, de_mat, pair_levels.reshape(-1))
        return (
            levels,
            [np.where(k, rows.counts, 0) for k in keep],
            dict(tables, opacities=opacities, colors=colors),
        )


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
        (:func:`_pixel_elements`; the indices carry the source's
        ``pass_offsets``); per pass,
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
                targets.append((src, k))
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
        for v, (spans, (src, k)) in enumerate(zip(passes, targets)):
            if spans.num_spans:
                idx, ok = _group_pixel_index(spans)
                if src.pass_offsets is not None:
                    idx += src.pass_offsets[k].take(spans.group_tile)[:, None]
                at = classes.group_rank[batch.view_groups(v), None] * ts + lanes
                scattered.append((src.index, k, idx[ok], elements.take(at[ok])))
        winners_out = []
        if num_points is not None:
            lane_ok = np.concatenate(
                [s.seg.geometry.lane_valid[s.group_tile] for s in passes]
            )[classes.group_order]  # (Q, ts)
            winners, has_any = batch_dominated_winners(
                ws, weights, classes.groups, lane_ok, perm
            )
            for v, (src, _) in enumerate(targets):
                cols = classes.group_rank[batch.view_groups(v)]
                sel = has_any[:, cols]
                winner_pairs = bt.span_pair[winners[:, cols][sel]]
                winners_out.append(
                    (src.index, np.bincount(pairs["pids"][winner_pairs], minlength=num_points))
                )
        pass_spans = [(src.index, k, spans) for spans, (src, k) in zip(passes, targets)]
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
        a tile's pixels at level ``t`` depend only on the view, the tile
        and ``t``: the view's renders live in its :class:`TileStore` (the
        view's ``tile_store`` when it has one, as a
        :class:`~repro.splat.renderer.ViewCache` entry does, else a store
        for this call).  Of the (tile, level) pairs the frames need —
        every non-empty tile at its primary level, every tile holding band
        pixels at its second level — the call renders only those the store
        lacks, in level passes (:meth:`TileStore.passes`), and level
        filtering keeps each render to the spans whose pair passes its
        quality bound.  The
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
        levels = range(1, n_levels + 1)
        tables = (
            bounds, *(level_opacity[t] for t in levels), *(level_delta[t] for t in levels),
            background,
        )
        budget = span_chunk_budget()

        @functools.cache
        def level_mats() -> tuple[np.ndarray, np.ndarray]:
            # Built only by a call with pairs to render.
            return (
                np.stack([level_opacity[t] for t in levels]),  # (L, N)
                np.stack([level_delta[t] for t in levels]),  # (L, N, 3)
            )

        members: dict[int, list[int]] = {}
        for f, (_, assignment) in enumerate(views):
            members.setdefault(id(assignment), []).append(f)
        groups = list(members.values())
        plans: list[Any] = [None] * len(views)
        # Per view group: its store, the (L, T) pairs this call renders into
        # it, and its passes' (P, T) level tables (None: no pass).
        stores: list[TileStore] = []
        missing: list[np.ndarray] = []
        pass_levels: list[np.ndarray | None] = []
        held: list[TileStore] = []
        work: dict[str, int] = {"frames": len(views), "tiles_rendered": 0, "tiles_reused": 0}

        def sources():
            # One source per view with pairs to render; its pass tables are
            # dropped with the source (the pieces in flight hold what they
            # still need).
            for g, frames in enumerate(groups):
                view = views[frames[0]]
                store = getattr(view, "tile_store", None)
                if store is not None and store.lock.acquire(blocking=False):
                    held.append(store)
                else:
                    store = TileStore()
                store.bind(view[0], view[1], tables, n_levels)
                need = np.zeros_like(store.rendered)
                for f in frames:
                    plans[f] = _frame_plan(maps_list[f], view[1].grid, store.rows, store.tile_pairs)
                    plans[f].mark_needs(need)
                new = need & ~store.rendered
                work["tiles_rendered"] += int(new.sum())
                work["tiles_reused"] += int(need.sum()) - int(new.sum())
                stores.append(store)
                missing.append(new)
                pass_levels.append(None)
                if not new.any():
                    continue
                pass_levels[g], counts, pass_tables = store.passes(new, *level_mats())
                sizes = sum(store.rows.band_sizes(c) for c in counts)
                grid = view[1].grid
                offsets = list(np.maximum(pass_levels[g] - 1, 0) * (grid.height * grid.width))
                yield _Source(g, store.rows, counts, pass_tables, offsets), sizes

        def run(parts):
            # Each pass's spans die here, reduced to their per-tile work.
            scattered, pass_spans, _ = self._piece(parts, background)
            return scattered, [(g, k, TileWork.of(spans)) for g, k, spans in pass_spans]

        try:
            with backend_span("alpha-scan", args=work):
                results = _run_pieces(_band_pieces(sources(), budget), run, work, budget)
            # Work counters: spans the passes scan (``spans``) vs. spans the
            # frames built before level filtering (the compaction and reuse
            # saving).
            work["built"] = sum(plan.built for plan in plans)
            return self._assemble_frames(
                views, groups, plans, stores, missing, pass_levels, results, background
            )
        finally:
            for store in held:
                store.lock.release()

    def _assemble_frames(
        self, views, groups, plans, stores, missing, pass_levels, results, background
    ) -> list[FoveatedFrame]:
        """Scatter a foveated call's renders into its stores, then assemble
        and blend every frame from the stores' planes."""
        composite_args = {"frames": len(views), "clipped_layers": 0, "blend_pixels": 0}
        with backend_span("composite", args=composite_args):
            # A pass's pixel indices point into the planes of its tiles'
            # levels.
            planes = [
                None if levels is None else _pixel_elements(store.fill(new.any(axis=1)))
                for store, new, levels in zip(stores, missing, pass_levels)
            ]
            for scattered, pass_work in results:
                for g, k, idx, values in scattered:
                    planes[g][idx] = values
                for g, k, w in pass_work:
                    # A pass's work is zero outside its tiles, so the tiles
                    # it does not render may add theirs to any level.
                    at = (np.maximum(pass_levels[g][k] - 1, 0), np.arange(len(w.grid_spans)))
                    stores[g].spans[at] += w.grid_spans
                    stores[g].sort_work[at] += w.grid_sort_work
            for store, new in zip(stores, missing):
                store.rendered |= new

            out: list[Any] = [None] * len(views)
            for frames, store in zip(groups, stores):
                if store.rows is None:
                    for f in frames:
                        grid = views[f][1].grid
                        image = _background_frame(grid, background)
                        np.clip(image, 0.0, 1.0, out=image)
                        out[f] = _foveated_frame(plans[f], image)
                    continue
                grid = store.rows.seg.grid
                tile_ids = np.arange(grid.num_tiles)
                nonempty = store.rows.seg.tile_last_pair >= 0
                # Every frame starts from the view's first frame, clipped
                # once per view (the last frame takes it, the others copy
                # it): the plane most of its tiles read, clipped, with its
                # other tiles copied in.  A frame then copies in only the
                # tiles whose primary level differs from the first frame's.
                # The blend reads the unclipped planes and clips its band
                # pixels alone.
                first = plans[frames[0]].maps.tile_level
                base_level = int(np.argmax(np.bincount(first[nonempty])))
                base = np.clip(store.planes[base_level - 1], 0.0, 1.0)
                composite_args["clipped_layers"] += 1
                _assemble(base, store.planes, grid, first - 1, nonempty & (first != base_level))
                for i, f in enumerate(frames):
                    plan = plans[f]
                    tl = plan.maps.tile_level
                    image = base if i == len(frames) - 1 else base.copy()
                    _assemble(image, store.planes, grid, tl - 1, nonempty & (tl != first))
                    if plan.blend_pixels:
                        plan.band.blend(
                            plan.maps, image, store.planes, tl - 1,
                            np.maximum(plan.second - 1, 0),
                        )
                        composite_args["blend_pixels"] += plan.blend_pixels
                    at = (tl - 1, tile_ids)
                    frame_work = TileWork(store.spans[at], store.sort_work[at], grid.tile_size)
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

        band = _BlendBand.select(maps)
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

        image = np.clip(layers[0], 0.0, 1.0)
        _assemble(image, layers, grid, tl - 1)
        if band.num_pixels:
            band.blend(maps, image, layers, tl - 1, np.maximum(second - 1, 0))

        return FoveatedFrame(
            image=image,
            sort_intersections_per_tile=sort_ints,
            raster_intersections_per_tile=raster_ints,
            blend_pixels=band.num_pixels,
        )
