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
construction, chunking and the scatter back into frames, while every scan
and reduction runs through the backend's ``nsx`` (numpy by default; the
``packed-xp`` registry entry resolves torch/cupy at runtime).  There is one
kernel family: the standard forward (a batch of one view), the batched
forward, the foveated and multi-model frames and the backward pass all run
on the same span kernels, with their scratch in the backend's
thread-local :class:`~repro.splat.backends.kernels.Workspace`, so repeated
renders touch only warm pages.

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

import dataclasses
import functools
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
    SegmentIndex,
    SpanBatch,
    build_row_spans,
    build_segments,
    concat_spans,
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


# Cache-residency budget of one batched scan, in spans.  A batch scan's
# temporaries are ``(tile_size, R)``; once they outgrow the fast cache
# levels every whole-batch operation streams from DRAM, which measured ~2x
# slower per element than cache-resident per-view arrays.  8k spans keeps
# each scan matrix around 1 MB (at the default 16-px tiles) — the best point
# of a 6k–24k sweep across frame sizes and view counts — while still
# amortizing the fixed per-frame kernel overhead across several views.
# ``repro.cli tune`` re-measures the knee per machine and persists it to a
# host profile; ``REPRO_BATCH_SPAN_BUDGET`` overrides both.  Device
# namespaces skip the chunking entirely (no CPU cache to stay resident in).
DEFAULT_SPAN_CHUNK_BUDGET = 8192
SPAN_BUDGET_ENV = "REPRO_BATCH_SPAN_BUDGET"

# Per-view span budget of the cache-tiled ``packed-tiled`` backend: frames
# whose span list exceeds it are scanned in group-aligned sub-chunks so the
# scan temporaries of *one very large frame* stay LLC-resident (the span
# chunk budget above only bounds how many small frames share a scan — a
# single oversized frame still ran as one whole-frame scan).  The default
# follows the tuner: host profile, else the LLC cost-model prediction,
# else 4x the span chunk budget; ``REPRO_TILE_SPAN_BUDGET`` overrides.
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
    """Tile extent of the ``packed-tiled`` backend, in spans.

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


def split_spans(spans: RowSpans, max_spans: int) -> list[RowSpans]:
    """Split a span list into group-aligned pieces of ``<= max_spans`` spans.

    Pieces cut only at ``(tile, row)`` group boundaries, so every segmented
    scan over a piece sees exactly the whole groups it would see in the
    full-frame scan — per-group depth order, group order and the
    ``span_pair`` indexing into the *full* pair tables are all preserved,
    which is what lets the tiled backend share one set of pair gather
    tables across its sub-chunks.  A single group larger than ``max_spans``
    becomes its own oversized piece (groups are never split: the
    transmittance scan's re-centring happens at group starts).
    """
    if max_spans < 1:
        raise ValueError(f"max_spans must be positive, got {max_spans}")
    if spans.num_spans <= max_spans:
        return [spans]
    lens = spans.groups.lens
    ends = spans.groups.starts + lens  # (Q,) exclusive span end of each group
    pieces: list[RowSpans] = []
    g0 = 0
    s0 = 0
    num_groups = spans.num_groups
    while g0 < num_groups:
        g1 = int(np.searchsorted(ends, s0 + max_spans, side="right"))
        if g1 <= g0:  # one group alone exceeds the budget
            g1 = g0 + 1
        s1 = int(ends[g1 - 1])
        pieces.append(
            RowSpans(
                seg=spans.seg,
                span_pair=spans.span_pair[s0:s1],
                span_tile=spans.span_tile[s0:s1],
                span_y=spans.span_y[s0:s1],
                groups=SegmentIndex.from_lengths(lens[g0:g1]),
                group_tile=spans.group_tile[g0:g1],
                group_y=spans.group_y[g0:g1],
                group_has_tile_last=spans.group_has_tile_last[g0:g1],
            )
        )
        g0, s0 = g1, s1
    return pieces


def _batch_pair_tables(
    views: list[tuple[ProjectedGaussians, TileAssignment]],
    spans_list: list[RowSpans],
) -> dict[str, np.ndarray]:
    """Concatenated per-pair gather tables aligned with a batch's pair rows.

    One gather per view, so every later batch-wide lookup (means, conics,
    colours, opacities, depths, point ids, tile x-origins) is a single flat
    index into these host tables regardless of which frame a span came
    from.  :meth:`BatchTables.build` moves them to the namespace.
    """
    tables: dict[str, list[np.ndarray]] = {
        name: []
        for name in ("means", "conics", "opacities", "colors", "pids", "origin_x", "depths")
    }
    for (projected, _), spans in zip(views, spans_list):
        seg = spans.seg
        sel = seg.pair_splats
        tables["means"].append(projected.means2d[sel])
        tables["conics"].append(projected.conics[sel])
        tables["opacities"].append(projected.opacities[sel])
        tables["colors"].append(projected.colors[sel])
        tables["pids"].append(projected.point_ids[sel])
        tables["origin_x"].append(seg.geometry.origin_x[seg.pair_tiles])
        tables["depths"].append(projected.depths[sel])
    return {name: np.concatenate(parts) for name, parts in tables.items()}


# ----------------------------------------------------------------------
# Foveated span-stage decomposition
#
# The foveated frame is composed from the same span kernels as the
# standard forward: a host-side *plan* (level filtering compacts each
# composite pass to the spans whose pair passes its level's quality bound,
# plus the blend-band tile selection), one chunk-wide exp table that every
# pass gathers its alphas from, one shared transmittance scan and
# composite, and a final per-frame blend.  ``foveated_frame_batch`` puts
# many frames' passes into one scan; ``foveated_frame`` is a batch of one
# through the identical code path.
# ----------------------------------------------------------------------


@dataclasses.dataclass
class _FoveatedPlan:
    """Host-side stage decomposition of one foveated frame.

    Built before any pixel math runs: the filtering-stage workload
    statistics, the blend-band pixel selection, and the *compacted* span
    lists of both composite passes.  ``primary`` keeps only the spans whose
    pair passes its own tile's level bound; ``blend`` only the blend-band
    tiles' spans whose pair passes the second level's bound — filtered
    points never reach the scan.  ``union`` is the frame's share of the
    chunk's Gaussian-exp table (every span either pass scans), and
    ``primary_cols``/``blend_cols`` index each pass's spans into it
    (``None``: the pass *is* the union).  ``level_spans`` are the per-level
    tile subsets of ``primary`` that feed the accelerator model.  The span
    lists are ``None`` for frames without intersections (they render as
    pure background).
    """

    maps: Any
    pair_tl: np.ndarray | None  # (K,) primary level per pair
    pair_second: np.ndarray | None  # (K,) second (blend) level per pair
    union: RowSpans | None
    primary: RowSpans | None
    primary_cols: np.ndarray | None  # (R_p,) columns of ``primary`` in ``union``
    blend: RowSpans | None  # second-level pass, ``None`` without band pixels
    blend_cols: np.ndarray | None  # (R_b,) columns of ``blend`` in ``union``
    built: int  # spans built for the frame before level filtering
    sort_ints: np.ndarray  # (T,)
    raster_ints: np.ndarray  # (T,)
    mix_full: np.ndarray | None  # (H, W) pixels blending two levels
    lo_t: np.ndarray | None  # (T,) inner level of each tile's blend pair
    blend_pixels: int
    level_spans: dict[int, RowSpans]

    @property
    def scanned(self) -> int:
        """Spans the composite passes scan (after level filtering)."""
        return sum(s.num_spans for s in (self.primary, self.blend) if s is not None)


def _foveated_plan(
    projected: ProjectedGaussians,
    assignment: TileAssignment,
    maps: Any,
    bounds: np.ndarray,
    n_levels: int,
    view_memo: dict[int, tuple[PackedSegments, RowSpans]] | None = None,
) -> _FoveatedPlan:
    """Filtering + blend-band planning of one frame (no pixel math).

    Level filtering is expressed as span structure: each pass's span list
    is compacted (:meth:`RowSpans.subset_spans`) to the spans whose pair
    passes that pass's quality bound, so the alpha scan only ever sees
    fragments that contribute.  The per-level filtered span lists surfaced
    for accelerator alignment are tile subsets of the compacted primary.

    ``view_memo`` shares the gaze-independent span structure across frames
    of one batch: a trajectory's samples repeat the same prepared view
    object, so its segments and row spans are built once per batch call
    rather than once per gaze (keyed by the assignment's identity).
    """
    grid = assignment.grid
    num_tiles = grid.num_tiles
    if assignment.num_intersections == 0:
        return _FoveatedPlan(
            maps=maps, pair_tl=None, pair_second=None,
            union=None, primary=None, primary_cols=None, blend=None,
            blend_cols=None, built=0,
            sort_ints=np.zeros(num_tiles, dtype=np.int64),
            raster_ints=np.zeros(num_tiles, dtype=np.float64),
            mix_full=None, lo_t=None, blend_pixels=0, level_spans={},
        )

    cached = view_memo.get(id(assignment)) if view_memo is not None else None
    if cached is None:
        seg = build_segments(assignment)
        spans = build_row_spans(projected, seg)
        if view_memo is not None:
            view_memo[id(assignment)] = (seg, spans)
    else:
        seg, spans = cached
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
    mask_primary = pair_bounds >= pair_tl
    raster_ints = np.bincount(
        seg.pair_tiles[mask_primary], minlength=num_tiles
    ).astype(np.float64)
    keep_primary = mask_primary[spans.span_pair]
    primary = spans.subset_spans(keep_primary)

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
    union, primary_cols = primary, None
    blend = blend_cols = None
    if blend_pixels:
        mix_count = np.bincount(tile_map[mix_full], minlength=num_tiles)
        sel_tiles = mix_count > 0  # implies second > 0 and non-empty
        mask_second = pair_bounds >= pair_second
        # Second-level pass touches only the band pixels.
        msec = np.bincount(seg.pair_tiles[mask_second], minlength=num_tiles)
        raster_ints[sel_tiles] += (
            msec[sel_tiles] * mix_count[sel_tiles] / grid.tile_size**2
        )
        keep_second = sel_tiles[spans.span_tile] & mask_second[spans.span_pair]
        blend = spans.subset_spans(keep_second)
        keep_union = keep_primary | keep_second
        union = spans.subset_spans(keep_union)
        primary_cols = np.flatnonzero(keep_primary[keep_union])
        blend_cols = np.flatnonzero(keep_second[keep_union])

    # Per-level filtered span subsets: level t owns the primary spans of
    # its non-empty tiles — exactly the fragments the primary composite
    # rasterizes there.  This is the real foveated workload the accelerator
    # model consumes (accel.spans_to_tile_counts).
    level_spans: dict[int, RowSpans] = {}
    for t in range(1, n_levels + 1):
        tiles_t = (tl == t) & nonempty
        if tiles_t.any():
            level_spans[t] = primary.subset(tiles_t)

    return _FoveatedPlan(
        maps=maps, pair_tl=pair_tl,
        pair_second=pair_second, union=union, primary=primary,
        primary_cols=primary_cols, blend=blend, blend_cols=blend_cols,
        built=spans.num_spans, sort_ints=sort_ints, raster_ints=raster_ints,
        mix_full=mix_full, lo_t=lo_t, blend_pixels=blend_pixels,
        level_spans=level_spans,
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
        grid = assignment.grid
        dominated = np.zeros(num_points, dtype=np.int64) if collect_stats else None
        if assignment.num_intersections == 0:
            return _background_frame(grid, background), dominated

        seg = build_segments(assignment)
        # Per-pixel sorting keeps every tile row: its early-termination gate
        # sits at the per-pixel deepest splat, which the strip bound could
        # otherwise prune (the permuted group-last slot is then exactly the
        # reference's gate row).
        spans = build_row_spans(projected, seg, full_rows=per_pixel_sort)
        if spans.num_spans == 0:
            return _background_frame(grid, background), dominated
        # A batch of one through the same kernels as ``forward_batch``.
        return self._forward_chunk(
            [(projected, assignment)], [spans], num_points, background,
            collect_stats, per_pixel_sort,
        )[0]

    def forward_batch(
        self,
        views: list[tuple[ProjectedGaussians, TileAssignment]],
        num_points: int,
        background: np.ndarray,
        collect_stats: bool,
        per_pixel_sort: bool,
    ) -> list[tuple[np.ndarray, np.ndarray | None]]:
        """Rasterize several views of one model in batch-segmented scans.

        Per-view span lists concatenate into one batch (the grids may differ
        as long as the tile size is shared), so alpha evaluation, the
        transmittance scan, compositing and the Val_i statistics each run
        once over all the batched frames; only the final scatter into each
        frame and the cheap per-view span construction remain per view.
        On CPU namespaces, scans are capped at :func:`span_chunk_budget`
        spans (several views' worth) so the shared scan matrices stay
        cache-resident — one scan over everything would stream every
        operation from DRAM.  Device namespaces run one concatenated scan
        per batch: there is no CPU cache to stay resident in, and kernel
        launches amortize best over the largest possible segments.
        """
        if not views:
            return []
        sizes = {a.grid.tile_size for _, a in views}
        if len(sizes) > 1:
            raise ValueError(f"views must share one tile size, got {sorted(sizes)}")
        budget = span_chunk_budget() if self.nsx.device == "cpu" else None

        # Chunks are built streaming — one view's spans at a time, flushed
        # once the budget fills — so peak residency is one chunk's spans and
        # tables (plus the caller's views), never the whole batch's.
        results: list[tuple[np.ndarray, np.ndarray | None]] = []
        chunk_views: list[tuple[ProjectedGaussians, TileAssignment]] = []
        chunk_spans: list[RowSpans] = []
        total = 0

        def flush():
            nonlocal chunk_views, chunk_spans, total
            if chunk_views:
                results.extend(
                    self._forward_chunk(
                        chunk_views, chunk_spans, num_points, background,
                        collect_stats, per_pixel_sort,
                    )
                )
            chunk_views, chunk_spans, total = [], [], 0

        for view in views:
            spans = build_row_spans(
                view[0], build_segments(view[1]), full_rows=per_pixel_sort
            )
            if (
                chunk_views
                and budget is not None
                and total + spans.num_spans > budget
            ):
                flush()
            chunk_views.append(view)
            chunk_spans.append(spans)
            total += spans.num_spans
        flush()
        return results

    def _forward_chunk(
        self,
        views: list[tuple[ProjectedGaussians, TileAssignment]],
        spans_list: list[RowSpans],
        num_points: int,
        background: np.ndarray,
        collect_stats: bool,
        per_pixel_sort: bool,
    ) -> list[tuple[np.ndarray, np.ndarray | None]]:
        """One concatenated scan over a chunk of views."""
        images = [_background_frame(a.grid, background) for _, a in views]
        dominated: list[np.ndarray | None] = [
            np.zeros(num_points, dtype=np.int64) if collect_stats else None
            for _ in views
        ]
        batch = concat_spans(spans_list)  # validates the shared tile size
        if batch.num_spans == 0:
            return list(zip(images, dominated))

        nsx, ws = self.nsx, self._ws
        with backend_span("alpha-scan", args={"views": len(views), "spans": int(batch.num_spans)}):
            pairs = _batch_pair_tables(views, spans_list)
            bt = BatchTables.build(nsx, batch, pairs)
            weights, final, perm = self._scan(bt, batch, per_pixel_sort)

        with backend_span("composite", args={"views": len(views)}):
            # One compositing reduction over the whole batch, scattered per view.
            pixels = batch_composite(
                nsx, ws, weights, final, batch_span_colors(nsx, ws, bt),
                batch.groups, background, perm,
            )
            for v, spans in enumerate(spans_list):
                if spans.num_groups == 0:
                    continue
                idx, ok = _group_pixel_index(spans)
                images[v].reshape(-1, 3)[idx[ok]] = pixels[batch.view_groups(v)][ok]

        if collect_stats:
            ok_all = np.concatenate(
                [s.seg.geometry.lane_valid[s.group_tile] for s in spans_list]
            )  # (Q, ts)
            winners, has_any = batch_dominated_winners(
                nsx, ws, weights, batch.groups, ok_all, perm
            )
            for v in range(len(views)):
                gsl = batch.view_groups(v)
                sel = has_any[:, gsl]
                if not sel.any():
                    continue
                winner_pairs = batch.span_pair[winners[:, gsl][sel]]
                np.add.at(dominated[v], pairs["pids"][winner_pairs], 1)
        return list(zip(images, dominated))

    def _scan(
        self, bt: BatchTables, batch: SpanBatch, per_pixel_sort: bool
    ) -> tuple[Any, Any, Any]:
        """Alphas and transmittance of one batch: ``(weights, final, perm)``."""
        nsx, ws = self.nsx, self._ws
        quad = batch_span_quad(nsx, ws, bt)
        alphas = batch_span_alphas(nsx, ws, bt, quad)
        perm = None
        if per_pixel_sort:
            perm = batch_per_pixel_permutation(nsx, bt, quad, batch.groups)
            alphas = nsx.take_along_last(alphas, perm)
        trans, final = batch_transmittance(
            nsx, ws, alphas, batch.groups, batch.group_has_tile_last,
            batch.group_offsets,
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
        batch = concat_spans([spans])
        pairs = _batch_pair_tables([(projected, assignment)], [spans])
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
        """Render several foveated frames in one concatenated batch scan.

        Each frame decomposes into span-kernel stages (see
        :func:`_foveated_plan` / :meth:`_foveated_chunk`): level filtering
        compacts each composite pass's :class:`RowSpans` to the spans whose
        pair passes its quality bound, and the blend-band second-level pass
        becomes an *extra batch segment* riding the same scan as the primary
        composite.  All frames' passes then share one exp table,
        transmittance scan and compositing reduction — only the per-frame
        span construction, the scatter into each frame and the blend
        interpolation remain per frame.  On CPU namespaces, frames are chunked to
        :func:`span_chunk_budget` *scanned* (post-filter) spans so the
        shared scan matrices stay cache-resident, exactly like
        :meth:`forward_batch`.
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

        results: list[FoveatedFrame] = []
        chunk: list[tuple[tuple[ProjectedGaussians, TileAssignment], _FoveatedPlan]] = []
        total = 0

        # Gaze samples of one pose repeat the same prepared view: their
        # segments/spans are built once per call, surviving chunk flushes
        # (a big foveated frame easily fills a whole chunk by itself, so
        # per-chunk sharing alone would never hit).  Entries are evicted
        # once the last frame referencing a view has flushed, so a
        # multi-pose batch keeps the chunk-residency bound of
        # ``forward_batch`` instead of accumulating every pose's span
        # structure for the whole call.
        view_memo: dict[int, tuple[PackedSegments, RowSpans]] = {}
        remaining: dict[int, int] = {}
        for _, assignment in views:
            key = id(assignment)
            remaining[key] = remaining.get(key, 0) + 1

        def flush():
            nonlocal chunk, total
            if chunk:
                results.extend(self._foveated_chunk(chunk, op_mat, de_mat, background))
                for (_, assignment), _plan in chunk:
                    key = id(assignment)
                    remaining[key] -= 1
                    if remaining[key] == 0:
                        view_memo.pop(key, None)
            chunk, total = [], 0
        for view, maps in zip(views, maps_list):
            plan = _foveated_plan(
                view[0], view[1], maps, bounds, n_levels, view_memo=view_memo
            )
            if chunk and budget is not None and total + plan.scanned > budget:
                flush()
            chunk.append((view, plan))
            total += plan.scanned
        flush()
        return results

    def _foveated_chunk(
        self,
        chunk: list[tuple[tuple[ProjectedGaussians, TileAssignment], "_FoveatedPlan"]],
        op_mat: np.ndarray,
        de_mat: np.ndarray,
        background: np.ndarray,
    ) -> list[FoveatedFrame]:
        """One concatenated scan over a chunk of frames' composite passes.

        The frames' union span lists share one quadratic form and one
        ``exp(-q/2)`` table.  Each pass — a frame's primary pass, then its
        blend-band pass — gathers its columns from that table and scales
        them by the per-span level opacity, so a span both passes keep pays
        for one exp.  Every pass then rides one transmittance scan and one
        compositing reduction, in frame order.
        """
        nsx, ws = self.nsx, self._ws
        prim = [_background_frame(a.grid, background) for (_, a), _ in chunk]
        sec = {
            f: _background_frame(a.grid, background)
            for f, ((_, a), plan) in enumerate(chunk)
            if plan.blend_pixels
        }
        live = [f for f, (_, plan) in enumerate(chunk) if plan.scanned]
        passes: list[tuple[np.ndarray, RowSpans]] = []  # (target image, spans)
        # Work counters: spans the passes scan vs. spans built before level
        # filtering (the compaction saving).
        work = {
            "frames": len(chunk),
            "spans": sum(plan.scanned for _, plan in chunk),
            "built": sum(plan.built for _, plan in chunk),
        }
        with backend_span("alpha-scan", args=work):
            if live:
                unions = concat_spans([chunk[f][1].union for f in live])
                pairs = _batch_pair_tables([chunk[f][0] for f in live], unions.views)
                base_exp = batch_span_quad(nsx, ws, BatchTables.build(nsx, unions, pairs))
                base_exp = exp_neg_half(nsx, base_exp, out=base_exp)
                cols, span_pair, levels = [], [], []
                for i, f in enumerate(live):
                    plan = chunk[f][1]
                    for target, spans, pass_cols, pair_levels in (
                        (prim[f], plan.primary, plan.primary_cols, plan.pair_tl),
                        (sec.get(f), plan.blend, plan.blend_cols, plan.pair_second),
                    ):
                        if spans is None or spans.num_spans == 0:
                            continue
                        if pass_cols is None:  # the pass is the whole union
                            pass_cols = np.arange(spans.num_spans, dtype=np.int64)
                        passes.append((target, spans))
                        cols.append(pass_cols + unions.span_offsets[i])
                        span_pair.append(spans.span_pair + unions.pair_offsets[i])
                        # Kept spans never index level 0.
                        levels.append(pair_levels[spans.span_pair] - 1)
                batch = concat_spans([spans for _, spans in passes])
                span_pair = np.concatenate(span_pair)
                levels = np.concatenate(levels)
                pids = pairs["pids"][span_pair]
                alphas = batch_level_alphas(
                    nsx, ws, base_exp, np.concatenate(cols), op_mat[levels, pids]
                )
                colors = pairs["colors"][span_pair] + de_mat[levels, pids]
                trans, final = batch_transmittance(
                    nsx, ws, alphas, batch.groups, batch.group_has_tile_last,
                    batch.group_offsets,
                )
                weights = batch_weights(nsx, ws, trans, alphas)

        with backend_span("composite", args={"frames": len(chunk)}):
            if passes:
                pixels = batch_composite(
                    nsx, ws, weights, final, nsx.asarray(colors), batch.groups,
                    background,
                )
                for v, (target, spans) in enumerate(passes):
                    idx, ok = _group_pixel_index(spans)
                    target.reshape(-1, 3)[idx[ok]] = pixels[batch.view_groups(v)][ok]

            out = []
            for f, ((projected, assignment), plan) in enumerate(chunk):
                image = prim[f]
                if plan.blend_pixels:
                    image = _foveated_blend(plan, assignment.grid, prim[f], sec[f])
                out.append(
                    FoveatedFrame(
                        image=image,
                        sort_intersections_per_tile=plan.sort_ints,
                        raster_intersections_per_tile=plan.raster_ints,
                        blend_pixels=plan.blend_pixels,
                        level_spans=plan.level_spans,
                    )
                )
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
            sub_spans = build_row_spans(
                projected_v, build_segments(assignment_v)
            ).subset(need)
            if sub_spans.num_spans == 0:
                continue
            ((img_v, _),) = self._forward_chunk(
                [views[level - 1]], [sub_spans], 0, background, False, False
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


class TiledPackedBackend(PackedBackend):
    """Cache-tiled span engine (``packed-tiled``): blocked scans for very
    large frames.

    The span chunk budget only bounds how many *small* frames share one
    batched scan — a single frame whose span list already exceeds the
    budget still ran as one whole-frame scan, streaming every segmented
    operation from DRAM once its ``(tile_size, R)`` temporaries outgrow the
    LLC.  This backend splits any such view into group-aligned sub-chunks
    of at most :func:`tile_span_budget` spans (:func:`split_spans`) and
    scans them back-to-back against one shared set of pair gather tables,
    so each sub-chunk's scan working set stays cache-resident.  The tile
    extent comes from the tuner: host profile, else the LLC cost-model
    prediction, else the built-in default — ``REPRO_TILE_SPAN_BUDGET``
    overrides.

    Views at or under the budget take the inherited whole-frame path and
    are bit-identical to ``packed``.  Tiled views match ``reference`` (and
    ``packed``) to within the standard 1e-10 band, not bitwise: the
    log-space transmittance scan restarts at each sub-chunk, which moves
    last-ulp rounding against one whole-frame scan.  (Tiling is per view,
    so batched views are still bitwise equal to lone ones.)  The backward
    and foveated paths are inherited untiled (the foveated path already
    chunks frames to the span budget); the levels of a multi-model frame
    render through :meth:`_forward_chunk` and are tiled like any standard
    frame.
    """

    name = "packed-tiled"

    def __init__(
        self,
        array_namespace: ArrayNamespace | None = None,
        name: str | None = None,
        tile_spans: int | None = None,
    ) -> None:
        super().__init__(array_namespace, name or "packed-tiled")
        # Explicit per-instance tile extent (tests, the tuner's own sweep);
        # ``None`` resolves env > profile > prediction > default per render.
        self.tile_spans = tile_spans

    def _forward_chunk(
        self,
        views: list[tuple[ProjectedGaussians, TileAssignment]],
        spans_list: list[RowSpans],
        num_points: int,
        background: np.ndarray,
        collect_stats: bool,
        per_pixel_sort: bool,
    ) -> list[tuple[np.ndarray, np.ndarray | None]]:
        """Route oversized views through the tiled scan, the rest unchanged.

        Both :meth:`forward` (a batch of one) and :meth:`forward_batch`
        (budget-flushed chunks) land here, so one override tiles every
        standard-forward entry point.
        """
        if self.nsx.device != "cpu":
            # No CPU cache to stay resident in — identical to ``packed``.
            return super()._forward_chunk(
                views, spans_list, num_points, background, collect_stats,
                per_pixel_sort,
            )
        budget = tile_span_budget(self.tile_spans)
        results: list[tuple[np.ndarray, np.ndarray | None] | None] = [None] * len(views)
        small: list[int] = []
        for i, (view, spans) in enumerate(zip(views, spans_list)):
            if spans.num_spans > budget:
                results[i] = self._forward_tiled_view(
                    view, spans, num_points, background, collect_stats,
                    per_pixel_sort, budget,
                )
            else:
                small.append(i)
        if small:
            shared = super()._forward_chunk(
                [views[i] for i in small], [spans_list[i] for i in small],
                num_points, background, collect_stats, per_pixel_sort,
            )
            for i, res in zip(small, shared):
                results[i] = res
        return results  # type: ignore[return-value]

    def _forward_tiled_view(
        self,
        view: tuple[ProjectedGaussians, TileAssignment],
        spans: RowSpans,
        num_points: int,
        background: np.ndarray,
        collect_stats: bool,
        per_pixel_sort: bool,
        budget: int,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """One oversized view as a sequence of group-aligned sub-chunk scans.

        The per-pair gather tables are built once for the whole view —
        sub-chunk ``span_pair`` rows index the full tables (group-aligned
        splitting preserves the pair row space), so tiling adds no
        per-chunk gather of the O(pairs) tables, only the per-span work the
        whole-frame scan would do anyway.  Sub-chunks scatter into disjoint
        ``(tile, row)`` groups of one image, and the Val_i winner counts
        accumulate per sub-chunk: group segments never straddle a cut, so
        the union over sub-chunks is exactly the whole-frame result.
        """
        projected, assignment = view
        grid = assignment.grid
        image = _background_frame(grid, background)
        dominated = np.zeros(num_points, dtype=np.int64) if collect_stats else None
        nsx, ws = self.nsx, self._ws
        pairs = _batch_pair_tables([view], [spans])
        for piece in split_spans(spans, budget):
            batch = concat_spans([piece])
            with backend_span("alpha-scan", args={"spans": int(batch.num_spans), "tiled": 1}):
                bt = BatchTables.build(nsx, batch, pairs)
                weights, final, perm = self._scan(bt, batch, per_pixel_sort)
            with backend_span("composite", args={"tiled": 1}):
                pixels = batch_composite(
                    nsx, ws, weights, final, batch_span_colors(nsx, ws, bt),
                    batch.groups, background, perm,
                )
                idx, ok = _group_pixel_index(piece)
                image.reshape(-1, 3)[idx[ok]] = pixels[ok]
            if collect_stats:
                lane_ok = piece.seg.geometry.lane_valid[piece.group_tile]
                winners, has_any = batch_dominated_winners(
                    nsx, ws, weights, batch.groups, lane_ok, perm
                )
                if has_any.any():
                    winner_pairs = batch.span_pair[winners[has_any]]
                    np.add.at(dominated, pairs["pids"][winner_pairs], 1)
        return image, dominated
