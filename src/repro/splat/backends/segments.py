"""Packed tile–splat intersection lists.

The packed backend operates on one flattened, depth-sorted list of
tile–splat intersections instead of a per-tile Python loop, at two
granularities:

- **Pair segments** (:class:`PackedSegments`): the raw ``(tile, splat)``
  intersection pairs, contiguous per tile — the unit of the Sorting stage
  and of per-tile statistics.
- **Row spans** (:class:`RowSpans`): each pair expanded to the tile pixel
  *rows* on which its ellipse reaches one of the tile's on-image lane
  centres (the *strip bound*: the y-extent of the ellipse clipped to the
  tile's x-strip, one closed-form interval per pair), re-sorted to
  ``(tile, row, depth)`` order.  A span owns one ``tile_size``-wide lane
  vector, so per-pixel fragment lists are contiguous *groups* of spans and
  front-to-back compositing becomes a segmented scan along axis 0 —
  vectorized over the whole frame, with work proportional to the
  rasterized area rather than ``intersections × tile area``.

Every operation below is expressed over flat, segment-indexed arrays, so
several frames' lists concatenate into one: :func:`concat_spans` builds a
:class:`SpanBatch` whose segmented scans cover a whole multi-view batch
(the batched ``forward_batch`` path of the packed backend).
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from ..projection import ALPHA_EPS, ProjectedGaussians
from ..tiling import TileAssignment, TileGrid

# A splat cannot clear the ALPHA_EPS intersect test beyond this Mahalanobis
# quadratic value even at opacity 1 (``exp(-q/2) < 1/255``); the margin keeps
# the exact threshold decision on the computed alpha.
QUAD_CUTOFF = -2.0 * float(np.log(ALPHA_EPS)) + 1e-6

# Guard of the strip bound (:func:`build_row_spans`), in pixels: the lane
# strip and the row interval are both widened by it on each side, so the
# exact intersect-test decision always happens on a computed alpha rather
# than on the closed-form bound.
STRIP_GUARD = 0.5


@dataclasses.dataclass(frozen=True)
class TileLaneGeometry:
    """Per-tile pixel-lane layout of a grid.

    A *lane* is one of the ``tile_size`` x-columns of a tile; edge tiles
    mark lanes beyond the image width invalid.
    """

    grid: TileGrid
    origin_x: np.ndarray  # (T,) tile pixel origin, float
    origin_y: np.ndarray  # (T,)
    lane_x: np.ndarray  # (ts,) lane centre offsets within a tile (l + 0.5)
    lane_valid: np.ndarray  # (T, ts) lane inside the image width


@functools.lru_cache(maxsize=16)
def tile_lane_geometry(grid: TileGrid) -> TileLaneGeometry:
    ts = grid.tile_size
    ids = np.arange(grid.num_tiles, dtype=np.int64)
    origin_x = (ids % grid.tiles_x) * ts
    origin_y = (ids // grid.tiles_x) * ts
    lanes = np.arange(ts, dtype=np.int64)
    return TileLaneGeometry(
        grid=grid,
        origin_x=origin_x.astype(np.float64),
        origin_y=origin_y.astype(np.float64),
        lane_x=lanes + 0.5,
        lane_valid=origin_x[:, None] + lanes[None, :] < grid.width,
    )


@dataclasses.dataclass(frozen=True)
class SegmentIndex:
    """CSR-style index of contiguous segments along axis 0 of a flat array."""

    starts: np.ndarray  # (S,) first row of each segment
    lens: np.ndarray  # (S,)
    of_item: np.ndarray  # (R,) segment id of every row

    @property
    def num_segments(self) -> int:
        return int(self.starts.shape[0])

    @property
    def last(self) -> np.ndarray:
        """Row index of the final item of every segment, ``(S,)``."""
        return self.starts + self.lens - 1

    @staticmethod
    def from_lengths(lens: np.ndarray) -> "SegmentIndex":
        lens = np.asarray(lens, dtype=np.int64)
        starts = np.zeros(lens.shape[0], dtype=np.int64)
        if lens.size:
            starts[1:] = np.cumsum(lens[:-1])
        return SegmentIndex(
            starts=starts,
            lens=lens,
            of_item=np.repeat(np.arange(lens.shape[0], dtype=np.int64), lens),
        )


@dataclasses.dataclass
class PackedSegments:
    """Flattened intersection pairs, segmented by (non-empty) tile."""

    geometry: TileLaneGeometry
    pair_tiles: np.ndarray  # (K,)
    pair_splats: np.ndarray  # (K,)
    index: SegmentIndex  # segments = non-empty tiles
    seg_tiles: np.ndarray  # (S,) tile id of each segment
    tile_last_pair: np.ndarray  # (T,) last pair row of each tile (-1 if empty)

    @property
    def grid(self) -> TileGrid:
        return self.geometry.grid

    @property
    def num_pairs(self) -> int:
        return int(self.pair_tiles.shape[0])


def build_segments(assignment: TileAssignment) -> PackedSegments:
    """Pack a (depth-sorted) tile assignment into contiguous segments."""
    counts = np.diff(assignment.tile_offsets)
    nonempty = np.flatnonzero(counts > 0)
    tile_last_pair = assignment.tile_offsets[1:].astype(np.int64) - 1
    tile_last_pair[counts == 0] = -1
    return PackedSegments(
        geometry=tile_lane_geometry(assignment.grid),
        pair_tiles=assignment.pair_tiles,
        pair_splats=assignment.pair_splats,
        index=SegmentIndex(
            starts=assignment.tile_offsets[nonempty].astype(np.int64),
            lens=counts[nonempty].astype(np.int64),
            of_item=np.repeat(
                np.arange(nonempty.size, dtype=np.int64), counts[nonempty]
            ),
        ),
        seg_tiles=nonempty.astype(np.int64),
        tile_last_pair=tile_last_pair,
    )


@dataclasses.dataclass
class RowSpans:
    """Pairs expanded to reachable pixel rows, in ``(tile, row, depth)`` order.

    ``span_pair`` indexes back into the pair arrays; a *group* is the
    contiguous run of spans covering one ``(tile, row)`` — i.e. the packed
    per-pixel fragment lists of the row's ``tile_size`` pixels.  Rows on
    which a splat's ellipse misses every on-image lane centre of the tile
    (its alpha is below the intersect test at every pixel the row writes)
    carry no span at all — see the strip bound of :func:`build_row_spans`.
    This is where the packed engine's work savings come from.
    """

    seg: PackedSegments
    span_pair: np.ndarray  # (R,) pair row of each span
    span_tile: np.ndarray  # (R,)
    span_y: np.ndarray  # (R,) global pixel row
    groups: SegmentIndex  # segments = (tile, row) groups
    group_tile: np.ndarray  # (Q,)
    group_y: np.ndarray  # (Q,) global pixel row
    group_has_tile_last: np.ndarray  # (Q,) last span is the tile's last pair

    @property
    def num_spans(self) -> int:
        return int(self.span_pair.shape[0])

    @property
    def num_groups(self) -> int:
        return self.groups.num_segments

    def subset(self, tile_mask: np.ndarray) -> "RowSpans":
        """Restrict to the spans and groups of selected tiles."""
        keep_spans = tile_mask[self.span_tile]
        keep_groups = tile_mask[self.group_tile]
        return RowSpans(
            seg=self.seg,
            span_pair=self.span_pair[keep_spans],
            span_tile=self.span_tile[keep_spans],
            span_y=self.span_y[keep_spans],
            groups=SegmentIndex.from_lengths(self.groups.lens[keep_groups]),
            group_tile=self.group_tile[keep_groups],
            group_y=self.group_y[keep_groups],
            group_has_tile_last=self.group_has_tile_last[keep_groups],
        )

    def subset_spans(self, span_mask: np.ndarray) -> "RowSpans":
        """Restrict to an arbitrary span subset, dropping emptied groups.

        Unlike :meth:`subset` (whole tiles), the mask may cut *within* a
        ``(tile, row)`` group — the foveated filtering stage prunes spans
        whose pair fails a quality bound.  Group order and per-group depth
        order are preserved; ``group_has_tile_last`` is recomputed from each
        group's last surviving span.
        """
        span_mask = np.asarray(span_mask, dtype=bool)
        if span_mask.shape != (self.num_spans,):
            raise ValueError(
                f"span_mask must be ({self.num_spans},), got {span_mask.shape}"
            )
        if self.num_spans == 0:
            return self
        lens = np.add.reduceat(
            span_mask.astype(np.int64), self.groups.starts
        )
        keep_groups = lens > 0
        # Flat position of each group's last surviving span (groups are
        # non-empty, so the reduceat maximum is well-defined where kept).
        pos = np.where(span_mask, np.arange(self.num_spans, dtype=np.int64), -1)
        last_kept = np.maximum.reduceat(pos, self.groups.starts)[keep_groups]
        group_tile = self.group_tile[keep_groups]
        return RowSpans(
            seg=self.seg,
            span_pair=self.span_pair[span_mask],
            span_tile=self.span_tile[span_mask],
            span_y=self.span_y[span_mask],
            groups=SegmentIndex.from_lengths(lens[keep_groups]),
            group_tile=group_tile,
            group_y=self.group_y[keep_groups],
            group_has_tile_last=(
                self.span_pair[last_kept] == self.seg.tile_last_pair[group_tile]
            ),
        )


@dataclasses.dataclass
class SpanBatch:
    """Several views' :class:`RowSpans` concatenated into one batch scan.

    Pair rows of view ``v`` are shifted by ``pair_offsets[v]`` so the batch
    owns one flat pair-index space; the per-view structures stay available
    for the scatter back into each view's frame.  Group segments remain
    non-empty and contiguous (empty views simply contribute no rows), so the
    segmented-scan machinery above applies to the whole batch unchanged —
    one alpha-eval / compositing / stats pass covers every frame.

    A *band* is every group of one tile row of one view.  The scans restart
    at every ``band_offsets`` entry, so a band's result never depends on
    what else shares the batch: any cut of a batch on band boundaries scans
    bitwise like the uncut batch.
    """

    views: list[RowSpans]
    groups: SegmentIndex  # concatenated (view, tile, row) groups
    group_has_tile_last: np.ndarray  # (Q,)
    span_pair: np.ndarray  # (R,) rows into the batch-wide pair tables
    span_y: np.ndarray  # (R,) pixel row within the owning view
    span_offsets: np.ndarray  # (V + 1,) span range of each view
    group_offsets: np.ndarray  # (V + 1,) group range of each view
    pair_offsets: np.ndarray  # (V + 1,) pair range of each view
    band_offsets: np.ndarray  # first group of every band, every view start, Q

    @property
    def num_spans(self) -> int:
        return int(self.span_pair.shape[0])

    @property
    def num_groups(self) -> int:
        return self.groups.num_segments

    def view_groups(self, v: int) -> slice:
        """Group range of view ``v`` in the concatenated arrays."""
        return slice(int(self.group_offsets[v]), int(self.group_offsets[v + 1]))


def join_row_spans(seg: PackedSegments, parts: list[RowSpans]) -> RowSpans:
    """One view's row spans from consecutive pieces of it (tile-row order)."""
    if len(parts) == 1:
        return parts[0]

    def cat(name: str, dtype=np.int64) -> np.ndarray:
        return np.concatenate([getattr(p, name) for p in parts] or [np.empty(0, dtype)])

    return RowSpans(
        seg=seg,
        span_pair=cat("span_pair"),
        span_tile=cat("span_tile"),
        span_y=cat("span_y"),
        groups=SegmentIndex.from_lengths(
            np.concatenate([p.groups.lens for p in parts] or [np.empty(0, np.int64)])
        ),
        group_tile=cat("group_tile"),
        group_y=cat("group_y"),
        group_has_tile_last=cat("group_has_tile_last", bool),
    )


def concat_spans(spans_list: list[RowSpans]) -> SpanBatch:
    """Concatenate several views' row spans into one segmented batch.

    Views may have different grids (mixed frame sizes) but must share a tile
    size, so every span owns the same ``tile_size``-wide lane vector and the
    whole batch composites in a single ``(tile_size, R)`` scan.
    """
    if not spans_list:
        raise ValueError("need at least one view to batch")
    sizes = {s.seg.grid.tile_size for s in spans_list}
    if len(sizes) > 1:
        raise ValueError(f"views must share one tile size, got {sorted(sizes)}")

    pair_offsets = np.zeros(len(spans_list) + 1, dtype=np.int64)
    span_offsets = np.zeros(len(spans_list) + 1, dtype=np.int64)
    group_offsets = np.zeros(len(spans_list) + 1, dtype=np.int64)
    np.cumsum([s.seg.num_pairs for s in spans_list], out=pair_offsets[1:])
    np.cumsum([s.num_spans for s in spans_list], out=span_offsets[1:])
    np.cumsum([s.num_groups for s in spans_list], out=group_offsets[1:])
    # A band starts wherever the tile row changes within a view.
    band_starts = [
        off + 1 + np.flatnonzero(np.diff(s.group_tile // s.seg.grid.tiles_x))
        for s, off in zip(spans_list, group_offsets[:-1])
    ]
    band_offsets = np.unique(np.concatenate([group_offsets, *band_starts]))

    return SpanBatch(
        views=list(spans_list),
        groups=SegmentIndex.from_lengths(
            np.concatenate([s.groups.lens for s in spans_list])
        ),
        group_has_tile_last=np.concatenate(
            [s.group_has_tile_last for s in spans_list]
        ),
        span_pair=np.concatenate(
            [s.span_pair + off for s, off in zip(spans_list, pair_offsets[:-1])]
        ),
        span_y=np.concatenate([s.span_y for s in spans_list]),
        span_offsets=span_offsets,
        group_offsets=group_offsets,
        pair_offsets=pair_offsets,
        band_offsets=band_offsets,
    )


def _strip_row_bounds(
    projected: ProjectedGaussians, seg: PackedSegments
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair ``[dy_lo, dy_hi]``: the y-projection of ellipse ∩ lane strip.

    Offsets are relative to the splat mean.  The ellipse is
    ``{q ≤ QUAD_CUTOFF}`` of the pair's splat; the strip is the x-range of
    its tile's on-image lane centres, widened by :data:`STRIP_GUARD`.
    Pairs whose ellipse misses the strip get ``dy_lo > dy_hi``.
    """
    grid = seg.grid
    sel = seg.pair_splats
    mx = projected.means2d[sel, 0]
    sxx, sxy, syy = (projected.cov2d[sel, i] for i in range(3))
    ca, cb, cc = (projected.conics[sel, i] for i in range(3))
    x0 = seg.geometry.origin_x[seg.pair_tiles]
    x1 = np.minimum(x0 + grid.tile_size, grid.width)
    u_lo = x0 + 0.5 - STRIP_GUARD - mx
    u_hi = x1 - 0.5 + STRIP_GUARD - mx

    # The ellipse's topmost point is ``(Σxy, Σyy)·sqrt(C/Σyy)`` and its
    # bottommost the mirror image.  An extreme point inside the strip sets
    # the bound; otherwise the bound sits on the nearer strip edge ``u``
    # (the slice height is concave in x), as a root of
    # ``c·dy² + 2b·u·dy + (a·u² − C) = 0``.
    reach_y = np.sqrt(QUAD_CUTOFF * syy)
    peak_x = sxy * np.sqrt(QUAD_CUTOFF / syy)

    def edge_roots(u: np.ndarray, sign: float) -> np.ndarray:
        disc = (cb * u) ** 2 - cc * (ca * u * u - QUAD_CUTOFF)
        return (-cb * u + sign * np.sqrt(np.maximum(disc, 0.0))) / cc

    top_in = (u_lo <= peak_x) & (peak_x <= u_hi)
    bottom_in = (u_lo <= -peak_x) & (-peak_x <= u_hi)
    dy_hi = np.where(top_in, reach_y, edge_roots(np.clip(peak_x, u_lo, u_hi), 1.0))
    dy_lo = np.where(
        bottom_in, -reach_y, edge_roots(np.clip(-peak_x, u_lo, u_hi), -1.0)
    )
    reach_x = np.sqrt(QUAD_CUTOFF * sxx)
    misses = (u_lo > reach_x) | (u_hi < -reach_x)
    dy_lo[misses] = np.inf
    dy_hi[misses] = -np.inf
    return dy_lo, dy_hi


def build_row_spans(
    projected: ProjectedGaussians, seg: PackedSegments, full_rows: bool = False
) -> RowSpans:
    """Expand intersection pairs into per-row spans, sorted per pixel row.

    **Strip bound.**  A pair's rows are the ``y`` whose centre ``y + 0.5``
    lies in the y-projection of ``{q ≤ QUAD_CUTOFF} ∩ strip``, where the
    strip is the x-range of the tile's on-image lane centres
    ``[x0 + 0.5, min(x0 + ts, W) − 0.5]``.  Beyond ``QUAD_CUTOFF`` no
    splat clears the alpha intersect test even at opacity 1, and every
    opacity the engine scans (model and level opacities are sigmoids) is
    below 1, so a dropped row has zero alpha on every lane it writes.  The
    ellipse ∩ strip is convex, so its y-projection is one closed-form
    interval per pair (:func:`_strip_row_bounds`, O(pairs)); pairs whose
    x-extent misses the strip get no rows.  Strip and interval are both
    widened by :data:`STRIP_GUARD` px, so the exact threshold decision
    always happens on a computed alpha.  (The dilated covariance ``Σ`` is
    the inverse of the rasterized conic.)

    ``full_rows=True`` keeps every tile row for every pair (only clipped to
    the image).  The per-pixel-sorted path needs this: its early-termination
    gate sits at the per-pixel *deepest* tile splat, which the strip bound
    could otherwise prune away.
    """
    return expand_row_spans(seg, *pair_row_ranges(projected, seg, full_rows))


def pair_row_ranges(
    projected: ProjectedGaussians, seg: PackedSegments, full_rows: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """First row and row count of every pair, ``(y_lo, counts)``, both ``(K,)``.

    The O(pairs) half of :func:`build_row_spans`: how many spans each pair
    expands to, before any span exists.
    """
    grid = seg.grid
    tile_y0 = seg.geometry.origin_y[seg.pair_tiles].astype(np.int64)
    tile_y1 = np.minimum(tile_y0 + grid.tile_size, grid.height) - 1
    if full_rows:
        y_lo, y_hi = tile_y0, tile_y1
    else:
        my = projected.means2d[seg.pair_splats, 1]
        dy_lo, dy_hi = _strip_row_bounds(projected, seg)
        lo = np.ceil(my + dy_lo - STRIP_GUARD - 0.5)
        hi = np.floor(my + dy_hi + STRIP_GUARD - 0.5)
        # Clip in float (missed pairs carry ±inf bounds) to the tile's rows,
        # or one past them, which leaves an empty range.
        y_lo = np.clip(lo, tile_y0, tile_y1 + 1).astype(np.int64)
        y_hi = np.clip(hi, tile_y0 - 1, tile_y1).astype(np.int64)
    return y_lo, np.maximum(y_hi - y_lo + 1, 0)


def expand_row_spans(
    seg: PackedSegments,
    y_lo: np.ndarray,
    counts: np.ndarray,
    p0: int = 0,
    p1: int | None = None,
) -> RowSpans:
    """Expand pairs ``[p0, p1)`` into spans sorted per ``(tile, row)``.

    Pairs are in tile order, so the pairs of whole tile rows expand to
    exactly those rows' groups of the full build, bit for bit (the sort is
    stable); ``span_pair`` keeps indexing the full pair tables.
    """
    p1 = seg.num_pairs if p1 is None else p1
    ts = seg.grid.tile_size
    counts = counts[p0:p1]
    total = int(counts.sum())
    span_pair = np.repeat(np.arange(p0, p1, dtype=np.int64), counts)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    ramp = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], counts)
    span_y = np.repeat(y_lo[p0:p1], counts) + ramp
    span_tile = seg.pair_tiles[span_pair]

    # (tile, row) key — exact integers, so the stable sort keeps depth order
    # within every pixel row.
    key = span_tile * ts + (span_y - seg.geometry.origin_y[span_tile].astype(np.int64))
    order = np.argsort(key, kind="stable")
    span_pair = span_pair[order]
    span_y = span_y[order]
    span_tile = span_tile[order]
    key = key[order]

    if total:
        starts = np.concatenate([[0], np.flatnonzero(np.diff(key)) + 1]).astype(np.int64)
        lens = np.diff(np.concatenate([starts, [total]])).astype(np.int64)
    else:
        starts = np.empty(0, dtype=np.int64)
        lens = np.empty(0, dtype=np.int64)
    groups = SegmentIndex(
        starts=starts,
        lens=lens,
        of_item=np.repeat(np.arange(starts.size, dtype=np.int64), lens),
    )
    group_tile = span_tile[starts] if total else np.empty(0, dtype=np.int64)
    group_y = span_y[starts] if total else np.empty(0, dtype=np.int64)
    has_last = (
        span_pair[groups.last] == seg.tile_last_pair[group_tile]
        if total
        else np.empty(0, dtype=bool)
    )
    return RowSpans(
        seg=seg,
        span_pair=span_pair,
        span_tile=span_tile,
        span_y=span_y,
        groups=groups,
        group_tile=group_tile,
        group_y=group_y,
        group_has_tile_last=has_last,
    )
