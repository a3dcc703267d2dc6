"""Bridge from the render engine's span lists to the accelerator model.

:func:`repro.accel.pipeline_sim.simulate_pipeline` is driven by per-tile
workload arrays.  Historically these were the tiling stage's
*intersection* counts — a synthetic aggregate that charges every
tile–splat pair the full tile area.  The packed render engine knows
better: its :class:`~repro.splat.backends.segments.RowSpans` carry exactly
the per-row fragments the paper's Sorting/Rasterization stages stream.
The simulator reads two per-tile arrays of them, which
:class:`~repro.splat.backends.segments.TileWork` holds: the spans of each
tile and the sorting work of its ``(tile, row)`` groups.  A foveated frame
surfaces one per quality level (``level_spans``) and keeps no span list.

In ``units="spans"`` the rasterization workload is the raw span-row count
per tile (each span is one ``tile_size``-wide lane vector of work);
``units="intersections"`` divides by the tile's row count, yielding
tile-equivalent units directly comparable to — and on realistic
footprints smaller than — the synthetic ``intersections_per_tile``.
"""

from __future__ import annotations

import numpy as np

from ..splat.backends.segments import RowSpans, TileWork


def _in_units(work: TileWork, units: str) -> np.ndarray:
    counts = work.spans.astype(np.float64)
    if units == "spans":
        return counts
    if units == "intersections":
        return counts / float(work.tile_size)
    raise ValueError(f"unknown units {units!r}; expected 'spans' or 'intersections'")


def spans_to_tile_counts(
    spans: RowSpans, units: str = "intersections"
) -> np.ndarray:
    """Per-tile rasterization workload from real row-span fragments.

    Returns a ``(num_tiles,)`` float array aligned with the span list's
    tile grid (zero for tiles no span reaches), suitable for
    :func:`repro.accel.pipeline_sim.simulate_pipeline`.

    ``units="spans"`` counts span rows per tile; ``units="intersections"``
    (default) rescales by the rows-per-tile so the numbers live in the
    same tile-equivalent units as ``TileAssignment.intersections_per_tile``
    — a splat whose ellipse reaches only 3 of a 16-row tile then costs
    3/16 of a synthetic intersection, which is exactly the work-
    proportionality the paper's rate-matched pipeline exploits.
    """
    return _in_units(TileWork.of(spans), units)


def spans_to_sort_work(spans: RowSpans) -> np.ndarray:
    """Per-tile sorting workload from the span *group* lengths.

    The incremental pipeline's hierarchical merge sorter emits per-row
    fragment streams: each ``(tile, row)`` group of ``n`` spans costs
    ``n · ceil(log2 max(n, 2))`` element-steps, the same units as the
    synthetic per-tile ``n · ceil(log2 n)`` the simulator's sorting stage
    otherwise charges on intersection counts.  Feed the result to
    :func:`repro.accel.pipeline_sim.simulate_pipeline` via
    ``sort_work_per_tile=`` to price sorting from the fragment lists a real
    frame streams.
    """
    return TileWork.of(spans).sort_work


def _frame_work(level_spans: dict[int, TileWork]) -> TileWork:
    """The level-partitioned work of a foveated frame, summed over levels."""
    if not level_spans:
        raise ValueError(
            "empty level_spans; the selected backend does not surface "
            "foveated span work (the reference oracle reports None)"
        )
    levels = list(level_spans.values())
    return TileWork(
        sum(w.spans for w in levels), sum(w.sort_work for w in levels), levels[0].tile_size
    )


def foveated_tile_counts(
    level_spans: dict[int, TileWork], units: str = "intersections"
) -> np.ndarray:
    """Per-tile rasterization workload of a real *foveated* frame.

    ``level_spans`` is the per-level work dict a span-based backend
    surfaces on :class:`repro.foveation.FRRenderResult` — level ``t``
    holds exactly the fragments the primary pass rasterized in level-``t``
    tiles after quality-bound filtering.  Levels partition the tile grid,
    so summing their per-tile counts yields the frame's true
    post-filtering workload (blend-band second passes are charged via the
    frame's ``raster_intersections_per_tile`` statistics instead).
    """
    return _in_units(_frame_work(level_spans), units)


def foveated_sort_work(level_spans: dict[int, TileWork]) -> np.ndarray:
    """Per-tile sorting workload of a real foveated frame (see
    :func:`spans_to_sort_work`), summed over the level-partitioned tiles."""
    return _frame_work(level_spans).sort_work
