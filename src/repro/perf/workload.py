"""Frame workload descriptors: what a frame costs, in pipeline counts.

Both the GPU latency model and the accelerator simulator consume the same
abstract counts, extracted from real renders:

- points through Projection (× number of projection runs — MMFR pays one
  per level),
- per-tile sorting work (``n log n`` compare ops),
- rasterization work in splat×pixel units (intersections × tile pixels),
- pixels blended across quality levels.

Latency claims in the paper hinge on these counts — Fig 4 shows latency
tracks tile–ellipse intersections, not point count — so all performance
numbers in this repo are functions of *measured* counts, never of the method
name.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..foveation.fr_renderer import FRRenderStats
from ..splat.renderer import RenderConfig, RenderResult
from ..splat.sorting import sort_cost_ops


@dataclasses.dataclass(frozen=True)
class FrameWorkload:
    """Abstract cost profile of rendering one frame."""

    num_projected: int  # splats through projection per run
    projection_runs: int  # 1 normally; num_levels for MMFR
    sort_ops: float  # total n·log2(n) compare ops over tiles
    raster_splat_pixels: float  # Σ_tiles intersections × pixels-per-tile
    blend_pixels: int  # FR blending work
    per_pixel_sort: bool = False  # StopThePop pays extra sorting

    @property
    def total_intersections(self) -> float:
        return self.raster_splat_pixels  # raw proxy; see extractors for exact


def workload_from_render(result: RenderResult, config: RenderConfig | None = None) -> FrameWorkload:
    """Extract the workload of a standard (non-foveated) render."""
    config = config or RenderConfig()
    stats = result.stats
    per_tile = stats.intersections_per_tile
    tile_pixels = result.assignment.grid.tile_size**2
    return FrameWorkload(
        num_projected=stats.num_projected,
        projection_runs=1,
        sort_ops=sort_cost_ops(per_tile, per_pixel=config.per_pixel_sort),
        raster_splat_pixels=float(per_tile.sum()) * tile_pixels,
        blend_pixels=0,
        per_pixel_sort=config.per_pixel_sort,
    )


def workload_from_fr(stats: FRRenderStats, tile_size: int = 16) -> FrameWorkload:
    """Extract the workload of a foveated render (ours, SMFR or MMFR)."""
    tile_pixels = tile_size**2
    return FrameWorkload(
        num_projected=stats.num_projected,
        projection_runs=stats.projection_runs,
        sort_ops=sort_cost_ops(stats.sort_intersections_per_tile),
        raster_splat_pixels=float(stats.raster_intersections_per_tile.sum()) * tile_pixels,
        blend_pixels=stats.blend_pixels,
        per_pixel_sort=False,
    )


def mean_workload(workloads: list[FrameWorkload]) -> FrameWorkload:
    """Average several frames' workloads (for trajectory-level FPS)."""
    if not workloads:
        raise ValueError("need at least one workload")
    return FrameWorkload(
        num_projected=int(np.mean([w.num_projected for w in workloads])),
        projection_runs=workloads[0].projection_runs,
        sort_ops=float(np.mean([w.sort_ops for w in workloads])),
        raster_splat_pixels=float(np.mean([w.raster_splat_pixels for w in workloads])),
        blend_pixels=int(np.mean([w.blend_pixels for w in workloads])),
        per_pixel_sort=workloads[0].per_pixel_sort,
    )
