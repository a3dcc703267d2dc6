"""The rasterization backend protocol.

A backend implements the pixel-producing operations of the render engine —
batched standard forward, analytic backward, batched foveated frames, and
the multi-model (MMFR) frame — over projected splat sets and their
depth-sorted tile assignments.  The batch entry points are the only way
in: a lone frame is a batch of one (:func:`repro.splat.rasterize`,
:func:`repro.foveation.render_foveated`), so a frame's pixels never depend
on how it was batched.  Everything around those operations (stage prefix,
stats assembly, clipping standard frames, region maps) lives in the
callers, so backends stay interchangeable: ``reference`` is the per-tile
loop kept for regression, ``packed`` the vectorized segment engine.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

import numpy as np

if TYPE_CHECKING:
    from ..projection import ProjectedGaussians
    from ..rasterizer import RasterGradients
    from ..tiling import TileAssignment
    from .segments import TileWork


@dataclasses.dataclass
class FoveatedFrame:
    """Output of one foveated / multi-model frame, its image clipped to [0, 1].

    ``level_spans`` surfaces the per-tile work (:class:`TileWork`) of the
    *filtered* spans the primary pass actually rasterized (level ``t`` →
    spans in level-``t`` tiles whose pair passes the quality bound) so the
    accelerator model can be driven from the real foveated workload.
    Span-based engines fill it; backends without spans leave ``None``.
    """

    image: np.ndarray  # (H, W, 3), clipped to [0, 1]; fresh, owned by the frame
    sort_intersections_per_tile: np.ndarray  # (T,) int64
    raster_intersections_per_tile: np.ndarray  # (T,) float64
    blend_pixels: int
    level_spans: "dict[int, TileWork] | None" = None


@runtime_checkable
class RasterBackend(Protocol):
    """Interchangeable rasterization engine: exactly four entry points."""

    name: str

    def forward_batch(
        self,
        views: list[tuple["ProjectedGaussians", "TileAssignment"]],
        num_points: int,
        background: np.ndarray,
        collect_stats: bool,
        per_pixel_sort: bool,
    ) -> list[tuple[np.ndarray, np.ndarray | None]]:
        """Rasterize several views of one model, one result tuple per view.

        Each result is the (unclipped) ``(H, W, 3)`` image and, when
        ``collect_stats``, the per-point dominated-pixel counts ``(N,)``.
        Views share a tile size but may differ in frame dimensions.  The
        ``packed`` engine streams the views' span lists through band-piece
        scans; ``reference`` loops over its per-view body.
        """
        ...

    def backward(
        self,
        projected: "ProjectedGaussians",
        assignment: "TileAssignment",
        num_points: int,
        grad_image: np.ndarray,
        background: np.ndarray,
    ) -> "RasterGradients":
        """Propagate ``dL/dimage`` to per-point colour/opacity/log-scale."""
        ...

    def foveated_frame_batch(
        self,
        views: list[tuple["ProjectedGaussians", "TileAssignment"]],
        maps_list: list[Any],
        bounds: np.ndarray,
        level_opacity: dict[int, np.ndarray],
        level_delta: dict[int, np.ndarray],
        background: np.ndarray,
    ) -> list["FoveatedFrame"]:
        """Render several foveated frames of one model, one result per frame.

        ``views`` holds each frame's shared view prefix (gaze samples of one
        pose typically repeat the same prepared view object; a
        :class:`~repro.splat.renderer.PreparedView` may carry a
        ``tile_store`` the ``packed`` engine keeps its tile renders in
        across calls), ``maps_list``
        the per-frame :class:`~repro.foveation.regions.RegionMaps`; the
        hierarchy tables (``bounds`` / ``level_opacity`` / ``level_delta``)
        are per-model and shared by every frame.  The ``packed`` engine
        concatenates each frame's level-filtered span subsets — primary
        composite plus the blend-band second-level pass — as extra batch
        segments of its band-piece scans; ``reference`` loops over its
        per-frame body.  ``bounds`` are the per-point quality bounds,
        ``level_opacity`` / ``level_delta`` the per-level multi-versioned
        parameter tables.
        """
        ...

    def multi_model_frame(
        self,
        views: list[tuple["ProjectedGaussians", "TileAssignment"]],
        maps: Any,
        background: np.ndarray,
    ) -> FoveatedFrame:
        """Render one MMFR frame from independently projected level models."""
        ...
