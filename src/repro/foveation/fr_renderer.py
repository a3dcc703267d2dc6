"""The foveated rendering pipeline (Fig 7, panel E).

Augments the standard PBNR pipeline with two stages:

- **Filtering** (after projection): a tile at quality level ``t`` only
  rasterizes points whose quality bound ``m ≥ t``.
- **Blending** (after rasterization): pixels in the transition band between
  two regions are rendered at *both* adjacent levels and interpolated.
  Only the band pixels are blended (~25% of pixels in the paper), and the
  workload statistics charge the second level for those pixels alone.
  The ``packed`` engine renders a band tile's second level over the whole
  tile (a render the gaze samples of one pose share) and blends its band
  pixels; the ``reference`` oracle composites the second level on the band
  pixels only.

Thanks to subsetting, Projection / Tiling / Sorting run **once** for the
whole frame (the level-t point set is a subset of the level-1 set, so the
sorted level-1 tile lists serve every level).  The multi-model baseline
(MMFR) has no such sharing and re-runs projection per level —
:func:`render_multi_model` charges that cost explicitly.

All entry points are thin orchestrators: the pixel work is delegated to the
rasterization backend selected by ``config.backend`` (see
:mod:`repro.splat.backends`), which reuses the frame's packed intersection
segments for level filtering and band blending instead of a per-tile loop.
Multi-frame foveated consumers (gaze trajectories, the harness, FPS
benchmarks) render through :func:`render_foveated_batch`, which shares each
pose's view-preparation prefix across its gaze samples and hands whole
batches of frames to the backend's ``foveated_frame_batch``; a lone
:func:`render_foveated` frame is a batch of one through the same call.
The ``packed`` engine's scans are local to each pixel row of a tile, so a
tile's pixels at level ``t`` depend only on the pose, the tile and ``t``: the gaze samples
of one pose in one call share each (tile, level) render, and the gaze only
picks each tile's levels and the band pixels' blend weights.  A pose
prepared through a :class:`~repro.splat.ViewCache` keeps those renders
(its entry's tile store), so a later call at that pose renders only the
pairs no earlier call rendered.

Foveated and multi-model frames come back from the backend clipped to
[0, 1], so nothing here clips.  The ``packed`` engine clips a view's tile
renders once for all of its gaze samples and each frame's blended band
pixels, not each frame's whole image; a frame is bitwise its unclipped
pixels clipped.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from ..splat.backends import TileStore, get_backend
from ..splat.backends.segments import TileWork
from ..splat.cachekey import ContentMemo, frozen
from ..splat.camera import Camera
from ..splat.gaussians import GaussianModel
from ..splat.renderer import PreparedView, RenderConfig, ViewCache, prepare_view
from .hierarchy import FoveatedModel
from .regions import RegionLayout, RegionMaps, compute_region_maps


@dataclasses.dataclass
class FRRenderStats:
    """Workload statistics of one foveated frame (drive perf/accel models)."""

    sort_intersections_per_tile: np.ndarray  # (T,) splats sorted per tile
    raster_intersections_per_tile: np.ndarray  # (T,) effective raster work
    tile_levels: np.ndarray  # (T,)
    blend_pixels: int  # pixels rendered twice
    num_projected: int  # splats through Projection+Filtering
    projection_runs: int  # 1 with subsetting; num_levels for MMFR
    num_points: int

    @property
    def total_raster_intersections(self) -> int:
        return int(self.raster_intersections_per_tile.sum())

    @property
    def total_sort_intersections(self) -> int:
        return int(self.sort_intersections_per_tile.sum())


@dataclasses.dataclass
class FRRenderResult:
    """One foveated frame: clipped image, workload stats, region maps.

    ``level_spans`` surfaces, per level, the spans and sort work per tile
    the backend actually rasterized in that level's tiles (span-based
    engines only; ``None`` on the ``reference`` oracle) — the real
    foveated workload :func:`repro.accel.foveated_tile_counts` consumes.
    """

    image: np.ndarray  # (H, W, 3)
    stats: FRRenderStats
    maps: RegionMaps
    level_spans: dict[int, TileWork] | None = None


# The per-level tables depend on no pose or gaze: one build per version of
# the multi-versioned parameters serves every frame.
_LEVEL_TABLES = ContentMemo()


def _level_tables(
    fmodel: FoveatedModel,
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """The multi-versioned per-level parameter tables every frame shares.

    Memoized on the exact bytes of the tables' inputs and the level count;
    the arrays are read-only.
    """
    levels = range(1, fmodel.num_levels + 1)

    def build(*_snapshots):
        return (
            {t: frozen(fmodel.level_opacities(t)) for t in levels},
            {t: frozen(fmodel.level_color_delta(t)) for t in levels},
        )

    opacity, delta = _LEVEL_TABLES.get(
        (fmodel.mv_opacity_logits, fmodel.mv_sh_dc, fmodel.base.sh),
        build,
        tag=fmodel.num_levels,
    )
    return dict(opacity), dict(delta)


def _frame_result(
    fmodel: FoveatedModel, prepared: PreparedView, maps: RegionMaps, frame
) -> FRRenderResult:
    """Assemble the public result from one backend frame (its image comes
    clipped to [0, 1])."""
    stats = FRRenderStats(
        sort_intersections_per_tile=frame.sort_intersections_per_tile,
        raster_intersections_per_tile=frame.raster_intersections_per_tile,
        tile_levels=maps.tile_level,
        blend_pixels=frame.blend_pixels,
        num_projected=prepared.projected.num_visible,
        projection_runs=1,
        num_points=fmodel.num_points,
    )
    return FRRenderResult(
        image=frame.image,
        stats=stats,
        maps=maps,
        level_spans=frame.level_spans,
    )


def render_foveated(
    fmodel: FoveatedModel,
    camera: Camera,
    gaze: tuple[float, float] | None = None,
    config: RenderConfig | None = None,
    prepared: PreparedView | None = None,
) -> FRRenderResult:
    """Render one foveated frame from a hierarchical subset model.

    ``prepared`` reuses a cached view prefix for ``fmodel.base`` (e.g. a
    :class:`repro.splat.ViewCache` entry, whose stored tile renders the
    frame then reuses) instead of re-projecting.
    """
    config = config or RenderConfig()
    background = np.asarray(config.background, dtype=np.float64)

    # Projection + tiling + sorting run once on the full (L1) point set.
    if prepared is None:
        prepared = prepare_view(fmodel.base, camera, config)
    maps = compute_region_maps(camera, prepared.assignment.grid, fmodel.layout, gaze)
    level_opacity, level_delta = _level_tables(fmodel)

    # A lone frame is a batch of one, so it runs the code every batch runs.
    [frame] = get_backend(config.backend).foveated_frame_batch(
        [prepared], [maps], fmodel.quality_bounds,
        level_opacity, level_delta, background,
    )
    return _frame_result(fmodel, prepared, maps, frame)


def _is_single_gaze(gazes) -> bool:
    """A bare ``(x, y)`` point rather than a sequence of per-frame gazes.

    Any 2-element run of scalars counts — tuple, list or 1-D array — so a
    gaze that :func:`render_foveated` accepts is never misread as two
    frames' worth of coordinates.  A 1-D array of any other length is an
    error rather than silently becoming a gaze point.
    """
    if isinstance(gazes, np.ndarray):
        if gazes.ndim != 1:
            return False
        if gazes.shape[0] != 2:
            raise ValueError(
                f"a gaze point needs 2 coordinates, got {gazes.shape[0]}"
            )
        return True
    if isinstance(gazes, (tuple, list)) and len(gazes) == 2:
        return all(isinstance(v, (int, float, np.integer, np.floating)) for v in gazes)
    return False


def _normalize_frames(cameras, gazes) -> tuple[list[Camera], list]:
    """Broadcast cameras/gazes into aligned per-frame lists.

    A single camera fans out across a gaze trajectory (the batched-serve
    shape); a single gaze (or ``None``) broadcasts across a camera list;
    two sequences must agree in length.
    """
    cam_list = [cameras] if isinstance(cameras, Camera) else list(cameras)
    if gazes is None or _is_single_gaze(gazes):
        gaze = None if gazes is None else tuple(float(v) for v in gazes)
        return cam_list, [gaze] * len(cam_list)
    gaze_list = [
        None if g is None else tuple(float(v) for v in g) for g in gazes
    ]
    if len(cam_list) == 1 and len(gaze_list) != 1:
        cam_list = cam_list * len(gaze_list)
    elif len(gaze_list) == 1 and len(cam_list) != 1:
        gaze_list = gaze_list * len(cam_list)
    elif len(cam_list) != len(gaze_list):
        raise ValueError(
            f"got {len(cam_list)} cameras but {len(gaze_list)} gazes; "
            "lengths must match (or one side must be a single item)"
        )
    return cam_list, gaze_list


def render_foveated_batch(
    fmodel: FoveatedModel,
    cameras: Camera | Sequence[Camera],
    gazes=None,
    config: RenderConfig | None = None,
    batch_size: int | None = None,
    cache: ViewCache | None = None,
) -> list[FRRenderResult]:
    """Render many foveated frames — gaze samples and/or poses — batched.

    The public multi-frame foveated entry point: frame ``i`` renders
    ``cameras[i]`` at ``gazes[i]``, with single-item broadcasting on either
    side (one camera across a gaze trajectory is the canonical workload).
    Each distinct camera's Projection/Tiling/Sorting prefix is prepared
    once per call and shared by all of its gaze samples, and so are its
    (tile, level) renders, across chunks (``cache`` additionally shares
    both across calls); the backend's
    ``foveated_frame_batch`` then takes each chunk of frames whole (the
    ``packed`` engine renders each (tile, level) pair a chunk's gaze
    samples of one pose need once, in band-piece scans, and assembles
    every frame from those tile renders).
    ``batch_size`` caps how many frames share one dispatch (``None``
    batches everything).

    Guarantees: every frame is **bit-identical** to its lone
    :func:`render_foveated`, whatever the batch size, chunking or span
    budget (each pixel row's transmittance scan sees only its own
    spans), and so
    matches the per-frame ``reference`` oracle within 1e-10
    (``tests/test_foveated_batch.py``, ``tests/test_properties.py``).
    """
    config = config or RenderConfig()
    if batch_size is not None and batch_size <= 0:
        raise ValueError("batch_size must be positive")
    cam_list, gaze_list = _normalize_frames(cameras, gazes)
    if not cam_list:
        return []

    background = np.asarray(config.background, dtype=np.float64)
    level_opacity, level_delta = _level_tables(fmodel)
    engine = get_backend(config.backend)

    results: list[FRRenderResult] = []
    step = batch_size or len(cam_list)
    # One PreparedView per distinct camera object: a gaze trajectory
    # re-uses its pose's prefix instead of re-projecting per sample, even
    # when ``batch_size`` splits the trajectory across chunks.  Prefixes
    # are dropped once no later frame needs them, so ``batch_size`` still
    # bounds the prepared working set for many-pose batches (cf.
    # ``render_batch``).  ``cache`` extends the sharing across calls and
    # de-duplicates content-equal cameras that are distinct objects; its
    # lookups go through ``get_batch`` per chunk so the model fingerprint
    # is taken once per chunk, not once per camera.
    prepared: dict[int, PreparedView] = {}
    uses: dict[int, int] = {}
    for camera in cam_list:
        uses[id(camera)] = uses.get(id(camera), 0) + 1
    for i in range(0, len(cam_list), step):
        chunk_cams = cam_list[i : i + step]
        chunk_gazes = gaze_list[i : i + step]
        new_cams: list[Camera] = []
        seen: set[int] = set()
        for camera in chunk_cams:
            key = id(camera)
            if key not in prepared and key not in seen:
                seen.add(key)
                new_cams.append(camera)
        if new_cams:
            if cache is not None:
                new_views = cache.get_batch(fmodel.base, new_cams, config)
            else:
                new_views = [prepare_view(fmodel.base, c, config) for c in new_cams]
                for view in new_views:
                    # Kept for this call: its chunks share the pose's tile
                    # renders.
                    view.tile_store = TileStore()
            prepared.update(
                {id(camera): view for camera, view in zip(new_cams, new_views)}
            )
        views = [prepared[id(camera)] for camera in chunk_cams]
        maps_list = [
            compute_region_maps(camera, view.assignment.grid, fmodel.layout, gaze)
            for camera, view, gaze in zip(chunk_cams, views, chunk_gazes)
        ]
        frames = engine.foveated_frame_batch(
            views, maps_list, fmodel.quality_bounds, level_opacity,
            level_delta, background,
        )
        results.extend(
            _frame_result(fmodel, view, maps, frame)
            for view, maps, frame in zip(views, maps_list, frames)
        )
        for camera in chunk_cams:
            key = id(camera)
            uses[key] -= 1
            if uses[key] == 0:
                prepared.pop(key, None)
    return results


def render_multi_model(
    level_models: list[GaussianModel],
    layout: RegionLayout,
    camera: Camera,
    gaze: tuple[float, float] | None = None,
    config: RenderConfig | None = None,
    cache: ViewCache | None = None,
    prepared_views: Sequence[PreparedView] | None = None,
) -> FRRenderResult:
    """MMFR: independent models per level, projection re-run for each.

    This is the Fov-NeRF-style baseline (Sec 6): same region layout, but the
    level models share no points or parameters, so every level pays its own
    Projection/Filtering and the storage is the sum of all models.

    ``cache`` memoizes each level model's view prefix per (model, pose), so
    repeated frames of one pose stop re-projecting identical per-level views
    — the *measured* workload statistics still charge every level its own
    projection run, which is exactly MMFR's cost story.  ``prepared_views``
    hands the per-level prefixes in directly (one per level model,
    outranking ``cache``); the caller is responsible for them matching
    (models, camera, config).
    """
    config = config or RenderConfig()
    if len(level_models) != layout.num_levels:
        raise ValueError(f"need {layout.num_levels} level models")
    background = np.asarray(config.background, dtype=np.float64)

    if prepared_views is not None:
        if len(prepared_views) != len(level_models):
            raise ValueError(
                f"need {len(level_models)} prepared views, got {len(prepared_views)}"
            )
        views = list(prepared_views)
    elif cache is not None:
        views = [cache.get(m, camera, config) for m in level_models]
    else:
        views = [prepare_view(m, camera, config) for m in level_models]
    grid = views[0][1].grid
    maps = compute_region_maps(camera, grid, layout, gaze)

    engine = get_backend(config.backend)
    frame = engine.multi_model_frame(views, maps, background)

    stats = FRRenderStats(
        sort_intersections_per_tile=frame.sort_intersections_per_tile,
        raster_intersections_per_tile=frame.raster_intersections_per_tile,
        tile_levels=maps.tile_level,
        blend_pixels=frame.blend_pixels,
        num_projected=sum(v[0].num_visible for v in views),
        projection_runs=layout.num_levels,
        num_points=sum(m.num_points for m in level_models),
    )
    return FRRenderResult(image=frame.image, stats=stats, maps=maps)
