"""End-to-end PBNR renderer: Projection → Tiling → Sorting → Rasterization.

This is the reference (non-foveated) pipeline every baseline uses.  Options
map directly to the baselines in the paper's evaluation:

- ``smoothing_3d`` → Mip-Splatting's 3D smoothing filter,
- ``per_pixel_sort`` → StopThePop's per-pixel ordered compositing.

Multi-view consumers (trajectory evaluation, CE computation, the harness)
render through :func:`render_batch`, which rasterizes many poses of one
model in a single backend pass, and share the view-preparation prefix
(projection, tiling, depth sorting) through :class:`ViewCache` so repeated
measurements of the same (model, pose) never re-project.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..obs.metrics import Counter, MetricsRegistry
from ..obs.trace import backend_span
from .backends import TileStore
from .cachekey import (
    camera_fingerprint,
    model_fingerprint,
    prepare_config_fingerprint,
)
from .camera import Camera
from .gaussians import GaussianModel
from .projection import ProjectedGaussians, project_gaussians
from .rasterizer import RenderStats, rasterize, rasterize_batch
from .sorting import sort_tile_splats
from .tiling import DEFAULT_TILE_SIZE, TileAssignment, TileGrid, assign_tiles


@dataclasses.dataclass
class RenderResult:
    """A rendered frame plus everything the rest of the system consumes."""

    image: np.ndarray  # (H, W, 3) in [0, 1]
    stats: RenderStats
    projected: ProjectedGaussians
    assignment: TileAssignment


@dataclasses.dataclass
class RenderConfig:
    """Renderer options (defaults reproduce vanilla 3DGS behaviour).

    ``backend`` selects the rasterization engine (``"packed"`` /
    ``"reference"``, see :mod:`repro.splat.backends`); ``None`` defers to the
    process default (``REPRO_BACKEND`` env var, else ``packed``).

    ``collect_stats`` gates only Val_i (``RenderStats.dominated_pixels``,
    the per-point dominated-pixel counts the pruning metrics read); the
    cheap tile counts are always filled.  It is off by default: a real-time
    frame has no use for Val_i, and the callers that do (CE, the pruned
    baselines) ask for it.  It does not affect view preparation, so
    :class:`ViewCache` entries are shared either way.
    """

    tile_size: int = DEFAULT_TILE_SIZE
    background: tuple[float, float, float] = (0.0, 0.0, 0.0)
    smoothing_3d: float = 0.0
    per_pixel_sort: bool = False
    collect_stats: bool = False
    backend: str | None = None


@dataclasses.dataclass
class PreparedView:
    """The render-prefix of one (model, pose): projected splats plus their
    depth-sorted tile assignment.

    Iterates and indexes like the ``(projected, assignment)`` tuple
    :func:`prepare_view` used to return, so existing unpacking call sites
    keep working.

    ``tile_store`` keeps the packed engine's foveated (tile, level) renders
    of this view across calls (:class:`~repro.splat.backends.TileStore`).
    :class:`ViewCache` entries carry one, so a foveated frame at a cached
    pose renders only the tiles no earlier frame of the pose rendered at
    its levels; a view from :func:`prepare_view` has none, and each
    foveated call renders its own.
    """

    projected: ProjectedGaussians
    assignment: TileAssignment
    tile_store: TileStore | None = dataclasses.field(default=None, repr=False, compare=False)

    def __iter__(self):
        return iter((self.projected, self.assignment))

    def __getitem__(self, i: int):
        return (self.projected, self.assignment)[i]

    def __len__(self) -> int:
        return 2


def prepare_view(
    model: GaussianModel,
    camera: Camera,
    config: RenderConfig | None = None,
    opacity_override: np.ndarray | None = None,
    color_override: np.ndarray | None = None,
) -> PreparedView:
    """Run Projection, Tiling and Sorting for one view (no rasterization).

    The foveated pipeline shares this prefix across quality levels (the
    paper's key compute saving from subsetting: projection runs once), and
    :class:`ViewCache` shares it across repeated renders of one pose.
    """
    config = config or RenderConfig()
    with backend_span("prepare", args={"w": camera.width, "h": camera.height}):
        projected = project_gaussians(
            model,
            camera,
            smoothing_3d=config.smoothing_3d,
            opacity_override=opacity_override,
            color_override=color_override,
        )
        grid = TileGrid(width=camera.width, height=camera.height, tile_size=config.tile_size)
        assignment = assign_tiles(projected, grid)
        assignment = sort_tile_splats(projected, assignment)
    return PreparedView(projected=projected, assignment=assignment)


class ViewCache:
    """Memoizes :func:`prepare_view` per (model, pose, prepare-config).

    Each entry carries a :class:`~repro.splat.backends.TileStore`, so a
    pose's foveated tile renders outlive the call that made them: a
    foveated miss at a cached pose scans only the (tile, level) pairs no
    earlier frame of the pose rendered.  The stores bound the cache's
    memory at ``maxsize × L × H × W × 24`` bytes of tile renders (``L``
    quality levels), plus each view's pair tables.

    Keys are content fingerprints (:mod:`repro.splat.cachekey`, shared with
    the serve tier's :class:`repro.serve.FrameCache`) — the model's
    parameter arrays, the camera's geometry and the config fields that
    affect preparation — so a
    cache survives model copies and fresh ``Camera`` objects, and a mutated
    model (e.g. mid-finetuning) never serves stale projections.  ``hits`` /
    ``misses`` make the sharing observable for tests and benchmarks.

    Eviction is LRU: a hit refreshes an entry's recency, and under
    ``maxsize`` pressure the least-recently-used entry is dropped — so a
    looped trajectory whose pose count exceeds ``maxsize`` by a few still
    keeps its hottest poses resident instead of cycling everything out.
    """

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        # Int-like metric objects (repro.obs): existing `cache.hits` int
        # comparisons keep working, and register_metrics() can attach a
        # registry to the live values.
        self.hits = Counter()
        self.misses = Counter()
        self.evictions = Counter()
        self._entries: dict[tuple, PreparedView] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        """Plain-int counters snapshot (thin view over the live objects)."""
        return {
            "hits": int(self.hits),
            "misses": int(self.misses),
            "evictions": int(self.evictions),
            "entries": len(self._entries),
        }

    def register_metrics(self, registry: MetricsRegistry, **labels: str) -> None:
        """Attach the live hit/miss/eviction counters onto ``registry``."""
        registry.register("view_cache_hits", self.hits, help="prepared-view cache hits", **labels)
        registry.register("view_cache_misses", self.misses, help="prepared-view cache misses", **labels)
        registry.register(
            "view_cache_evictions", self.evictions, help="prepared-view LRU evictions", **labels
        )
        registry.gauge_fn(
            "view_cache_entries", lambda: len(self._entries), help="prepared views resident", **labels
        )

    def get(
        self,
        model: GaussianModel,
        camera: Camera,
        config: RenderConfig | None = None,
    ) -> PreparedView:
        """The prepared view for (model, camera), computing it on first use."""
        return self.get_batch(model, [camera], config)[0]

    def get_batch(
        self,
        model: GaussianModel,
        cameras: list[Camera],
        config: RenderConfig | None = None,
    ) -> list[PreparedView]:
        """Prepared views for many poses of one model.

        The model fingerprint is taken once for the whole batch, not once
        per camera.  An unchanged model costs an exact compare against the
        memoized snapshot of its parameters, not a hash.
        """
        config = config or RenderConfig()
        model_key = model_fingerprint(model)
        config_key = prepare_config_fingerprint(config)
        views = []
        for camera in cameras:
            key = (model_key, camera_fingerprint(camera), config_key)
            view = self._entries.pop(key, None)
            if view is not None:
                self.hits += 1
            else:
                self.misses += 1
                view = prepare_view(model, camera, config)
                view.tile_store = TileStore()
                if len(self._entries) >= self.maxsize:
                    # Dict order is insertion order and every access
                    # re-inserts, so the first key is the LRU entry.
                    self._entries.pop(next(iter(self._entries)))
                    self.evictions += 1
            self._entries[key] = view
            views.append(view)
        return views


def render(
    model: GaussianModel,
    camera: Camera,
    config: RenderConfig | None = None,
    prepared: PreparedView | None = None,
) -> RenderResult:
    """Render one frame and its statistics (Val_i only if
    ``config.collect_stats``).

    ``prepared`` skips the Projection/Tiling/Sorting prefix (e.g. a
    :class:`ViewCache` entry); the caller is responsible for it matching
    (model, camera, config).
    """
    config = config or RenderConfig()
    if prepared is None:
        prepared = prepare_view(model, camera, config)
    image, stats = rasterize(
        prepared.projected,
        prepared.assignment,
        num_points=model.num_points,
        background=np.asarray(config.background, dtype=np.float64),
        collect_stats=config.collect_stats,
        per_pixel_sort=config.per_pixel_sort,
        backend=config.backend,
    )
    return RenderResult(
        image=image,
        stats=stats,
        projected=prepared.projected,
        assignment=prepared.assignment,
    )


def render_batch(
    model: GaussianModel,
    cameras: list[Camera],
    config: RenderConfig | None = None,
    batch_size: int | None = None,
    cache: ViewCache | None = None,
) -> list[RenderResult]:
    """Render many views of one model through the batched backend path.

    View preparation still runs per pose (through ``cache`` when given), but
    rasterization — alpha evaluation, the transmittance scan, compositing
    and statistics — executes once per batch over the concatenated span
    lists.  ``batch_size`` caps how many views share one scan (``None``
    batches everything); on the packed backends every result is
    bit-identical to its per-view :func:`render`, whatever the batch size
    or span budget.
    """
    config = config or RenderConfig()
    if batch_size is not None and batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if not cameras:
        return []

    background = np.asarray(config.background, dtype=np.float64)
    step = batch_size or len(cameras)
    results: list[RenderResult] = []
    for i in range(0, len(cameras), step):
        # Preparation runs per chunk, so ``batch_size`` bounds the prepared
        # working set too, not just the scan temporaries.
        if cache is not None:
            chunk = cache.get_batch(model, cameras[i : i + step], config)
        else:
            chunk = [
                prepare_view(model, camera, config)
                for camera in cameras[i : i + step]
            ]
        outputs = rasterize_batch(
            [(view.projected, view.assignment) for view in chunk],
            num_points=model.num_points,
            background=background,
            collect_stats=config.collect_stats,
            per_pixel_sort=config.per_pixel_sort,
            backend=config.backend,
        )
        for view, (image, stats) in zip(chunk, outputs):
            results.append(
                RenderResult(
                    image=image,
                    stats=stats,
                    projected=view.projected,
                    assignment=view.assignment,
                )
            )
    return results

