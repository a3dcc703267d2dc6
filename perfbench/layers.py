"""Per-layer timing: frames re-composed from the layers' public functions.

The traced closed-loop runs do not call ``render``/``render_foveated``;
they run the same stages those entry points run, one public function at a
time, each inside a span named after the layer's module.  The program's
own ``alpha-scan``/``composite`` spans nest inside the backend span, so a
span's *self* time (its duration minus what its child spans cover) is the
time spent in that layer alone.  The re-composed frames are checked
bitwise against the untraced pass, so the decomposition measures the same
program.

``splat.backends.segments`` builds the row spans the backend is about to
build again internally: the public backend call takes no prebuilt spans.
That row is therefore a side measurement of the span-build layer, and the
backend's own copy of the work stays inside its unattributed time.
"""

from __future__ import annotations

import collections

import numpy as np

from repro.foveation.hierarchy import FoveatedModel
from repro.foveation.regions import compute_region_maps
from repro.obs.trace import Tracer
from repro.splat.backends import get_backend
from repro.splat.backends.segments import build_row_spans, build_segments
from repro.splat.camera import Camera
from repro.splat.gaussians import GaussianModel
from repro.splat.projection import project_gaussians
from repro.splat.sorting import sort_tile_splats
from repro.splat.tiling import DEFAULT_TILE_SIZE, TileGrid, assign_tiles

PROJECTION = "splat.projection"
TILING = "splat.tiling"
SORTING = "splat.sorting"
SEGMENTS = "splat.backends.segments"
REGIONS = "foveation.regions"
HIERARCHY = "foveation.hierarchy"
PACKED = "splat.backends.packed"
LAYER_SPANS = (PROJECTION, TILING, SORTING, SEGMENTS, REGIONS, HIERARCHY, PACKED)
# The backend's own spans (repro.obs backend_span), nested in PACKED.
ALPHA_SCAN = "alpha-scan"
COMPOSITE = "composite"


class Recomposer:
    """Renders frames stage by stage, one benchmark span per layer call.

    ``counts`` accumulates the deterministic work counters of everything
    rendered: splats visible, tile pairs, spans built, level spans kept,
    raster/sort pairs and blend pixels.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.engine = get_backend(None)
        self.counts: collections.Counter = collections.Counter()

    def _span(self, name: str, **args):
        return self.tracer.span(name, "bench", args=args or None)

    def _prepare(self, model: GaussianModel, camera: Camera):
        with self._span(PROJECTION):
            projected = project_gaussians(model, camera, smoothing_3d=0.0)
        grid = TileGrid(width=camera.width, height=camera.height, tile_size=DEFAULT_TILE_SIZE)
        with self._span(TILING):
            assignment = assign_tiles(projected, grid)
        with self._span(SORTING):
            assignment = sort_tile_splats(projected, assignment)
        with self._span(SEGMENTS):
            spans = build_row_spans(projected, build_segments(assignment))
        self.counts["visible"] += projected.num_visible
        self.counts["pairs"] += assignment.num_intersections
        self.counts["spans"] += spans.num_spans
        return projected, assignment, spans.num_spans

    def full(self, model: GaussianModel, camera: Camera) -> np.ndarray:
        """One full frame, as ``render`` would produce it."""
        projected, assignment, _ = self._prepare(model, camera)
        with self._span(PACKED, frames=1):
            ((image, _dominated),) = self.engine.forward_batch(
                [(projected, assignment)], model.num_points, np.zeros(3), True, False
            )
        self.counts["frames"] += 1
        return np.clip(image, 0.0, 1.0)

    def foveated(
        self, fmodel: FoveatedModel, camera: Camera, gazes: list
    ) -> list[np.ndarray]:
        """Foveated frames of one pose, as ``render_foveated_batch`` would
        produce them (one gaze: as ``render_foveated`` would)."""
        projected, assignment, n_spans = self._prepare(fmodel.base, camera)
        with self._span(REGIONS, frames=len(gazes)):
            maps_list = [
                compute_region_maps(camera, assignment.grid, fmodel.layout, gaze)
                for gaze in gazes
            ]
        with self._span(HIERARCHY):
            levels = range(1, fmodel.num_levels + 1)
            level_opacity = {t: fmodel.level_opacities(t) for t in levels}
            level_delta = {t: fmodel.level_color_delta(t) for t in levels}
        with self._span(PACKED, frames=len(gazes)):
            frames = self.engine.foveated_frame_batch(
                [(projected, assignment)] * len(gazes),
                maps_list,
                fmodel.quality_bounds,
                level_opacity,
                level_delta,
                np.zeros(3),
            )
        for frame in frames:
            kept = sum(s.num_spans for s in (frame.level_spans or {}).values())
            self.counts["level_spans_kept"] += kept
            self.counts["foveated_spans"] += n_spans
            self.counts["raster_pairs"] += int(frame.raster_intersections_per_tile.sum())
            self.counts["sort_pairs"] += int(frame.sort_intersections_per_tile.sum())
            self.counts["blend_pixels"] += int(frame.blend_pixels)
        self.counts["frames"] += len(gazes)
        return [np.clip(frame.image, 0.0, 1.0) for frame in frames]


def self_times(spans) -> dict[tuple[int, str], list[float]]:
    """Per ``(pid, name)``: ``[total duration, total self time, count]``.

    Spans nest by time within one ``(pid, tid)`` lane; a span's self time
    is its duration minus the union of its direct children, which on one
    sequential lane is the sum of their durations.
    """
    lanes: dict[tuple[int, int], list[tuple]] = collections.defaultdict(list)
    for name, _cat, t0, t1, pid, tid, _args in spans:
        lanes[(pid, tid)].append((t0, t1, name))
    out: dict[tuple[int, str], list[float]] = collections.defaultdict(lambda: [0.0, 0.0, 0])
    for (pid, _tid), lane in lanes.items():
        lane.sort(key=lambda s: (s[0], -s[1]))
        stack: list[list] = []  # [t0, t1, name, time covered by children]

        def close(entry):
            t0, t1, name, child = entry
            row = out[(pid, name)]
            row[0] += t1 - t0
            row[1] += (t1 - t0) - child
            row[2] += 1
            if stack:
                stack[-1][3] += t1 - t0

        for t0, t1, name in lane:
            while stack and t0 >= stack[-1][1]:
                close(stack.pop())
            stack.append([t0, t1, name, 0.0])
        while stack:
            close(stack.pop())
    return dict(out)
