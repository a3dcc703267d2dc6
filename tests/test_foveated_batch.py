"""Foveated batching: ``render_foveated_batch`` / ``foveated_frame_batch``.

The batched foveated pipeline must be indistinguishable from the per-frame
path: a batch of one frame is **bit-identical** to :func:`render_foveated`
(both route through the same staged span code), and multi-gaze /
multi-camera batches match the per-frame ``reference`` oracle within 1e-10
— including mixed gazes, off-screen gazes, zero-splat quality levels and
frames without any intersections.  The packed engine's scanned-span work
counter (level filtering compacts spans before the scan) is pinned here
too.
"""

import dataclasses

import numpy as np
import pytest

from repro.foveation import (
    render_foveated,
    render_foveated_batch,
    render_multi_model,
    uniform_foveated_model,
)
from repro.foveation.regions import RegionLayout, compute_region_maps
from repro.harness import EVAL_LEVEL_FRACTIONS, EVAL_REGION_LAYOUT
from repro.obs import Tracer, set_active_tracer
from repro.scenes import gaze_trajectory
from repro.splat import Camera, RenderConfig, ViewCache, prepare_view
from repro.splat.backends import packed
from repro.splat.backends.segments import build_row_spans, build_segments
from repro.splat.tiling import TileGrid

TOL = 1e-10
ALL_BACKENDS = ("packed", "reference")


@pytest.fixture(scope="module")
def fmodel(small_scene):
    return uniform_foveated_model(
        small_scene, EVAL_REGION_LAYOUT, EVAL_LEVEL_FRACTIONS
    )


@pytest.fixture(scope="module")
def fmodel_empty_l4(small_scene):
    """A hierarchy whose coarsest level holds zero points."""
    return uniform_foveated_model(
        small_scene, EVAL_REGION_LAYOUT, (1.0, 0.45, 0.22, 0.0)
    )


@pytest.fixture()
def away_camera() -> Camera:
    """A pose looking away from the scene: zero projected splats."""
    return Camera.from_fov(
        width=96,
        height=64,
        fov_x_deg=60.0,
        position=np.array([0.0, 0.0, -5.0]),
        look_at=np.array([0.0, 0.0, -10.0]),
    )


def assert_frames_equal(ref, got, atol=None):
    if atol is None:
        assert np.array_equal(ref.image, got.image)
        assert np.array_equal(
            ref.stats.raster_intersections_per_tile,
            got.stats.raster_intersections_per_tile,
        )
    else:
        assert np.abs(ref.image - got.image).max() < atol
        assert np.allclose(
            ref.stats.raster_intersections_per_tile,
            got.stats.raster_intersections_per_tile,
            atol=atol,
        )
    assert np.array_equal(
        ref.stats.sort_intersections_per_tile,
        got.stats.sort_intersections_per_tile,
    )
    assert ref.stats.blend_pixels == got.stats.blend_pixels


def _band_pixel_counts(maps, assignment):
    """``(T,)`` pixels the frame blends in each tile, from first principles:
    band pixels of the tile's inner level, in non-empty tiles with a
    second level."""
    grid = assignment.grid
    ts = grid.tile_size
    tile_map = (
        (np.arange(grid.height) // ts)[:, None] * grid.tiles_x
        + (np.arange(grid.width) // ts)[None, :]
    )
    tl, second = maps.tile_level, maps.tile_second_level
    inner = np.where(second > 0, np.minimum(tl, second), 0)
    nonempty = np.diff(assignment.tile_offsets) > 0
    band = (
        (maps.band_level == inner[tile_map])
        & maps.needs_blend
        & ((second > 0) & nonempty)[tile_map]
    )
    return np.bincount(tile_map[band], minlength=grid.num_tiles)


def _blend_tiles(maps, assignment):
    """``(T,)`` mask of the non-empty tiles holding a pixel the frame blends."""
    return _band_pixel_counts(maps, assignment) > 0


def _blend_spans_kept(fmodel, camera, maps):
    """(blend-pass spans kept, spans built) of one frame, from first principles.

    The blend pass scans the built spans of every tile holding a band pixel
    whose pair's quality bound reaches the tile's second level.
    """
    projected, assignment = prepare_view(fmodel.base, camera)
    seg = build_segments(assignment)
    spans = build_row_spans(projected, seg)
    second = maps.tile_second_level
    in_band = _blend_tiles(maps, assignment)[spans.span_tile]
    span_bound = fmodel.quality_bounds[projected.point_ids[seg.pair_splats]][
        spans.span_pair
    ]
    passes = span_bound >= second[spans.span_tile]
    return int((in_band & passes).sum()), spans.num_spans


class TestBatchOfOne:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("gaze", [None, (0.0, 0.0), (-50.0, 500.0)])
    def test_bitwise_identical_to_render_foveated(
        self, fmodel, train_cameras, backend, gaze
    ):
        config = RenderConfig(backend=backend)
        single = render_foveated(fmodel, train_cameras[0], gaze=gaze, config=config)
        batch = render_foveated_batch(
            fmodel, train_cameras[0], gazes=[gaze], config=config
        )
        assert len(batch) == 1
        assert_frames_equal(single, batch[0])

    @pytest.mark.parametrize(
        "gaze", [(10.0, 12.0), [10.0, 12.0], np.array([10.0, 12.0])]
    )
    def test_single_gaze_forms_broadcast(self, fmodel, train_cameras, gaze):
        # Every gaze form render_foveated accepts is one point here too —
        # a 2-float list must not be misread as two frames' coordinates.
        single = render_foveated(fmodel, train_cameras[0], gaze=(10.0, 12.0))
        batch = render_foveated_batch(fmodel, train_cameras[0], gazes=gaze)
        assert len(batch) == 1
        assert_frames_equal(single, batch[0])

    def test_wrong_length_gaze_array_rejected(self, fmodel, train_cameras):
        with pytest.raises(ValueError, match="coordinates"):
            render_foveated_batch(
                fmodel, train_cameras[0], gazes=np.array([1.0, 2.0, 3.0])
            )


class TestMultiFrameEquivalence:
    # Mixed gazes: centred, explicit corner, far off-screen, trajectory-like.
    GAZES = [None, (0.0, 0.0), (-50.0, 500.0), (48.0, 32.0)]

    @pytest.mark.parametrize("backend", ("packed",))
    def test_multi_gaze_matches_per_frame_reference(
        self, fmodel, train_cameras, backend
    ):
        batch = render_foveated_batch(
            fmodel, train_cameras[0], gazes=self.GAZES,
            config=RenderConfig(backend=backend),
        )
        assert len(batch) == len(self.GAZES)
        blend_seen = 0
        for gaze, got in zip(self.GAZES, batch):
            ref = render_foveated(
                fmodel, train_cameras[0], gaze=gaze,
                config=RenderConfig(backend="reference"),
            )
            assert_frames_equal(ref, got, atol=TOL)
            blend_seen += got.stats.blend_pixels
        # The scenario must actually exercise the two-level blending path.
        assert blend_seen > 0

    def test_multi_camera_broadcast_gaze(self, fmodel, train_cameras, eval_cameras):
        cameras = list(train_cameras[:2]) + list(eval_cameras[:1])
        batch = render_foveated_batch(fmodel, cameras, gazes=(20.0, 20.0))
        for camera, got in zip(cameras, batch):
            ref = render_foveated(
                fmodel, camera, gaze=(20.0, 20.0),
                config=RenderConfig(backend="reference"),
            )
            assert_frames_equal(ref, got, atol=TOL)

    def test_mixed_cameras_and_gazes(self, fmodel, train_cameras):
        cameras = [train_cameras[0], train_cameras[1], train_cameras[0]]
        gazes = [None, (5.0, 40.0), (90.0, 10.0)]
        batch = render_foveated_batch(fmodel, cameras, gazes=gazes)
        for camera, gaze, got in zip(cameras, gazes, batch):
            ref = render_foveated(
                fmodel, camera, gaze=gaze, config=RenderConfig(backend="reference")
            )
            assert_frames_equal(ref, got, atol=TOL)

    def test_zero_splat_level(self, fmodel_empty_l4, train_cameras):
        # The far periphery renders an empty point subset; batched and
        # per-frame reference must agree there too.
        gazes = [None, (0.0, 0.0)]
        batch = render_foveated_batch(fmodel_empty_l4, train_cameras[0], gazes=gazes)
        for gaze, got in zip(gazes, batch):
            ref = render_foveated(
                fmodel_empty_l4, train_cameras[0], gaze=gaze,
                config=RenderConfig(backend="reference"),
            )
            assert_frames_equal(ref, got, atol=TOL)

    def test_empty_frame_in_batch(self, fmodel, train_cameras, away_camera):
        # A pose with zero projected splats rides the same batch as a
        # populated one: pure background, zero workload.
        cameras = [train_cameras[0], away_camera]
        batch = render_foveated_batch(fmodel, cameras)
        empty = batch[1]
        assert np.allclose(empty.image, 0.0)
        assert empty.stats.total_sort_intersections == 0
        assert empty.stats.blend_pixels == 0
        ref = render_foveated(
            fmodel, train_cameras[0], config=RenderConfig(backend="reference")
        )
        assert_frames_equal(ref, batch[0], atol=TOL)

    def test_batch_size_chunking_is_bitwise(self, fmodel, train_cameras):
        gazes = [
            tuple(g) for g in gaze_trajectory(96, 64, 5, seed=3)
        ]
        whole = render_foveated_batch(fmodel, train_cameras[0], gazes=gazes)
        chunked = render_foveated_batch(
            fmodel, train_cameras[0], gazes=gazes, batch_size=2
        )
        for a, b in zip(whole, chunked):
            assert_frames_equal(a, b)

    def test_trajectory_against_per_frame_packed(self, fmodel, train_cameras):
        # A realistic scanpath: every batched frame is bit-identical to its
        # own single-frame render (the per-frame scan segments are exact).
        gazes = [tuple(g) for g in gaze_trajectory(96, 64, 6, seed=11)]
        batch = render_foveated_batch(fmodel, train_cameras[0], gazes=gazes)
        for gaze, got in zip(gazes, batch):
            single = render_foveated(fmodel, train_cameras[0], gaze=gaze)
            assert_frames_equal(single, got)


class TestPreparationSharing:
    def test_cache_prepares_each_pose_once(self, fmodel, train_cameras):
        cache = ViewCache()
        gazes = [tuple(g) for g in gaze_trajectory(96, 64, 4, seed=5)]
        render_foveated_batch(fmodel, train_cameras[0], gazes=gazes, cache=cache)
        assert cache.misses == 1  # one pose, many gazes: one preparation
        assert cache.hits == 0
        render_foveated_batch(fmodel, train_cameras[0], gazes=gazes, cache=cache)
        assert cache.misses == 1
        assert cache.hits == 1

    def test_shared_prefix_without_cache(self, fmodel, train_cameras, monkeypatch):
        import repro.foveation.fr_renderer as fr_renderer

        calls = []
        real = fr_renderer.prepare_view

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(fr_renderer, "prepare_view", counting)
        gazes = [tuple(g) for g in gaze_trajectory(96, 64, 5, seed=6)]
        render_foveated_batch(fmodel, train_cameras[0], gazes=gazes)
        # One projection/tiling/sorting pass serves the whole trajectory.
        assert len(calls) == 1
        # ... even when batch_size splits the trajectory across chunks.
        calls.clear()
        render_foveated_batch(
            fmodel, train_cameras[0], gazes=gazes, batch_size=2
        )
        assert len(calls) == 1

    def test_chunks_share_tile_renders_without_cache(self, fmodel, train_cameras):
        # batch_size chunks of one pose scan each (tile, level) render once
        # per call, as one unchunked call does.
        gazes = [tuple(g) for g in gaze_trajectory(96, 64, 8, seed=6)]
        config = RenderConfig(backend="packed")
        spans = {}
        for batch_size in (None, 3):
            tracer = Tracer()
            prev = set_active_tracer(tracer)
            try:
                render_foveated_batch(
                    fmodel, train_cameras[0], gazes=gazes, batch_size=batch_size,
                    config=config,
                )
            finally:
                set_active_tracer(prev)
            spans[batch_size] = sum(
                args["spans"] for name, _, _, _, _, _, args in tracer.spans()
                if name == "alpha-scan" and "frames" in args
            )
        assert spans[3] == spans[None] > 0

    def test_cache_hashes_model_once_per_chunk(
        self, fmodel, train_cameras, monkeypatch
    ):
        import repro.splat.renderer as renderer

        hashes = []
        real = renderer.model_fingerprint

        def counting(model):
            hashes.append(1)
            return real(model)

        monkeypatch.setattr(renderer, "model_fingerprint", counting)
        cache = ViewCache()
        render_foveated_batch(
            fmodel, train_cameras[:2], gazes=(10.0, 10.0), cache=cache
        )
        # Lookups batch through get_batch: one O(parameter-bytes) model
        # fingerprint for the whole (single-chunk) call, not one per pose.
        assert len(hashes) == 1
        assert cache.misses == 2

    def test_mismatched_lengths_rejected(self, fmodel, train_cameras):
        with pytest.raises(ValueError, match="lengths must match"):
            render_foveated_batch(
                fmodel, train_cameras[:3], gazes=[None, (0.0, 0.0)]
            )

    def test_bad_batch_size_rejected(self, fmodel, train_cameras):
        with pytest.raises(ValueError, match="batch_size"):
            render_foveated_batch(fmodel, train_cameras[0], batch_size=0)

    def test_empty_input(self, fmodel):
        assert render_foveated_batch(fmodel, []) == []


class TestTileStoreValidity:
    """A cached view's stored tile renders are never served against other
    tables: a model sharing ``base`` with edited level parameters, another
    background, or in-place edits of the bounds and colour versions each
    render frames equal to their own lone renders."""

    GAZES = [None, (20.0, 16.0)]

    def _render(self, fm, camera, config, cache):
        tracer = Tracer()
        prev = set_active_tracer(tracer)
        try:
            got = render_foveated_batch(fm, camera, self.GAZES, config=config, cache=cache)
        finally:
            set_active_tracer(prev)
        for gaze, res in zip(self.GAZES, got, strict=True):
            assert_frames_equal(render_foveated(fm, camera, gaze=gaze, config=config), res)
        (work,) = [
            args for name, _, _, _, _, _, args in tracer.spans()
            if name == "alpha-scan" and "frames" in args
        ]
        return work["tiles_reused"]

    def test_edited_levels_and_background_render_their_own_frames(
        self, fmodel, train_cameras
    ):
        camera = train_cameras[0]
        edited = dataclasses.replace(
            fmodel, mv_opacity_logits=fmodel.mv_opacity_logits - 1.5
        )
        black = RenderConfig(backend="packed")
        grey = RenderConfig(backend="packed", background=(0.2, 0.5, 0.9))
        cache = ViewCache()
        runs = [(fmodel, black), (edited, black), (fmodel, grey), (edited, grey), (fmodel, black)]
        assert [self._render(fm, camera, config, cache) for fm, config in runs] == [0] * 5
        # One prepared view served every run, and its store is live: the
        # same tables again render nothing new.
        assert cache.misses == 1
        assert self._render(fmodel, camera, black, cache) > 0

    def test_in_place_edits_render_their_own_frames(self, fmodel, train_cameras):
        camera = train_cameras[0]
        fm = dataclasses.replace(
            fmodel,
            quality_bounds=fmodel.quality_bounds.copy(),
            mv_sh_dc=fmodel.mv_sh_dc.copy(),
        )
        config = RenderConfig(backend="packed")
        cache = ViewCache()
        assert self._render(fm, camera, config, cache) == 0
        fm.quality_bounds[::3] = 1
        assert self._render(fm, camera, config, cache) == 0
        fm.mv_sh_dc[:, 1:] += 0.25
        assert self._render(fm, camera, config, cache) == 0
        assert self._render(fm, camera, config, cache) > 0


GAZES = [None, (20.0, 16.0), (-50.0, 500.0)]  # centre, mid-periphery, off-screen


def _level_work_oracle(fmodel, camera, maps):
    """Per level ``t``: the ``(spans, sort_work)`` per tile of the built
    spans in the non-empty level-``t`` tiles whose pair bound is at least
    ``t``, from one full :func:`build_row_spans` and a naive group loop."""
    projected, assignment = prepare_view(fmodel.base, camera)
    seg = build_segments(assignment)
    spans = build_row_spans(projected, seg)
    num_tiles = assignment.grid.num_tiles
    span_bound = fmodel.quality_bounds[projected.point_ids[seg.pair_splats]][
        spans.span_pair
    ]
    tl = maps.tile_level
    nonempty = np.diff(assignment.tile_offsets) > 0
    oracle = {}
    for t in np.unique(tl[nonempty]).tolist():
        keep = (tl[spans.span_tile] == t) & (span_bound >= t)
        counts = np.bincount(spans.span_tile[keep], minlength=num_tiles)
        sort_work = np.zeros(num_tiles)
        groups, lens = np.unique(
            np.stack([spans.span_tile[keep], spans.span_y[keep]]), axis=1,
            return_counts=True,
        )
        for tile, n in zip(groups[0].tolist(), lens.tolist()):
            sort_work[tile] += n * np.ceil(np.log2(max(n, 2)))
        oracle[t] = (counts, sort_work)
    return oracle


def _assert_level_work(fmodel, camera, result):
    oracle = _level_work_oracle(fmodel, camera, result.maps)
    assert result.level_spans.keys() == oracle.keys()
    for t, work in result.level_spans.items():
        spans, sort_work = oracle[t]
        assert work.spans.dtype == np.int64 and work.sort_work.dtype == np.float64
        assert np.array_equal(work.spans, spans)
        assert np.array_equal(work.sort_work, sort_work)
        assert work.num_spans == spans.sum()


class TestLevelSpans:
    def test_packed_surfaces_filtered_levels(self, fmodel, train_cameras):
        # Level t of a lone frame carries the spans and sort work per tile
        # of the primary pass in its own tiles: the spans of level-t tiles
        # whose pair passed the level's quality bound.
        camera = train_cameras[0]
        config = RenderConfig(backend="packed")
        for gaze in GAZES:
            result = render_foveated(fmodel, camera, gaze=gaze, config=config)
            assert result.level_spans
            _assert_level_work(fmodel, camera, result)

    def test_level_filtering_prunes_spans(self, fmodel, train_cameras):
        # Every frame of a gaze batch reads its own primary level per tile
        # from the passes the frames share, and keeps fewer spans than its
        # view built.
        camera = train_cameras[0]
        batch = render_foveated_batch(
            fmodel, camera, gazes=GAZES, config=RenderConfig(backend="packed")
        )
        assert len({tuple(r.maps.tile_level) for r in batch}) == len(GAZES)
        projected, assignment = prepare_view(fmodel.base, camera)
        built = build_row_spans(projected, build_segments(assignment)).num_spans
        for got in batch:
            _assert_level_work(fmodel, camera, got)
            assert 0 < sum(w.num_spans for w in got.level_spans.values()) < built

    @pytest.mark.parametrize(
        "gaze", GAZES, ids=["centre", "mid-periphery", "off-screen"]
    )
    def test_alpha_scan_counts_scanned_spans(self, fmodel, train_cameras, gaze):
        # The foveated alpha-scan span reports the spans its composite
        # passes scan: the primary pass's kept spans (= the surfaced level
        # spans) plus the blend pass's kept spans — fewer than were built.
        camera = train_cameras[0]
        tracer = Tracer()
        prev = set_active_tracer(tracer)
        try:
            result = render_foveated(
                fmodel, camera, gaze=gaze, config=RenderConfig(backend="packed")
            )
        finally:
            set_active_tracer(prev)
        (work,) = [
            args for name, _, _, _, _, _, args in tracer.spans()
            if name == "alpha-scan" and "frames" in args
        ]
        blend_kept, built = _blend_spans_kept(fmodel, camera, result.maps)
        primary_kept = sum(s.num_spans for s in result.level_spans.values())
        assert work["built"] == built
        assert work["spans"] == primary_kept + blend_kept
        assert work["spans"] < work["built"]
        if gaze == (20.0, 16.0):
            assert result.stats.blend_pixels > 0 and blend_kept > 0

    def test_alpha_scan_renders_each_tile_level_once(self, fmodel, train_cameras):
        # A gaze batch at one pose scans each needed (tile, level) render
        # once: every non-empty tile at each frame's primary level and every
        # blend tile at its second level, deduplicated across the frames.
        camera = train_cameras[0]
        config = RenderConfig(backend="packed")
        gazes = [tuple(g) for g in gaze_trajectory(96, 64, 8, seed=13)]
        gazes += [None, (-50.0, 500.0)]
        tracer = Tracer()
        prev = set_active_tracer(tracer)
        try:
            batch = render_foveated_batch(fmodel, camera, gazes=gazes, config=config)
        finally:
            set_active_tracer(prev)
        (work,) = [
            args for name, _, _, _, _, _, args in tracer.spans()
            if name == "alpha-scan" and "frames" in args
        ]

        projected, assignment = prepare_view(fmodel.base, camera)
        seg = build_segments(assignment)
        spans = build_row_spans(projected, seg)
        span_bound = fmodel.quality_bounds[projected.point_ids[seg.pair_splats]][
            spans.span_pair
        ]
        nonempty = np.diff(assignment.tile_offsets) > 0
        needed = set()
        for got in batch:
            tl = got.maps.tile_level
            needed |= {(t, tl[t]) for t in np.flatnonzero(nonempty)}
            second = got.maps.tile_second_level
            needed |= {(t, second[t]) for t in np.flatnonzero(_blend_tiles(got.maps, assignment))}
        kept = sum(
            int(((spans.span_tile == t) & (span_bound >= level)).sum())
            for t, level in needed
        )
        assert work["spans"] == kept
        assert work["built"] == len(gazes) * spans.num_spans

        for gaze, got in zip(gazes, batch):
            lone = render_foveated(fmodel, camera, gaze=gaze, config=config)
            assert np.array_equal(lone.image, got.image)
            assert got.level_spans.keys() == lone.level_spans.keys()
            for t, work in got.level_spans.items():
                assert np.array_equal(work.spans, lone.level_spans[t].spans)
                assert np.array_equal(work.sort_work, lone.level_spans[t].sort_work)

    def test_reference_reports_none(self, fmodel, train_cameras):
        result = render_foveated(
            fmodel, train_cameras[0], config=RenderConfig(backend="reference")
        )
        assert result.level_spans is None



def _plan_stats_by_bincount(fmodel, camera, maps):
    """A frame's per-tile (sort, raster) pair counts and blend pixels from
    the per-frame ``bincount`` formulas over all of the view's pairs."""
    projected, assignment = prepare_view(fmodel.base, camera)
    grid = assignment.grid
    num_tiles = grid.num_tiles
    pair_tiles = assignment.pair_tiles
    bounds = fmodel.quality_bounds[projected.point_ids[assignment.pair_splats]]
    tl, second = maps.tile_level, maps.tile_second_level
    sort_level = np.where(second > 0, np.minimum(tl, second), tl)
    sort_ints = np.bincount(
        pair_tiles[bounds >= sort_level[pair_tiles]], minlength=num_tiles
    ).astype(np.int64)
    raster_ints = np.bincount(
        pair_tiles[bounds >= tl[pair_tiles]], minlength=num_tiles
    ).astype(np.float64)
    mix_count = _band_pixel_counts(maps, assignment)
    sel = mix_count > 0
    msec = np.bincount(pair_tiles[bounds >= second[pair_tiles]], minlength=num_tiles)
    raster_ints[sel] += msec[sel] * mix_count[sel] / grid.tile_size**2
    return sort_ints, raster_ints, int(mix_count.sum())


class TestPlanTable:
    """Each frame's plan reads its pair counts from one per-view table of
    the pairs of each tile whose quality bound reaches ``l``; the counts
    are exactly the per-frame ``bincount`` formulas'."""

    GAZES = [None, (76.8, 44.8), (-96.0, -64.0)]  # centre, mid, off-screen

    def test_table_counts_pairs_per_tile_and_bound(self, fmodel, train_cameras):
        projected, assignment = prepare_view(fmodel.base, train_cameras[0])
        seg = build_segments(assignment)
        bounds = fmodel.quality_bounds[projected.point_ids[seg.pair_splats]]
        table = packed._tile_bound_counts(seg, bounds, fmodel.num_levels)
        assert table.shape == (assignment.grid.num_tiles, fmodel.num_levels + 1)
        for level in range(fmodel.num_levels + 1):
            want = np.bincount(
                seg.pair_tiles[bounds >= level], minlength=assignment.grid.num_tiles
            )
            assert np.array_equal(table[:, level], want)

    @pytest.mark.parametrize("tilted", [False, True], ids=["full-view", "empty-tiles"])
    @pytest.mark.parametrize("model", ["fmodel", "fmodel_empty_l4"])
    def test_plan_stats_match_bincount_formulas(
        self, request, model, tilted, train_cameras
    ):
        fm = request.getfixturevalue(model)
        camera = train_cameras[0]
        if tilted:
            # Tilted off the scene: the top tile rows hold no pairs.
            forward = -camera.position / np.linalg.norm(camera.position)
            camera = Camera.from_fov(
                camera.width, camera.height, camera.fov_x_deg, camera.position,
                camera.position + forward + np.array([0.0, -0.5, 0.0]),
            )
        _, assignment = prepare_view(fm.base, camera)
        empty = np.diff(assignment.tile_offsets) == 0
        assert empty.any() == tilted and not empty.all()
        frames = render_foveated_batch(
            fm, camera, gazes=self.GAZES, config=RenderConfig(backend="packed")
        )
        blended = 0
        for got in frames:
            sort_ints, raster_ints, blend_pixels = _plan_stats_by_bincount(
                fm, camera, got.maps
            )
            stats = got.stats
            assert stats.sort_intersections_per_tile.dtype == np.int64
            assert np.array_equal(stats.sort_intersections_per_tile, sort_ints)
            assert stats.raster_intersections_per_tile.tobytes() == raster_ints.tobytes()
            assert stats.blend_pixels == blend_pixels
            blended += blend_pixels
        assert blended > 0

    def test_view_without_pairs_plans_zeros(self, fmodel, away_camera):
        (got,) = render_foveated_batch(
            fmodel, away_camera, gazes=[None], config=RenderConfig(backend="packed")
        )
        assert not got.stats.sort_intersections_per_tile.any()
        assert not got.stats.raster_intersections_per_tile.any()
        assert got.stats.blend_pixels == 0


def _reference_blend(self, maps, image, layers, primary_layer, second_layer, clip=True):
    """``(1 − w)·lo + w·hi`` over the band pixels, channel by channel, from
    the unclipped ``layers``, and clipped to [0, 1] unless ``clip`` is off."""
    rows = image.reshape(-1, 3)
    renders = layers.reshape(-1, 3)
    primary = renders[primary_layer[self.tiles] * rows.shape[0] + self.pixels]
    second = renders[second_layer[self.tiles] * rows.shape[0] + self.pixels]
    lo_is_primary = (maps.tile_level == self.lo_t)[self.tiles][:, None]
    lo = np.where(lo_is_primary, primary, second)
    hi = np.where(lo_is_primary, second, primary)
    w = maps.weight_next.reshape(-1)[self.pixels][:, None]
    mixed = (1.0 - w) * lo + w * hi
    rows[self.pixels] = np.clip(mixed, 0.0, 1.0) if clip else mixed


class TestBlendWeights:
    """The blend weighs the primary and the second render with one weight
    each, ``(1 − w, w)`` or ``(w, 1 − w)``: bitwise ``(1 − w)·lo + w·hi``."""

    def test_random_band_pixels_both_branches(self, train_cameras):
        rng = np.random.default_rng(5)
        camera = train_cameras[0]
        layout = RegionLayout((0.0, 6.0, 12.0, 18.0), blend_band_deg=1.5)
        grid = TileGrid(width=camera.width, height=camera.height, tile_size=16)
        branches = set()
        for gaze in [None, (76.8, 44.8), (10.0, 60.0), (-20.0, 30.0)]:
            maps = compute_region_maps(camera, grid, layout, gaze)
            # Random band weights, exact 0 and 1 among them; the derived
            # ``weight_next`` the reference formula reads follows them.
            weight = rng.uniform(0.0, 1.0, maps.band_weight.shape)
            weight[::7] = 0.0
            weight[3::7] = 1.0
            maps = dataclasses.replace(maps, band_weight=weight)
            tile_ok = rng.random(grid.num_tiles) < 0.8
            for band in (
                packed._BlendBand.select(maps),  # multi-model selection
                packed._BlendBand.select(maps, tile_ok),  # foveated
            ):
                assert band.num_pixels
                branches |= set((maps.tile_level == band.lo_t)[band.tiles].tolist())
                # Renders overshoot [0, 1] on both sides, so the clip bites.
                layers = rng.uniform(-0.5, 1.5, (3, grid.height, grid.width, 3))
                primary = rng.integers(0, 3, grid.num_tiles)
                second = rng.integers(0, 3, grid.num_tiles)
                image = np.clip(layers[0], 0.0, 1.0)
                packed._assemble(image, layers, grid, primary)
                band.blend(maps, image, layers, primary, second)
                # The unclipped frame blended as ever, then one clip.
                want = np.empty_like(layers[0])
                for tile in range(grid.num_tiles):
                    x0, y0, x1, y1 = grid.tile_pixel_bounds(tile)
                    want[y0:y1, x0:x1] = layers[primary[tile], y0:y1, x0:x1]
                _reference_blend(band, maps, want, layers, primary, second, clip=False)
                np.clip(want, 0.0, 1.0, out=want)
                assert image.tobytes() == want.tobytes()
        assert branches == {True, False}

    def test_frames_equal_the_reference_formula(
        self, fmodel, train_cameras, monkeypatch
    ):
        camera = train_cameras[0]
        gazes = [None, (76.8, 44.8), (30.0, 50.0)]
        config = RenderConfig(backend="packed")
        levels = [fmodel.level_model(t) for t in range(1, fmodel.num_levels + 1)]

        def frames():
            return (
                [r.image for r in render_foveated_batch(fmodel, camera, gazes, config)]
                + [render_foveated(fmodel, camera, gazes[1], config).image]
                + [
                    render_multi_model(levels, fmodel.layout, camera, g, config).image
                    for g in gazes
                ]
            )

        got = frames()
        monkeypatch.setattr(packed._BlendBand, "blend", _reference_blend)
        want = frames()
        for a, b in zip(got, want, strict=True):
            assert a.tobytes() == b.tobytes()
