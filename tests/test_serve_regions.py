"""Gaze-region quantization properties and the FrameCache contract."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.foveation import FRRenderResult
from repro.serve import (
    FrameCache,
    GazeGridSpec,
    GazeRegionKey,
    foveated_model_fingerprint,
    gaze_polar,
    polar_gaze,
    quantize_gaze,
    region_bounds,
    region_center,
    ring_area_deg2,
    ring_edges,
    ring_width_deg,
)
from repro.serve.regions import MAX_GAZE_ECC_DEG, result_nbytes
from repro.splat import Camera

WIDTH, HEIGHT = 128, 96


@pytest.fixture(scope="module")
def camera():
    return Camera.from_fov(
        width=WIDTH,
        height=HEIGHT,
        fov_x_deg=70.0,
        position=np.array([0.0, 0.0, -3.0]),
        look_at=np.zeros(3),
    )


gaze_points = st.tuples(
    st.floats(0.0, WIDTH - 1.0, allow_nan=False),
    st.floats(0.0, HEIGHT - 1.0, allow_nan=False),
)


class TestPolarRoundTrip:
    @given(gaze=gaze_points)
    @settings(max_examples=80, deadline=None)
    def test_polar_gaze_inverts_gaze_polar(self, camera, gaze):
        ecc, angle = gaze_polar(camera, gaze)
        x, y = polar_gaze(camera, ecc, angle)
        assert abs(x - gaze[0]) < 1e-6 and abs(y - gaze[1]) < 1e-6

    def test_none_gaze_is_center(self, camera):
        assert gaze_polar(camera, None) == (0.0, 0.0)
        assert quantize_gaze(camera, None) == GazeRegionKey(ring=0, sector=0)
        center = quantize_gaze(camera, (camera.cx, camera.cy))
        assert center == GazeRegionKey(ring=0, sector=0)


class TestQuantizationProperties:
    @given(gaze=gaze_points)
    @settings(max_examples=100, deadline=None)
    def test_deterministic(self, camera, gaze):
        spec = GazeGridSpec()
        assert quantize_gaze(camera, gaze, spec) == quantize_gaze(
            camera, gaze, spec
        )

    @given(gaze=gaze_points, frac=st.floats(-0.35, 0.35))
    @settings(max_examples=100, deadline=None)
    def test_nearby_gazes_share_key(self, camera, gaze, frac):
        """Points near a cell's centre quantize to that cell.

        The guarantee behind cache hits: perturbing a gaze within its
        region (here, toward/past the centre by under half the cell extent
        in both polar coordinates) never changes the key.
        """
        spec = GazeGridSpec()
        key = quantize_gaze(camera, gaze, spec)
        ecc_lo, ecc_hi, ang_lo, ang_hi = region_bounds(spec, key)
        ecc_mid = 0.5 * (ecc_lo + ecc_hi)
        ang_mid = 0.5 * (ang_lo + ang_hi)
        probe = polar_gaze(
            camera,
            ecc_mid + frac * (ecc_hi - ecc_lo),
            ang_mid + frac * (ang_hi - ang_lo) if key.ring > 0 else ang_mid,
        )
        assert quantize_gaze(camera, probe, spec) == key

    @given(gaze=gaze_points)
    @settings(max_examples=100, deadline=None)
    def test_center_of_key_quantizes_back(self, camera, gaze):
        spec = GazeGridSpec()
        key = quantize_gaze(camera, gaze, spec)
        assert quantize_gaze(camera, region_center(camera, spec, key), spec) == key

    @given(gaze=gaze_points)
    @settings(max_examples=100, deadline=None)
    def test_key_within_grid(self, camera, gaze):
        spec = GazeGridSpec(n_sectors=7)
        key = quantize_gaze(camera, gaze, spec)
        assert key.ring >= 0
        assert 0 <= key.sector < spec.n_sectors
        ecc, _ = gaze_polar(camera, gaze)
        ecc_lo, ecc_hi, _, _ = region_bounds(spec, key)
        assert ecc_lo <= ecc < ecc_hi


class TestEccentricityGrowth:
    @given(
        ring=st.integers(0, 10),
        gain=st.floats(0.5, 4.0),
        sectors=st.integers(1, 32),
    )
    @settings(max_examples=60, deadline=None)
    def test_ring_width_grows_monotonically(self, ring, gain, sectors):
        """Cells get coarser toward the periphery, whatever the spec."""
        spec = GazeGridSpec(ring_gain=gain, n_sectors=sectors)
        # Steep gains reach MAX_GAZE_ECC_DEG in a handful of rings; clamp
        # the probe to the grid's last full ring pair.
        ring = min(ring, len(ring_edges(spec)) - 3)
        assert ring_width_deg(spec, ring + 1) > ring_width_deg(spec, ring)

    @given(ring=st.integers(0, 10), gain=st.floats(0.5, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_ring_area_grows_monotonically(self, ring, gain):
        spec = GazeGridSpec(ring_gain=gain)
        ring = min(ring, len(ring_edges(spec)) - 3)
        assert ring_area_deg2(spec, ring + 1) > ring_area_deg2(spec, ring)

    def test_out_of_grid_ring_rejected(self):
        spec = GazeGridSpec()
        with pytest.raises(ValueError, match="beyond"):
            ring_width_deg(spec, len(ring_edges(spec)))

    def test_region_center_round_trips_every_reachable_ring(self, camera):
        # Regression: the outermost ring's generated edge overshoots 90°;
        # its representative eccentricity must be clamped below the gaze
        # bound or the tangent-plane inverse lands on the opposite side of
        # the screen (and in a different ring).
        spec = GazeGridSpec()
        edges = ring_edges(spec)
        for ring in range(len(edges) - 1):
            if edges[ring] >= MAX_GAZE_ECC_DEG:
                break  # unreachable by quantize_gaze
            for sector in (0, spec.n_sectors // 2, spec.n_sectors - 1):
                key = GazeRegionKey(ring=ring, sector=0 if ring == 0 else sector)
                center = region_center(camera, spec, key)
                assert quantize_gaze(camera, center, spec) == key

    def test_ring_edges_cached_and_read_only(self):
        spec = GazeGridSpec()
        a = ring_edges(spec)
        assert ring_edges(spec) is a  # memoized per spec
        with pytest.raises(ValueError):
            a[0] = 1.0

    def test_edges_cover_visual_field(self):
        edges = ring_edges(GazeGridSpec())
        assert edges[0] == 0.0
        assert edges[-1] >= MAX_GAZE_ECC_DEG
        assert np.all(np.diff(edges) > 0)

    def test_ring_width_follows_pooling_falloff(self):
        # The grid inherits the HVS pooling-model falloff: ring width is
        # ring_gain × the pooling diameter at the ring's inner edge.
        spec = GazeGridSpec(ring_gain=2.0)
        edges = ring_edges(spec)
        for i in range(min(6, len(edges) - 1)):
            expected = spec.ring_gain * spec.pooling.diameter_deg(edges[i])
            assert np.isclose(edges[i + 1] - edges[i], expected)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="ring_gain"):
            GazeGridSpec(ring_gain=0.0)
        with pytest.raises(ValueError, match="n_sectors"):
            GazeGridSpec(n_sectors=0)


# ----------------------------------------------------------------------
# FrameCache
# ----------------------------------------------------------------------
def _fake_frame(px: int = 8) -> FRRenderResult:
    """A minimal cached value with a known byte footprint."""
    return FRRenderResult(
        image=np.zeros((px, px, 3)), stats=None, maps=None, level_spans=None
    )


class TestFrameCache:
    def test_miss_then_hit(self):
        cache = FrameCache(max_bytes=1 << 20)
        key = ("model", "camera", GazeRegionKey(0, 0), "config")
        assert cache.get(key) is None
        frame = _fake_frame()
        cache.put(key, frame)
        assert cache.get(key) is frame
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_peek_is_counter_neutral(self):
        cache = FrameCache(max_bytes=1 << 20)
        key = ("k",)
        assert cache.peek(key) is None
        cache.put(key, _fake_frame())
        assert cache.peek(key) is not None
        assert cache.hits == 0 and cache.misses == 0

    def test_byte_budget_evicts_lru(self):
        frame = _fake_frame(8)
        nbytes = result_nbytes(frame)
        cache = FrameCache(max_bytes=3 * nbytes)
        for i in range(3):
            cache.put((i,), _fake_frame(8))
        assert len(cache) == 3 and cache.evictions == 0
        # Touch key 0 so key 1 is the LRU entry, then overflow.
        assert cache.get((0,)) is not None
        cache.put((3,), _fake_frame(8))
        assert cache.evictions == 1
        assert cache.peek((1,)) is None  # the LRU entry went
        assert cache.peek((0,)) is not None
        assert cache.current_bytes == 3 * nbytes

    def test_shared_array_counts_once(self):
        # The shm transport stores an array referenced twice as one plane
        # (as it does a frame's ``stats.tile_levels`` and
        # ``maps.tile_level``); the cache charges it once too.
        shared = np.zeros(64)
        frame = FRRenderResult(
            image=np.zeros((8, 8, 3)), stats=shared, maps=shared, level_spans=None
        )
        assert result_nbytes(frame) == 8 * 8 * 3 * 8 + shared.nbytes
        assert result_nbytes([frame, frame]) == result_nbytes(frame)

    def test_oversized_frame_not_cached(self):
        frame = _fake_frame(64)
        cache = FrameCache(max_bytes=result_nbytes(frame) - 1)
        cache.put(("k",), frame)
        assert len(cache) == 0 and cache.current_bytes == 0

    def test_replacing_a_key_adjusts_bytes(self):
        cache = FrameCache(max_bytes=1 << 20)
        cache.put(("k",), _fake_frame(8))
        cache.put(("k",), _fake_frame(16))
        assert len(cache) == 1
        assert cache.current_bytes == result_nbytes(_fake_frame(16))

    def test_stats_snapshot(self):
        cache = FrameCache(max_bytes=1 << 20)
        cache.get(("missing",))
        cache.put(("k",), _fake_frame())
        cache.get(("k",))
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1 and stats["bytes"] > 0
        assert stats["hit_rate"] == 0.5

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError, match="max_bytes"):
            FrameCache(max_bytes=0)


class TestCacheKeys:
    def test_key_distinguishes_gaze_regions_not_nearby_gazes(self, camera):
        from repro.foveation import uniform_foveated_model
        from repro.harness import EVAL_LEVEL_FRACTIONS, EVAL_REGION_LAYOUT
        from repro.splat import random_model

        fmodel = uniform_foveated_model(
            random_model(30, np.random.default_rng(0)), EVAL_REGION_LAYOUT, EVAL_LEVEL_FRACTIONS
        )
        cache = FrameCache()
        spec = cache.spec
        near = quantize_gaze(camera, (30.0, 30.0), spec)
        center_gaze = region_center(camera, spec, near)
        assert cache.key(fmodel, camera, (30.0, 30.0)) == cache.key(
            fmodel, camera, center_gaze
        )
        # A gaze in a different ring must produce a different key.
        far_gaze = polar_gaze(
            camera, region_bounds(spec, near)[1] + 5.0, 0.0
        )
        assert cache.key(fmodel, camera, (30.0, 30.0)) != cache.key(
            fmodel, camera, far_gaze
        )

    def test_fingerprint_tracks_every_mutable_surface(self):
        from repro.foveation import uniform_foveated_model
        from repro.harness import EVAL_LEVEL_FRACTIONS, EVAL_REGION_LAYOUT
        from repro.splat import random_model

        fmodel = uniform_foveated_model(
            random_model(30, np.random.default_rng(0)), EVAL_REGION_LAYOUT, EVAL_LEVEL_FRACTIONS
        )
        fp = foveated_model_fingerprint(fmodel)
        assert fp == foveated_model_fingerprint(fmodel)
        fmodel.base.positions[0, 0] += 1.0
        fp_base = foveated_model_fingerprint(fmodel)
        assert fp_base != fp
        fmodel.mv_opacity_logits[0, 0] += 0.5
        assert foveated_model_fingerprint(fmodel) != fp_base

    def test_shared_helpers_with_view_cache(self):
        # The satellite contract: ViewCache and FrameCache build keys from
        # the same cachekey helpers, so fingerprint semantics cannot drift.
        import repro.serve.regions as serve_regions
        import repro.splat.renderer as renderer
        from repro.splat import cachekey

        assert renderer.model_fingerprint is cachekey.model_fingerprint
        assert renderer.camera_fingerprint is cachekey.camera_fingerprint
        assert serve_regions.model_fingerprint is cachekey.model_fingerprint
        assert serve_regions.camera_fingerprint is cachekey.camera_fingerprint
