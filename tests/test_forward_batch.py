"""Batched multi-view rendering: ``forward_batch`` / ``render_batch``.

The batched ``packed`` path must match per-view ``reference`` rendering
within 1e-10 on images and Val_i statistics — including batches that mix
frame sizes and contain zero-splat views — and a batch of size 1 must be
bit-identical to the unbatched forward pass.
"""

import numpy as np
import pytest

from repro.splat import (
    Camera,
    RenderConfig,
    ViewCache,
    get_backend,
    prepare_view,
    render,
    render_batch,
)
from repro.splat.rasterizer import rasterize_batch

TOL = 1e-10


@pytest.fixture(scope="module")
def mixed_cameras():
    """Three frame geometries plus one pose that sees no splats at all."""
    return [
        Camera.from_fov(
            width=96, height=64, fov_x_deg=70.0,
            position=np.array([0.0, -0.5, -3.0]), look_at=np.zeros(3),
        ),
        Camera.from_fov(
            width=48, height=80, fov_x_deg=60.0,
            position=np.array([2.0, -0.5, -2.5]), look_at=np.zeros(3),
        ),
        Camera.from_fov(  # looks away from every scene: zero projected splats
            width=64, height=64, fov_x_deg=70.0,
            position=np.array([0.0, 0.0, -500.0]),
            look_at=np.array([0.0, 0.0, -1000.0]),
        ),
        Camera.from_fov(
            width=80, height=48, fov_x_deg=80.0,
            position=np.array([-1.5, -1.0, -2.0]), look_at=np.zeros(3),
        ),
    ]


def _reference_per_view(model, cameras, **config_kwargs):
    config = RenderConfig(backend="reference", collect_stats=True, **config_kwargs)
    return [render(model, camera, config) for camera in cameras]


class TestBatchedEquivalence:
    def test_matches_reference_per_view(self, small_scene, mixed_cameras):
        batched = render_batch(
            small_scene, mixed_cameras,
            RenderConfig(backend="packed", collect_stats=True),
        )
        reference = _reference_per_view(small_scene, mixed_cameras)
        for ref, bat in zip(reference, batched):
            assert np.abs(ref.image - bat.image).max() < TOL
            assert bat.stats.dominated_pixels is not None
            assert np.array_equal(
                ref.stats.dominated_pixels, bat.stats.dominated_pixels
            )
            assert np.array_equal(
                ref.stats.tiles_per_point, bat.stats.tiles_per_point
            )
            assert np.array_equal(
                ref.stats.intersections_per_tile, bat.stats.intersections_per_tile
            )

    def test_mixed_view_sizes_shapes(self, small_scene, mixed_cameras):
        batched = render_batch(small_scene, mixed_cameras)
        for camera, result in zip(mixed_cameras, batched):
            assert result.image.shape == (camera.height, camera.width, 3)

    def test_zero_splat_view_is_background(self, small_scene, mixed_cameras):
        background = (0.2, 0.4, 0.6)
        batched = render_batch(
            small_scene, mixed_cameras,
            RenderConfig(background=background, collect_stats=True),
        )
        empty = batched[2]
        assert empty.projected.num_visible == 0
        assert np.allclose(empty.image, np.asarray(background))
        assert empty.stats.dominated_pixels is not None
        assert empty.stats.dominated_pixels.sum() == 0

    def test_all_views_empty(self, small_scene, mixed_cameras):
        batched = render_batch(
            small_scene, [mixed_cameras[2]] * 3, RenderConfig(collect_stats=True)
        )
        for result in batched:
            assert np.all(result.image == 0.0)
            assert result.stats.dominated_pixels is not None
            assert result.stats.dominated_pixels.sum() == 0

    def test_per_pixel_sort_matches_reference(self, small_scene, mixed_cameras):
        batched = render_batch(
            small_scene,
            mixed_cameras,
            RenderConfig(backend="packed", per_pixel_sort=True, collect_stats=True),
        )
        reference = _reference_per_view(small_scene, mixed_cameras, per_pixel_sort=True)
        for ref, bat in zip(reference, batched):
            assert np.abs(ref.image - bat.image).max() < TOL
            assert bat.stats.dominated_pixels is not None
            assert np.array_equal(
                ref.stats.dominated_pixels, bat.stats.dominated_pixels
            )


class TestBatchSize:
    def test_batch_size_one_is_bitwise_unbatched(self, small_scene, mixed_cameras):
        config = RenderConfig(backend="packed", collect_stats=True)
        batched = render_batch(small_scene, mixed_cameras, config, batch_size=1)
        solo = [render(small_scene, camera, config) for camera in mixed_cameras]
        for one, ref in zip(batched, solo):
            assert np.array_equal(one.image, ref.image)
            assert one.stats.dominated_pixels is not None
            assert np.array_equal(
                one.stats.dominated_pixels, ref.stats.dominated_pixels
            )

    def test_chunking_matches_full_batch(self, small_scene, mixed_cameras):
        full = render_batch(small_scene, mixed_cameras)
        pairs = render_batch(small_scene, mixed_cameras, batch_size=2)
        for a, b in zip(full, pairs):
            assert np.abs(a.image - b.image).max() < TOL

    def test_invalid_batch_size_rejected(self, small_scene, mixed_cameras):
        with pytest.raises(ValueError):
            render_batch(small_scene, mixed_cameras, batch_size=0)

    def test_empty_camera_list(self, small_scene):
        assert render_batch(small_scene, []) == []


class TestBackendLayer:
    def test_reference_forward_batch_loops(self, small_scene, mixed_cameras):
        views = [tuple(prepare_view(small_scene, c)) for c in mixed_cameras]
        batched = rasterize_batch(
            views, num_points=small_scene.num_points, collect_stats=True,
            backend="reference",
        )
        engine = get_backend("reference")
        for (projected, assignment), (image, stats) in zip(views, batched):
            solo_img, solo_dom = engine.forward(
                projected, assignment, small_scene.num_points, np.zeros(3),
                True, False,
            )
            assert np.array_equal(image, np.clip(solo_img, 0.0, 1.0))
            assert stats.dominated_pixels is not None
            assert np.array_equal(stats.dominated_pixels, solo_dom)

    def test_mixed_tile_sizes_rejected(self, small_scene, mixed_cameras):
        v16 = prepare_view(small_scene, mixed_cameras[0], RenderConfig(tile_size=16))
        v8 = prepare_view(small_scene, mixed_cameras[1], RenderConfig(tile_size=8))
        with pytest.raises(ValueError):
            rasterize_batch(
                [tuple(v16), tuple(v8)], num_points=small_scene.num_points,
                backend="packed",
            )

    def test_collect_stats_off(self, small_scene, mixed_cameras):
        # Only Val_i is gated: the cheap tile counts are always there.
        results = render_batch(
            small_scene, mixed_cameras, RenderConfig(collect_stats=False)
        )
        for camera, r in zip(mixed_cameras, results):
            assert r.stats.dominated_pixels is None
            assert r.stats.num_projected == r.projected.num_visible
            assert np.array_equal(
                r.stats.intersections_per_tile,
                r.assignment.intersections_per_tile(),
            )
            assert r.stats.tiles_per_point.shape == (small_scene.num_points,)


class TestViewCache:
    def test_cache_hits_on_repeat(self, small_scene, mixed_cameras):
        cache = ViewCache()
        render_batch(small_scene, mixed_cameras, cache=cache)
        assert cache.hits == 0
        assert cache.misses == len(mixed_cameras)
        render_batch(small_scene, mixed_cameras, cache=cache)
        assert cache.hits == len(mixed_cameras)
        assert cache.misses == len(mixed_cameras)

    def test_cached_results_identical(self, small_scene, mixed_cameras):
        cache = ViewCache()
        first = render_batch(small_scene, mixed_cameras, cache=cache)
        second = render_batch(small_scene, mixed_cameras, cache=cache)
        for a, b in zip(first, second):
            assert np.array_equal(a.image, b.image)
            assert a.projected is b.projected  # the prepared view was shared

    def test_model_mutation_invalidates(self, small_scene, mixed_cameras):
        cache = ViewCache()
        model = small_scene.copy()
        cache.get(model, mixed_cameras[0])
        model.positions[:] += 0.25
        cache.get(model, mixed_cameras[0])
        assert cache.misses == 2
        assert cache.hits == 0

    def test_prepared_view_skips_prefix_in_render(self, small_scene, mixed_cameras):
        cache = ViewCache()
        prepared = cache.get(small_scene, mixed_cameras[0])
        via_prepared = render(small_scene, mixed_cameras[0], prepared=prepared)
        direct = render(small_scene, mixed_cameras[0])
        assert np.array_equal(via_prepared.image, direct.image)
        assert via_prepared.projected is prepared.projected


class TestViewCacheEviction:
    """LRU behaviour under ``maxsize`` pressure and counter correctness."""

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            ViewCache(maxsize=0)

    def test_size_never_exceeds_maxsize(self, small_scene, mixed_cameras):
        cache = ViewCache(maxsize=2)
        cache.get_batch(small_scene, mixed_cameras)  # 4 poses through size 2
        assert len(cache) == 2
        assert cache.misses == len(mixed_cameras)
        assert cache.hits == 0

    def test_fifo_pressure_evicts_oldest(self, small_scene, mixed_cameras):
        cache = ViewCache(maxsize=2)
        a, b, c = mixed_cameras[:3]
        cache.get(small_scene, a)
        cache.get(small_scene, b)
        cache.get(small_scene, c)  # evicts a (oldest, never re-used)
        assert len(cache) == 2
        cache.get(small_scene, b)
        cache.get(small_scene, c)
        assert cache.hits == 2  # b and c survived
        cache.get(small_scene, a)
        assert cache.misses == 4  # a was evicted and re-prepared

    def test_lru_hit_refreshes_recency(self, small_scene, mixed_cameras):
        cache = ViewCache(maxsize=2)
        a, b, c = mixed_cameras[:3]
        cache.get(small_scene, a)
        cache.get(small_scene, b)
        cache.get(small_scene, a)  # refresh a: b becomes the LRU entry
        cache.get(small_scene, c)  # evicts b, not a
        assert cache.hits == 1
        cache.get(small_scene, a)
        assert cache.hits == 2  # a survived the eviction
        cache.get(small_scene, b)
        assert cache.misses == 4  # b did not

    def test_hit_returns_same_prepared_view_across_evictions(
        self, small_scene, mixed_cameras
    ):
        cache = ViewCache(maxsize=2)
        a, b, c = mixed_cameras[:3]
        first = cache.get(small_scene, a)
        cache.get(small_scene, b)
        assert cache.get(small_scene, a) is first  # refreshed, same object
        cache.get(small_scene, c)  # evicts b
        assert cache.get(small_scene, a) is first  # still resident
        assert cache.get(small_scene, b) is not first

    def test_counters_across_repeated_pressure(self, small_scene, mixed_cameras):
        cache = ViewCache(maxsize=2)
        for _ in range(3):
            cache.get_batch(small_scene, mixed_cameras)  # 4 poses, size 2
        # Every pass misses all four poses: each batch pushes the previous
        # entries out before they can be re-used (classic cycling).
        assert cache.misses == 12
        assert cache.hits == 0
        assert len(cache) == 2
