"""Rasterization: compositing math, early termination, statistics."""

import numpy as np
import pytest

from repro.splat.gaussians import GaussianModel
from repro.splat.rasterizer import (
    TRANSMITTANCE_EPS,
    composite,
    rasterize,
    splat_alphas,
    tile_pixel_centers,
)
from repro.splat.renderer import RenderConfig, prepare_view, render


class TestComposite:
    def test_matches_manual_volume_rendering(self):
        # Three splats over two pixels, hand-computed Eqn 1a.
        alphas = np.array([[0.5, 0.2], [0.25, 0.0], [0.9, 0.4]])
        colors = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
        bg = np.zeros(3)
        out, weights, final_t = composite(alphas, colors, bg)
        for p in range(2):
            t = 1.0
            expected = np.zeros(3)
            for i in range(3):
                expected += t * alphas[i, p] * colors[i]
                t *= 1.0 - alphas[i, p]
            assert np.allclose(out[p], expected)
            assert final_t[p] == pytest.approx(t)

    def test_weights_sum_at_most_one(self):
        rng = np.random.default_rng(0)
        alphas = rng.uniform(0, 0.9, size=(30, 17))
        colors = rng.uniform(size=(30, 3))
        _, weights, final_t = composite(alphas, colors, np.zeros(3))
        totals = weights.sum(axis=0) + final_t
        assert np.all(totals <= 1.0 + 1e-9)

    def test_empty_splats_return_background(self):
        bg = np.array([0.3, 0.6, 0.9])
        out, weights, final_t = composite(np.zeros((0, 5)), np.zeros((0, 3)), bg)
        assert np.allclose(out, bg)
        assert np.allclose(final_t, 1.0)

    def test_opaque_front_splat_hides_rest(self):
        alphas = np.array([[0.999], [0.8]])
        colors = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        out, weights, _ = composite(alphas, colors, np.zeros(3))
        assert out[0, 0] > 0.99
        assert out[0, 1] < 0.01

    def test_early_termination_zeroes_tail(self):
        # 10 near-opaque splats: transmittance dies after the first few.
        alphas = np.full((10, 1), 0.99)
        colors = np.ones((10, 3))
        _, weights, final_t = composite(alphas, colors, np.zeros(3))
        # Find the first splat whose incoming transmittance fell below eps.
        t = np.cumprod(1.0 - alphas[:, 0])
        dead = np.nonzero(t < TRANSMITTANCE_EPS)[0]
        assert dead.size > 0
        assert np.all(weights[dead[0] + 1 :, 0] == 0.0)
        assert final_t[0] == 0.0


class TestSplatAlphas:
    def test_alpha_peaks_at_center(self, prepared_view):
        projected, assignment = prepared_view
        tile_id = int(np.argmax(assignment.intersections_per_tile()))
        idx = assignment.splats_in_tile(tile_id)[:8]
        centers = projected.means2d[idx]
        alphas, quad = splat_alphas(projected, idx, centers)
        # Each splat's alpha at its own centre equals its opacity.
        own = np.diag(alphas[:, : idx.size])
        mask = own > 0  # unless below the 1/255 cut
        assert np.allclose(own[mask], projected.opacities[idx][mask], atol=1e-9)

    def test_quad_nonnegative(self, prepared_view):
        projected, assignment = prepared_view
        tile_id = int(np.argmax(assignment.intersections_per_tile()))
        idx = assignment.splats_in_tile(tile_id)
        pixels = tile_pixel_centers(assignment.grid, tile_id)
        _, quad = splat_alphas(projected, idx, pixels)
        assert np.all(quad >= 0)

    def test_small_alphas_zeroed(self, prepared_view):
        projected, assignment = prepared_view
        tile_id = int(np.argmax(assignment.intersections_per_tile()))
        idx = assignment.splats_in_tile(tile_id)
        pixels = tile_pixel_centers(assignment.grid, tile_id)
        alphas, _ = splat_alphas(projected, idx, pixels)
        nonzero = alphas[alphas > 0]
        assert nonzero.size == 0 or nonzero.min() >= 1.0 / 255.0


class TestRasterize:
    def test_image_shape_and_range(self, rendered):
        image = rendered.image
        assert image.ndim == 3 and image.shape[2] == 3
        assert image.min() >= 0.0 and image.max() <= 1.0

    def test_background_fills_empty_regions(self, front_camera):
        model = GaussianModel(
            positions=np.array([[0.0, 0.0, 0.0]]),
            log_scales=np.log(np.full((1, 3), 0.05)),
            rotations=np.array([[1.0, 0, 0, 0]]),
            opacity_logits=np.array([3.0]),
            sh=np.zeros((1, 1, 3)),
        )
        config = RenderConfig(background=(0.25, 0.5, 0.75))
        result = render(model, front_camera, config)
        corner = result.image[0, 0]
        assert np.allclose(corner, [0.25, 0.5, 0.75], atol=1e-6)

    def test_stats_dominated_pixels_bounded(self, small_scene, train_cameras):
        result = render(small_scene, train_cameras[0], RenderConfig(collect_stats=True))
        stats = result.stats
        n_pixels = result.image.shape[0] * result.image.shape[1]
        assert stats.dominated_pixels is not None
        assert stats.dominated_pixels.sum() <= n_pixels
        assert np.all(stats.dominated_pixels >= 0)

    def test_stats_tiles_per_point_matches_assignment(self, rendered):
        stats = rendered.stats
        assert stats.tiles_per_point.sum() == rendered.assignment.num_intersections

    def test_collect_stats_off(self, small_scene, train_cameras):
        # Only Val_i is gated: the cheap counts are always filled.
        result = render(small_scene, train_cameras[0], RenderConfig(collect_stats=False))
        stats = result.stats
        assert stats.dominated_pixels is None
        assert stats.num_projected == result.projected.num_visible
        assert stats.tiles_per_point.sum() == result.assignment.num_intersections
        assert np.array_equal(
            stats.intersections_per_tile, result.assignment.intersections_per_tile()
        )

    def test_deterministic(self, small_scene, train_cameras):
        a = render(small_scene, train_cameras[0]).image
        b = render(small_scene, train_cameras[0]).image
        assert np.array_equal(a, b)


class TestEarlyTerminationTransmittance:
    """Regression for the collapsed ``final_trans`` expression: pixels whose
    transmittance crossed the early-termination threshold contribute nothing
    to the background; pixels that never crossed keep the full product."""

    def test_terminated_pixel_zero_surviving_pixel_product(self):
        # Column 0 terminates (near-opaque stack); column 1 stays alive.
        alphas = np.column_stack([np.full(10, 0.99), np.full(10, 0.05)])
        colors = np.zeros((10, 3))
        _, _, final_t = composite(alphas, colors, np.ones(3))
        assert final_t[0] == 0.0
        assert final_t[1] == pytest.approx((1.0 - 0.05) ** 10)

    def test_terminated_pixel_ignores_background(self):
        alphas = np.full((10, 1), 0.99)
        colors = np.zeros((10, 3))
        out, _, final_t = composite(alphas, colors, np.ones(3))
        # Leftover transmittance below the threshold is treated as zero, so
        # the (white) background must not leak into the (black) pixel.
        assert final_t[0] == 0.0
        assert np.all(out[0] < 0.2)

    def test_alive_pixel_final_trans_is_running_product(self):
        rng = np.random.default_rng(3)
        alphas = rng.uniform(0.0, 0.2, size=(12, 9))
        _, _, final_t = composite(alphas, np.zeros((12, 3)), np.zeros(3))
        assert np.allclose(final_t, np.prod(1.0 - alphas, axis=0))


class TestPerPixelSort:
    def test_runs_and_close_to_global_sort(self, small_scene, train_cameras):
        plain = render(small_scene, train_cameras[0]).image
        stp = render(small_scene, train_cameras[0], RenderConfig(per_pixel_sort=True)).image
        # Ordering differences only affect overlapping splats; images agree
        # closely but not necessarily exactly.
        assert np.mean(np.abs(plain - stp)) < 0.05

    def test_vectorized_matches_per_column_loop(self, small_scene, train_cameras):
        """The take_along_axis compositing must reproduce the old per-pixel
        Python loop (composite one column at a time with its own colour
        ordering) on a real view."""
        from repro.splat.rasterizer import _per_pixel_reorder, composite_per_pixel

        projected, assignment = prepare_view(small_scene, train_cameras[0])
        grid = assignment.grid
        background = np.array([0.1, 0.2, 0.3])
        tiles = np.argsort(-assignment.intersections_per_tile())[:4]
        for tile_id in tiles:
            splat_idx = assignment.splats_in_tile(int(tile_id))
            if splat_idx.size == 0:
                continue
            pixels = tile_pixel_centers(grid, int(tile_id))
            alphas, _ = splat_alphas(projected, splat_idx, pixels)
            alphas, order = _per_pixel_reorder(projected, splat_idx, pixels, alphas)
            colors = projected.colors[splat_idx]

            # New vectorized path.
            pc_new, w_sorted, _ = composite_per_pixel(alphas, colors[order], background)
            w_new = np.zeros_like(w_sorted)
            np.put_along_axis(w_new, order, w_sorted, axis=0)

            # Old loop (the seed implementation), column by column.
            pc_old = np.empty((pixels.shape[0], 3))
            w_old = np.zeros((splat_idx.size, pixels.shape[0]))
            for p in range(pixels.shape[0]):
                col_alphas = alphas[:, p : p + 1]
                col_colors = colors[order[:, p]]
                pc, w, _ = composite(col_alphas, col_colors, background)
                pc_old[p] = pc[0]
                w_old[order[:, p], p] = w[:, 0]

            assert np.allclose(pc_new, pc_old, atol=1e-12)
            assert np.allclose(w_new, w_old, atol=1e-12)
