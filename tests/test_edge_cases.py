"""Edge cases and failure injection across the whole pipeline."""

import numpy as np
import pytest

from repro.accel import METASAPIENS_BASE, METASAPIENS_TM_IP, simulate_pipeline
from repro.foveation import (
    FoveatedModel,
    RegionLayout,
    render_foveated,
    uniform_foveated_model,
)
from repro.perf import DEFAULT_GPU, FrameWorkload
from repro.splat import Camera, GaussianModel, RenderConfig, random_model, render
from repro.splat.tiling import TileGrid, assign_tiles
from repro.splat.projection import project_gaussians


def single_point_model():
    return GaussianModel(
        positions=np.array([[0.0, 0.0, 0.0]]),
        log_scales=np.log(np.full((1, 3), 0.2)),
        rotations=np.array([[1.0, 0, 0, 0]]),
        opacity_logits=np.array([2.0]),
        sh=np.zeros((1, 1, 3)),
    )


class TestDegenerateModels:
    def test_single_point_full_pipeline(self, front_camera):
        result = render(single_point_model(), front_camera)
        assert result.stats.num_projected == 1
        assert result.image.max() > 0.0

    def test_all_transparent_model(self, front_camera):
        model = single_point_model()
        model.opacity_logits[:] = -20.0  # alpha below the 1/255 cut
        result = render(model, front_camera, RenderConfig(collect_stats=True))
        # The splat never passes the intersect test; background everywhere.
        assert np.allclose(result.image, 0.0)
        assert result.stats.dominated_pixels is not None
        assert result.stats.dominated_pixels.sum() == 0

    def test_fully_occluded_scene(self, front_camera):
        # A wall in front of everything: the points behind get no Val.
        wall = single_point_model()
        wall.log_scales[:] = np.log(5.0)
        wall.opacity_logits[:] = 10.0
        wall.positions[0, 2] = -2.0
        behind = random_model(20, np.random.default_rng(0), extent=1.0, sh_degree=0)
        model = GaussianModel.concatenate([wall, behind])
        result = render(model, front_camera, RenderConfig(collect_stats=True))
        assert result.stats.dominated_pixels is not None
        assert result.stats.dominated_pixels[0] > 0
        assert result.stats.dominated_pixels[1:].sum() == 0

    def test_degenerate_scale_handled(self, front_camera):
        model = single_point_model()
        model.log_scales[:] = np.log(1e-9)  # needle-thin splat
        result = render(model, front_camera)
        assert np.all(np.isfinite(result.image))


class TestExtremeCameras:
    def test_tiny_image(self):
        cam = Camera.from_fov(8, 8, 60.0, np.array([0.0, 0.0, -3.0]), np.zeros(3))
        result = render(single_point_model(), cam)
        assert result.image.shape == (8, 8, 3)

    def test_non_tile_multiple_image(self):
        cam = Camera.from_fov(70, 45, 60.0, np.array([0.0, 0.0, -3.0]), np.zeros(3))
        result = render(single_point_model(), cam)
        assert result.image.shape == (45, 70, 3)

    def test_wide_fov(self):
        cam = Camera.from_fov(64, 48, 150.0, np.array([0.0, 0.0, -3.0]), np.zeros(3))
        ecc = cam.pixel_eccentricity()
        assert np.all(np.isfinite(ecc))
        assert ecc.max() > 60.0

    def test_anisotropic_focal(self):
        cam = Camera(
            width=64, height=48, fx=80.0, fy=40.0, cx=32.0, cy=24.0,
            world_to_cam_rotation=np.eye(3),
            world_to_cam_translation=np.array([0.0, 0.0, 4.0]),
        )
        projected = project_gaussians(single_point_model(), cam)
        assert projected.num_visible == 1


class TestFoveationEdges:
    def test_two_level_layout(self, small_scene, train_cameras):
        layout = RegionLayout(boundaries_deg=(0.0, 15.0), blend_band_deg=1.0)
        fm = uniform_foveated_model(small_scene, layout, (1.0, 0.3))
        result = render_foveated(fm, train_cameras[0])
        assert result.image.shape[2] == 3
        assert set(np.unique(result.stats.tile_levels)) <= {1, 2}

    def test_single_level_layout_is_plain_render(self, small_scene, train_cameras):
        layout = RegionLayout(boundaries_deg=(0.0,), blend_band_deg=0.0)
        fm = uniform_foveated_model(small_scene, layout, (1.0,))
        fr = render_foveated(fm, train_cameras[0])
        plain = render(small_scene, train_cameras[0])
        assert np.allclose(fr.image, plain.image, atol=1e-9)
        assert fr.stats.blend_pixels == 0

    def test_gaze_outside_image_clamps_gracefully(self, small_scene, train_cameras):
        layout = RegionLayout(boundaries_deg=(0.0, 12.0, 20.0, 28.0))
        fm = uniform_foveated_model(small_scene, layout)
        result = render_foveated(fm, train_cameras[0], gaze=(-50.0, 500.0))
        assert np.all(np.isfinite(result.image))

    def test_save_load_round_trip(self, small_scene, tmp_path):
        layout = RegionLayout(boundaries_deg=(0.0, 12.0, 20.0, 28.0))
        fm = uniform_foveated_model(small_scene, layout, (1.0, 0.5, 0.25, 0.1))
        fm.mv_opacity_logits[:, 2] += 0.5  # make versions non-trivial
        path = str(tmp_path / "fr.npz")
        fm.save(path)
        restored = FoveatedModel.load(path)
        assert np.array_equal(restored.quality_bounds, fm.quality_bounds)
        assert np.allclose(restored.mv_opacity_logits, fm.mv_opacity_logits, atol=1e-5)
        assert restored.layout.boundaries_deg == fm.layout.boundaries_deg
        assert restored.num_points == fm.num_points


class TestAccelEdges:
    def test_single_tile_frame(self):
        result = simulate_pipeline(np.array([500.0]), METASAPIENS_BASE)
        assert result.total_cycles > 0
        assert result.num_scheduled_tiles == 1

    def test_monster_tile_dominates(self):
        ints = np.array([10.0, 10.0, 100000.0, 10.0])
        base = simulate_pipeline(ints, METASAPIENS_BASE)
        # Makespan is driven by the monster tile's own work.
        assert base.total_cycles > 100000.0

    def test_ip_never_slower_than_baseline(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            ints = rng.exponential(scale=40.0, size=100)
            base = simulate_pipeline(ints, METASAPIENS_BASE)
            ip = simulate_pipeline(ints, METASAPIENS_TM_IP)
            assert ip.total_cycles <= base.total_cycles * 1.01


class TestPerfEdges:
    def test_zero_workload(self):
        workload = FrameWorkload(
            num_projected=0, projection_runs=1, sort_ops=0.0,
            raster_splat_pixels=0.0, blend_pixels=0,
        )
        assert DEFAULT_GPU.latency_ms(workload) == DEFAULT_GPU.base_ms
        assert DEFAULT_GPU.fps(workload) > 0


class TestTilingEdges:
    def test_splat_exactly_on_tile_border(self):
        cam = Camera.from_fov(64, 48, 60.0, np.array([0.0, 0.0, -3.0]), np.zeros(3))
        model = single_point_model()
        projected = project_gaussians(model, cam)
        # Force the centre onto the tile boundary at x = 16.
        projected.means2d[0] = [16.0, 16.0]
        grid = TileGrid(64, 48)
        assignment = assign_tiles(projected, grid)
        assert assignment.num_intersections >= 1

    def test_one_pixel_tiles(self):
        cam = Camera.from_fov(16, 12, 60.0, np.array([0.0, 0.0, -3.0]), np.zeros(3))
        projected = project_gaussians(single_point_model(), cam)
        grid = TileGrid(16, 12, tile_size=1)
        assignment = assign_tiles(projected, grid)
        assert assignment.grid.num_tiles == 16 * 12
        assert assignment.num_intersections > 0
