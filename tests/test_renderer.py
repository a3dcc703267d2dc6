"""End-to-end renderer behaviour and configuration options."""

import numpy as np

from repro.splat import RenderConfig, prepare_view, render


class TestRender:
    def test_result_fields_consistent(self, rendered, small_scene):
        assert rendered.stats.num_points == small_scene.num_points
        assert rendered.stats.num_projected == rendered.projected.num_visible

    def test_tile_size_option(self, small_scene, train_cameras):
        r8 = render(small_scene, train_cameras[0], RenderConfig(tile_size=8))
        r16 = render(small_scene, train_cameras[0], RenderConfig(tile_size=16))
        assert r8.assignment.grid.num_tiles > r16.assignment.grid.num_tiles
        # Same scene, same view: images nearly identical across tile sizes.
        assert np.mean(np.abs(r8.image - r16.image)) < 1e-6

    def test_smoothing_changes_workload(self, small_scene, train_cameras):
        plain = render(small_scene, train_cameras[0])
        mip = render(small_scene, train_cameras[0], RenderConfig(smoothing_3d=2.0))
        assert mip.stats.total_intersections >= plain.stats.total_intersections

    def test_prepare_view_matches_render(self, small_scene, train_cameras):
        projected, assignment = prepare_view(small_scene, train_cameras[0])
        result = render(small_scene, train_cameras[0])
        assert projected.num_visible == result.projected.num_visible
        assert assignment.num_intersections == result.assignment.num_intersections

    def test_views_see_different_workloads(self, small_scene, train_cameras):
        ints = [
            render(small_scene, c).stats.total_intersections for c in train_cameras[:3]
        ]
        assert len(set(ints)) > 1
