"""Mobile-GPU performance model: workload extraction and latency."""

import dataclasses

import numpy as np
import pytest

from repro.foveation import make_smfr, render_foveated, RegionLayout
from repro.perf import (
    DEFAULT_GPU,
    FrameWorkload,
    GPUModel,
    mean_workload,
    workload_from_fr,
    workload_from_render,
)
from repro.splat import RenderConfig, render


@pytest.fixture(scope="module")
def workload(rendered):
    return workload_from_render(rendered)


class TestWorkloadExtraction:
    def test_counts_match_stats(self, rendered, workload):
        stats = rendered.stats
        assert workload.num_projected == stats.num_projected
        assert workload.raster_splat_pixels == stats.total_intersections * 256

    def test_stats_required(self, small_scene, train_cameras):
        # The tile counts the workload reads come with every render, Val_i
        # or not.
        result = render(small_scene, train_cameras[0], RenderConfig(collect_stats=False))
        with_val = render(small_scene, train_cameras[0], RenderConfig(collect_stats=True))
        assert workload_from_render(result) == workload_from_render(with_val)

    def test_per_pixel_sort_flag_propagates(self, small_scene, train_cameras):
        config = RenderConfig(per_pixel_sort=True)
        result = render(small_scene, train_cameras[0], config)
        workload = workload_from_render(result, config)
        assert workload.per_pixel_sort

    def test_fr_extraction(self, small_scene, train_cameras):
        layout = RegionLayout(boundaries_deg=(0.0, 12.0, 20.0, 28.0))
        fm = make_smfr(small_scene, layout)
        fr = render_foveated(fm, train_cameras[0])
        workload = workload_from_fr(fr.stats)
        assert workload.projection_runs == 1
        assert workload.blend_pixels == fr.stats.blend_pixels

    def test_mean_workload(self, workload):
        doubled = dataclasses.replace(
            workload, raster_splat_pixels=workload.raster_splat_pixels * 3
        )
        mean = mean_workload([workload, doubled])
        assert mean.raster_splat_pixels == pytest.approx(
            2 * workload.raster_splat_pixels
        )

    def test_mean_workload_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_workload([])


class TestGPUModel:
    def test_latency_positive_and_additive(self, workload):
        gpu = DEFAULT_GPU
        assert gpu.latency_ms(workload) > gpu.base_ms

    def test_fps_inverse_of_latency(self, workload):
        gpu = DEFAULT_GPU
        assert gpu.fps(workload) == pytest.approx(1000.0 / gpu.latency_ms(workload))

    def test_raster_dominates_dense_frames(self, workload):
        """Fig 4's structural claim: intersections drive latency."""
        gpu = DEFAULT_GPU
        base = gpu.latency_ms(workload)
        more_raster = dataclasses.replace(
            workload, raster_splat_pixels=workload.raster_splat_pixels * 2
        )
        more_points = dataclasses.replace(
            workload, num_projected=workload.num_projected * 2
        )
        raster_delta = gpu.latency_ms(more_raster) - base
        points_delta = gpu.latency_ms(more_points) - base
        assert raster_delta > 5 * points_delta

    def test_per_pixel_sort_costs_more(self, workload):
        stp = dataclasses.replace(workload, per_pixel_sort=True)
        assert DEFAULT_GPU.latency_ms(stp) > DEFAULT_GPU.latency_ms(workload)

    def test_mmfr_projection_runs_cost(self, workload):
        mmfr = dataclasses.replace(workload, projection_runs=4)
        assert DEFAULT_GPU.latency_ms(mmfr) > DEFAULT_GPU.latency_ms(workload)

    def test_dense_model_below_realtime(self, small_scene, train_cameras):
        """Calibration: a dense render at evaluation scale lands in the
        paper's <10 FPS band for dense PBNR on the mobile GPU."""
        from repro.baselines import make_3dgs

        dense = make_3dgs(small_scene)
        result = render(dense.model, train_cameras[0])
        fps = DEFAULT_GPU.fps(workload_from_render(result))
        assert fps < 30.0

    def test_energy_tracks_latency(self, workload):
        gpu = GPUModel(power_w=10.0)
        assert gpu.energy_mj(workload) == pytest.approx(10.0 * gpu.latency_ms(workload))
