"""Accelerator: pipeline simulation, configs, area, energy, speedups."""

import dataclasses

import numpy as np
import pytest

from repro.accel import (
    GSCORE,
    METASAPIENS_BASE,
    METASAPIENS_TM,
    METASAPIENS_TM_IP,
    AcceleratorConfig,
    accelerator_energy,
    area_mm2,
    energy_reduction,
    geomean_speedup,
    reference_areas,
    run_accelerator,
    simulate_pipeline,
    stage_cycles,
)
from repro.perf import workload_from_render


@pytest.fixture(scope="module")
def frame(rendered):
    ints = rendered.stats.intersections_per_tile
    workload = workload_from_render(rendered)
    return ints, workload


class TestConfigs:
    def test_presets_distinct(self):
        assert not METASAPIENS_BASE.tile_merge
        assert METASAPIENS_TM.tile_merge and not METASAPIENS_TM.incremental_pipelining
        assert METASAPIENS_TM_IP.tile_merge and METASAPIENS_TM_IP.incremental_pipelining

    def test_gscore_resource_ratios(self):
        """Sec 7.5: ours has 4x the VRCs and half the sorting units."""
        assert METASAPIENS_BASE.num_vrc == 4 * GSCORE.num_vrc
        assert GSCORE.num_sort_units == 2 * METASAPIENS_BASE.num_sort_units

    def test_scaling_preserves_structure(self):
        scaled = METASAPIENS_TM_IP.scaled(2.0)
        assert scaled.num_vrc == pytest.approx(2 * METASAPIENS_TM_IP.num_vrc, rel=0.1)
        assert scaled.tile_merge and scaled.incremental_pipelining

    def test_scaling_never_drops_below_one(self):
        scaled = GSCORE.scaled(0.01)
        assert scaled.num_sort_units >= 1
        assert scaled.num_ccu >= 1

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            METASAPIENS_BASE.scaled(0.0)


class TestStageCycles:
    def test_raster_linear_in_intersections(self):
        proj, sort, raster = stage_cycles(
            np.array([100.0, 200.0]), np.array([1, 1]), METASAPIENS_BASE
        )
        assert raster[1] == pytest.approx(2 * raster[0] - 1, rel=0.02)

    def test_sort_superlinear(self):
        _, sort, _ = stage_cycles(
            np.array([64.0, 256.0]), np.array([1, 1]), METASAPIENS_BASE
        )
        assert sort[1] > 4 * sort[0]

    def test_fewer_vrcs_slower_raster(self):
        _, _, ours = stage_cycles(np.array([128.0]), np.array([1]), METASAPIENS_BASE)
        _, _, gscore = stage_cycles(np.array([128.0]), np.array([1]), GSCORE)
        assert gscore[0] > ours[0]


class TestPipelineSim:
    def test_empty_frame(self):
        result = simulate_pipeline(np.zeros(10), METASAPIENS_BASE)
        assert result.total_cycles == 0.0

    def test_makespan_at_least_busy_time(self, frame):
        ints, _ = frame
        result = simulate_pipeline(ints, METASAPIENS_BASE)
        assert result.total_cycles >= result.raster_busy_cycles
        assert 0.0 < result.raster_utilization <= 1.0

    def test_tile_merge_reduces_cycles_on_imbalanced_load(self):
        rng = np.random.default_rng(0)
        ints = rng.exponential(scale=50.0, size=300)
        base = simulate_pipeline(ints, METASAPIENS_BASE)
        merged = simulate_pipeline(ints, METASAPIENS_TM)
        assert merged.total_cycles <= base.total_cycles

    def test_incremental_pipelining_improves_further(self):
        rng = np.random.default_rng(1)
        ints = rng.exponential(scale=50.0, size=300)
        tm = simulate_pipeline(ints, METASAPIENS_TM)
        tm_ip = simulate_pipeline(ints, METASAPIENS_TM_IP)
        assert tm_ip.total_cycles < tm.total_cycles
        assert tm_ip.raster_utilization >= tm.raster_utilization

    def test_balanced_load_needs_no_help(self):
        ints = np.full(100, 64.0)
        base = simulate_pipeline(ints, METASAPIENS_BASE)
        tm = simulate_pipeline(ints, METASAPIENS_TM)
        # On perfectly balanced work the gain must be modest.
        assert tm.total_cycles > 0.8 * base.total_cycles

    def test_imbalance_hurts_utilization(self):
        """Fig 9/10: imbalanced per-tile work stalls the baseline pipe."""
        rng = np.random.default_rng(2)
        balanced = np.full(200, 50.0)
        imbalanced = rng.exponential(scale=50.0, size=200)
        u_bal = simulate_pipeline(balanced, METASAPIENS_BASE).raster_utilization
        u_imb = simulate_pipeline(imbalanced, METASAPIENS_BASE).raster_utilization
        assert u_imb < u_bal


class TestAcceleratorRuns:
    def test_speedup_over_gpu(self, frame):
        ints, workload = frame
        run = run_accelerator(ints, workload, METASAPIENS_BASE)
        assert run.speedup > 5.0  # an ASIC must beat the mobile GPU

    def test_tm_ip_fastest(self, frame):
        ints, workload = frame
        runs = {
            cfg.name: run_accelerator(ints, workload, cfg)
            for cfg in (METASAPIENS_BASE, METASAPIENS_TM, METASAPIENS_TM_IP)
        }
        assert runs["MetaSapiens-TM-IP"].speedup >= runs["MetaSapiens-Base"].speedup

    def test_gscore_slower_than_ours(self, frame):
        ints, workload = frame
        ours = run_accelerator(ints, workload, METASAPIENS_TM_IP)
        gscore = run_accelerator(ints, workload, GSCORE)
        assert ours.speedup > gscore.speedup

    def test_geomean(self, frame):
        ints, workload = frame
        run = run_accelerator(ints, workload, METASAPIENS_BASE)
        assert geomean_speedup([run, run]) == pytest.approx(run.speedup)
        with pytest.raises(ValueError):
            geomean_speedup([])


class TestArea:
    def test_reference_areas_match_paper(self):
        areas = reference_areas()
        assert areas["MetaSapiens"] == pytest.approx(2.73, rel=0.15)
        assert areas["GSCore"] == pytest.approx(1.45, rel=0.25)

    def test_ours_larger_than_gscore(self):
        areas = reference_areas()
        assert areas["MetaSapiens"] > areas["GSCore"]

    def test_area_grows_with_scale(self):
        assert area_mm2(METASAPIENS_TM_IP.scaled(2.0)) > area_mm2(METASAPIENS_TM_IP)

    def test_line_buffers_cheaper_than_double_buffers(self):
        ip = METASAPIENS_TM_IP
        no_ip = dataclasses.replace(ip, incremental_pipelining=False)
        from repro.accel import sram_kb

        assert sram_kb(ip) < sram_kb(no_ip)


class TestEnergy:
    def test_breakdown_positive(self, frame):
        _, workload = frame
        energy = accelerator_energy(workload, METASAPIENS_BASE)
        assert energy.compute_mj > 0
        assert energy.sram_mj > 0
        assert energy.dram_mj > 0
        assert energy.total_mj == pytest.approx(
            energy.compute_mj + energy.sram_mj + energy.dram_mj
        )

    def test_reduction_in_paper_band(self, frame):
        """Sec 7.3: ~54x (base) and ~57x (TM+IP) energy reduction vs GPU."""
        _, workload = frame
        base = energy_reduction(workload, METASAPIENS_BASE)
        tm_ip = energy_reduction(workload, METASAPIENS_TM_IP)
        assert 25.0 < base < 120.0
        assert tm_ip > base  # line buffers save SRAM energy

    def test_ip_saves_sram_energy(self, frame):
        _, workload = frame
        e_base = accelerator_energy(workload, METASAPIENS_BASE)
        e_ip = accelerator_energy(workload, METASAPIENS_TM_IP)
        assert e_ip.sram_mj < e_base.sram_mj
        assert e_ip.compute_mj == pytest.approx(e_base.compute_mj)


class TestSpansToTileCounts:
    """The span → accelerator-workload adapter (real per-row fragment counts)."""

    @pytest.fixture(scope="class")
    def spans(self):
        from repro.splat import prepare_view, random_model
        from repro.splat.backends import build_row_spans, build_segments
        from repro.splat import Camera

        model = random_model(300, np.random.default_rng(3), extent=2.0)
        cam = Camera.from_fov(
            width=96, height=64, fov_x_deg=60.0,
            position=np.array([0.0, 0.0, -4.0]), look_at=np.zeros(3),
        )
        projected, assignment = prepare_view(model, cam)
        spans = build_row_spans(projected, build_segments(assignment))
        assert spans.num_spans > 0
        return assignment, spans

    def test_span_units_total(self, spans):
        from repro.accel import spans_to_tile_counts

        assignment, sp = spans
        counts = spans_to_tile_counts(sp, units="spans")
        assert counts.shape == (assignment.grid.num_tiles,)
        assert counts.sum() == sp.num_spans
        # Tiles without any span carry zero work.
        assert np.all(counts[np.setdiff1d(
            np.arange(assignment.grid.num_tiles), np.unique(sp.span_tile)
        )] == 0)

    def test_intersection_units_bounded_by_synthetic(self, spans):
        from repro.accel import spans_to_tile_counts

        assignment, sp = spans
        real = spans_to_tile_counts(sp, units="intersections")
        synthetic = assignment.intersections_per_tile().astype(np.float64)
        # Real rasterized area never exceeds charging every intersection a
        # full tile, per tile and in total.
        assert np.all(real <= synthetic + 1e-12)
        assert 0.0 < real.sum() <= synthetic.sum()

    def test_unknown_units_rejected(self, spans):
        from repro.accel import spans_to_tile_counts

        _, sp = spans
        with pytest.raises(ValueError, match="unknown units"):
            spans_to_tile_counts(sp, units="flops")

    def test_drives_pipeline_sim(self, spans):
        from repro.accel import METASAPIENS_TM_IP, simulate_pipeline, spans_to_tile_counts

        _, sp = spans
        result = simulate_pipeline(
            spans_to_tile_counts(sp, units="intersections"), METASAPIENS_TM_IP
        )
        assert result.total_cycles > 0
        assert result.num_scheduled_tiles > 0


class TestSpanDrivenSorting:
    """The sorting stage priced from span group lengths (real fragment lists)."""

    @pytest.fixture(scope="class")
    def spans(self):
        from repro.splat import Camera, prepare_view, random_model
        from repro.splat.backends import build_row_spans, build_segments

        model = random_model(300, np.random.default_rng(3), extent=2.0)
        cam = Camera.from_fov(
            width=96, height=64, fov_x_deg=60.0,
            position=np.array([0.0, 0.0, -4.0]), look_at=np.zeros(3),
        )
        projected, assignment = prepare_view(model, cam)
        return build_row_spans(projected, build_segments(assignment))

    def test_sort_work_matches_naive_group_loop(self, spans):
        from repro.accel import spans_to_sort_work

        work = spans_to_sort_work(spans)
        naive = np.zeros(spans.seg.grid.num_tiles)
        for tile, length in zip(spans.group_tile, spans.groups.lens):
            n = float(length)
            naive[tile] += n * np.ceil(np.log2(max(n, 2.0)))
        assert np.allclose(work, naive)
        assert work.sum() > 0

    def test_stage_cycles_sort_override(self):
        work = np.array([64.0, 640.0])
        counts = np.array([100.0, 200.0])
        _, sort_default, raster_default = stage_cycles(
            counts, np.array([1, 1]), METASAPIENS_BASE
        )
        proj, sort, raster = stage_cycles(
            counts, np.array([1, 1]), METASAPIENS_BASE, sort_work=work
        )
        # Only sorting is repriced; its cycles follow the supplied workload.
        assert np.array_equal(raster, raster_default)
        assert sort[1] == pytest.approx(10 * sort[0])
        assert not np.array_equal(sort, sort_default)

    def test_simulate_pipeline_sort_work(self, spans):
        from repro.accel import spans_to_sort_work, spans_to_tile_counts

        ints = spans_to_tile_counts(spans, units="intersections")
        work = spans_to_sort_work(spans)
        default = simulate_pipeline(ints, METASAPIENS_TM_IP)
        driven = simulate_pipeline(
            ints, METASAPIENS_TM_IP, sort_work_per_tile=work
        )
        assert driven.total_cycles > 0
        assert driven.raster_busy_cycles == default.raster_busy_cycles
        assert driven.sort_busy_cycles != default.sort_busy_cycles

    def test_sort_work_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="align"):
            simulate_pipeline(
                np.ones(4), METASAPIENS_BASE, sort_work_per_tile=np.ones(3)
            )

    def test_run_accelerator_passthrough(self, spans, frame):
        from repro.accel import spans_to_sort_work, spans_to_tile_counts

        _, workload = frame
        ints = spans_to_tile_counts(spans, units="intersections")
        run = run_accelerator(
            ints, workload, METASAPIENS_TM_IP,
            sort_work_per_tile=spans_to_sort_work(spans),
        )
        assert run.speedup > 0
        assert run.pipeline.sort_busy_cycles > 0


class TestFoveatedSpanWorkloads:
    """Per-level filtered span work from the real foveated frame drives the sim."""

    @pytest.fixture(scope="class")
    def fr_result(self):
        from repro.foveation import render_foveated, uniform_foveated_model
        from repro.harness import EVAL_LEVEL_FRACTIONS, EVAL_REGION_LAYOUT
        from repro.scenes import generate_scene, trace_cameras
        from repro.splat import RenderConfig

        scene = generate_scene("kitchen", n_points=250)
        train, _ = trace_cameras("kitchen", n_train=1, n_eval=1, width=96, height=64)
        fmodel = uniform_foveated_model(
            scene, EVAL_REGION_LAYOUT, EVAL_LEVEL_FRACTIONS
        )
        return render_foveated(
            fmodel, train[0], config=RenderConfig(backend="packed")
        )

    def test_level_partition_and_bounds(self, fr_result):
        from repro.accel import foveated_sort_work, foveated_tile_counts

        counts = foveated_tile_counts(fr_result.level_spans)
        # Levels partition the tile grid: each tile's work comes from its
        # own level only, the frame's work is the sum of its levels', and
        # the filtered workload never exceeds charging every surviving
        # intersection a full tile.
        tile_level = fr_result.maps.tile_level
        for t, work in fr_result.level_spans.items():
            assert np.all(tile_level[np.flatnonzero(work.spans)] == t)
            assert np.all(tile_level[np.flatnonzero(work.sort_work)] == t)
        levels = fr_result.level_spans.values()
        assert np.array_equal(
            foveated_tile_counts(fr_result.level_spans, units="spans"),
            sum(w.spans for w in levels),
        )
        assert np.array_equal(
            foveated_sort_work(fr_result.level_spans), sum(w.sort_work for w in levels)
        )
        assert 0 < counts.sum() <= (
            fr_result.stats.raster_intersections_per_tile.sum() + 1e-9
        )

    def test_drives_pipeline_sim(self, fr_result):
        from repro.accel import foveated_sort_work, foveated_tile_counts

        result = simulate_pipeline(
            foveated_tile_counts(fr_result.level_spans),
            METASAPIENS_TM_IP,
            sort_work_per_tile=foveated_sort_work(fr_result.level_spans),
        )
        assert result.total_cycles > 0

    def test_empty_level_spans_rejected(self):
        from repro.accel import foveated_sort_work, foveated_tile_counts

        with pytest.raises(ValueError, match="level_spans"):
            foveated_tile_counts({})
        with pytest.raises(ValueError, match="level_spans"):
            foveated_sort_work({})
