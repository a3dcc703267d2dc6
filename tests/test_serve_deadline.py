"""Deadline scheduling, drop-or-degrade, gaze prefetch, and trace deadlines."""

import asyncio
import time

import numpy as np
import pytest

from repro.foveation import render_foveated, uniform_foveated_model
from repro.harness import EVAL_LEVEL_FRACTIONS, EVAL_REGION_LAYOUT
from repro.scenes import trace_cameras
from repro.serve import (
    FrameRequest,
    GazePredictor,
    PredictorConfig,
    ServeConfig,
    ServeLoop,
    WorkloadSpec,
    generate_serve_trace,
    quantize_gaze,
    region_center,
    replay_trace,
)
from repro.splat import random_model

WIDTH, HEIGHT = 64, 48


@pytest.fixture(scope="module")
def fmodel():
    return uniform_foveated_model(
        random_model(80, np.random.default_rng(3)),
        EVAL_REGION_LAYOUT,
        EVAL_LEVEL_FRACTIONS,
    )


@pytest.fixture(scope="module")
def cameras():
    _, evals = trace_cameras(
        "kitchen", n_train=4, n_eval=4, width=WIDTH, height=HEIGHT
    )
    return evals


def run(coro):
    return asyncio.run(coro)


async def wait_for_counter(read, target, timeout_s=5.0):
    t0 = time.perf_counter()
    while read() < target:
        if time.perf_counter() - t0 > timeout_s:
            raise AssertionError(
                f"counter stuck at {read()} (wanted {target}) after {timeout_s}s"
            )
        await asyncio.sleep(0.005)


class TestPredictor:
    def test_no_history_predicts_nothing(self):
        predictor = GazePredictor()
        assert predictor.predict(0, WIDTH, HEIGHT) == []
        predictor.observe(0, (10.0, 10.0))
        assert predictor.predict(0, WIDTH, HEIGHT) == []  # one sample, no velocity

    def test_none_gaze_is_ignored(self):
        predictor = GazePredictor()
        predictor.observe(0, None)
        predictor.observe(0, (10.0, 10.0))
        assert predictor.velocity(0) is None

    def test_fixation_holds_position(self):
        predictor = GazePredictor(PredictorConfig(horizon=3, saccade_px=4.0))
        predictor.observe(0, (30.0, 20.0))
        predictor.observe(0, (31.0, 20.5))  # drift step « saccade_px
        assert predictor.predict(0, WIDTH, HEIGHT) == [(31.0, 20.5)]

    def test_saccade_extrapolates_ballistically(self):
        predictor = GazePredictor(PredictorConfig(horizon=2))
        predictor.observe(0, (10.0, 10.0))
        predictor.observe(0, (30.0, 10.0))  # 20 px step: a saccade
        assert predictor.predict(0, WIDTH, HEIGHT) == [(50.0, 10.0), (63.0, 10.0)]

    def test_constant_velocity_mode_extrapolates_drift_too(self):
        predictor = GazePredictor(
            PredictorConfig(horizon=2, saccade_aware=False)
        )
        predictor.observe(0, (10.0, 10.0))
        predictor.observe(0, (11.0, 10.0))
        assert predictor.predict(0, WIDTH, HEIGHT) == [(12.0, 10.0), (13.0, 10.0)]

    def test_clients_are_independent_and_forgettable(self):
        predictor = GazePredictor(PredictorConfig(horizon=1))
        predictor.observe(0, (10.0, 10.0))
        predictor.observe(0, (30.0, 10.0))
        assert predictor.predict(1, WIDTH, HEIGHT) == []
        predictor.forget(0)
        assert predictor.predict(0, WIDTH, HEIGHT) == []

    def test_config_validation(self):
        with pytest.raises(ValueError, match="horizon"):
            PredictorConfig(horizon=0)
        with pytest.raises(ValueError, match="history"):
            PredictorConfig(history=1)
        with pytest.raises(ValueError, match="saccade_px"):
            PredictorConfig(saccade_px=0.0)
        with pytest.raises(ValueError, match="max_backlog"):
            PredictorConfig(max_backlog=0)

    def test_serve_config_refresh_validation(self):
        with pytest.raises(ValueError, match="refresh_hz"):
            ServeConfig(refresh_hz=0.0)
        assert ServeConfig(refresh_hz=90.0).frame_budget_s == pytest.approx(
            1.0 / 90.0
        )
        assert ServeConfig().frame_budget_s is None


class TestDeadlineAccounting:
    def test_on_time_plus_misses_equals_served(self, fmodel, cameras):
        async def scenario():
            async with ServeLoop(fmodel) as loop:
                await asyncio.gather(
                    # A deadline no render can make, a generous one, none.
                    loop.submit(
                        FrameRequest(0, cameras[0], (5.0, 5.0), deadline_s=1e-9)
                    ),
                    loop.submit(
                        FrameRequest(1, cameras[1], (5.0, 5.0), deadline_s=10.0)
                    ),
                    loop.submit(FrameRequest(2, cameras[2], (5.0, 5.0))),
                )
                return loop

        loop = run(scenario())
        assert loop.requests_served == 3
        assert loop.on_time + loop.deadline_misses == loop.requests_served
        assert loop.deadline_misses >= 1  # the 1 ns deadline cannot be met
        stats = loop.deadline_stats()
        assert stats["on_time"] + stats["deadline_misses"] == stats["served"]

    def test_response_flags_and_default_deadline(self, fmodel, cameras):
        async def scenario():
            config = ServeConfig(refresh_hz=1000.0, degrade_on_deadline=False)
            async with ServeLoop(fmodel, serve_config=config) as loop:
                derived = await loop.submit(
                    FrameRequest(0, cameras[0], (5.0, 5.0))
                )
                explicit = await loop.submit(
                    FrameRequest(1, cameras[1], (5.0, 5.0), deadline_s=10.0)
                )
                return derived, explicit

        derived, explicit = run(scenario())
        # No per-request deadline: one refresh period (1 ms) is derived.
        assert derived.deadline_s == pytest.approx(1e-3)
        assert explicit.deadline_s == 10.0  # explicit deadline wins
        assert not explicit.deadline_missed

    def test_no_deadline_means_best_effort(self, fmodel, cameras):
        async def scenario():
            async with ServeLoop(fmodel) as loop:
                return await loop.submit(FrameRequest(0, cameras[0], (5.0, 5.0)))

        response = run(scenario())
        assert response.deadline_s is None
        assert not response.deadline_missed and not response.degraded


class TestDegradePolicy:
    def test_predicted_late_render_degrades_to_neighbour_region(
        self, fmodel, cameras
    ):
        async def scenario():
            async with ServeLoop(fmodel) as loop:
                spec = loop.serve_config.grid
                seed = await loop.submit(
                    FrameRequest(0, cameras[0], (5.0, 24.0))
                )
                # Make every render look hopeless against a 50 ms budget.
                loop._render_ewma_s = 10.0
                other = region_center(
                    cameras[0],
                    spec,
                    quantize_gaze(cameras[0], (45.0, 24.0), spec),
                )
                degraded = await loop.submit(
                    FrameRequest(1, cameras[0], other, deadline_s=0.05)
                )
                return loop, seed, degraded

        loop, seed, degraded = run(scenario())
        assert degraded.degraded and not degraded.cache_hit
        # The served frame IS the neighbouring region's cached frame.
        assert degraded.result is seed.result
        # Degrading beat the (generous) deadline instead of missing it.
        assert not degraded.deadline_missed
        assert loop.degraded_served == 1
        # The exact key was backfilled at low priority so the region heals.
        assert loop.degrade_backfills == 1

    def test_backfill_heals_the_degraded_region(self, fmodel, cameras):
        async def scenario():
            async with ServeLoop(fmodel) as loop:
                spec = loop.serve_config.grid
                await loop.submit(FrameRequest(0, cameras[0], (5.0, 24.0)))
                loop._render_ewma_s = 10.0
                other = region_center(
                    cameras[0],
                    spec,
                    quantize_gaze(cameras[0], (45.0, 24.0), spec),
                )
                degraded = await loop.submit(
                    FrameRequest(1, cameras[0], other, deadline_s=0.05)
                )
                await wait_for_counter(lambda: loop.prefetch_rendered, 1)
                loop._render_ewma_s = None  # lift the pressure
                healed = await loop.submit(
                    FrameRequest(1, cameras[0], other, deadline_s=0.05)
                )
                return degraded, healed

        degraded, healed = run(scenario())
        assert degraded.degraded
        assert healed.cache_hit and not healed.degraded
        ref = render_foveated(
            fmodel, degraded.request.camera, gaze=degraded.request.gaze
        )
        # The backfill rendered the degraded request's own gaze, so the
        # healed frame is the exact-path frame for that gaze.
        assert np.array_equal(ref.image, healed.result.image)

    def test_degrade_disabled_renders_late(self, fmodel, cameras):
        async def scenario():
            config = ServeConfig(degrade_on_deadline=False)
            async with ServeLoop(fmodel, serve_config=config) as loop:
                spec = loop.serve_config.grid
                await loop.submit(FrameRequest(0, cameras[0], (5.0, 24.0)))
                loop._render_ewma_s = 10.0
                other = region_center(
                    cameras[0],
                    spec,
                    quantize_gaze(cameras[0], (45.0, 24.0), spec),
                )
                return await loop.submit(
                    FrameRequest(1, cameras[0], other, deadline_s=1e-9)
                )

        response = run(scenario())
        assert not response.degraded and not response.cache_hit
        assert response.deadline_missed

    def test_degrade_needs_a_cached_alternate(self, fmodel, cameras):
        async def scenario():
            async with ServeLoop(fmodel) as loop:
                loop._render_ewma_s = 10.0
                # Cold cache: nothing to degrade to, so the request renders.
                return await loop.submit(
                    FrameRequest(0, cameras[0], (5.0, 24.0), deadline_s=1e-9)
                )

        response = run(scenario())
        assert not response.degraded and not response.cache_hit


class TestPrefetch:
    def test_prefetch_fills_cache_but_never_client_metrics(
        self, fmodel, cameras
    ):
        config = PredictorConfig(horizon=2)

        async def scenario():
            serve_config = ServeConfig(prefetch=config)
            async with ServeLoop(fmodel, serve_config=serve_config) as loop:
                await loop.submit(FrameRequest(0, cameras[0], (5.0, 24.0)))
                await loop.submit(FrameRequest(0, cameras[0], (25.0, 24.0)))
                await wait_for_counter(lambda: loop.prefetch_rendered, 2)

                # Client-traffic accounting is untouched by the speculation.
                assert loop.requests_served == 2
                assert len(loop.latencies_s) == 2
                assert sum(loop.batch_sizes) == 2
                assert loop.frame_cache.misses == 2
                assert loop.frame_cache.hits == 0

                # The same scanpath through an identical predictor names the
                # prefetched gazes; requesting one must now be a cache hit.
                twin = GazePredictor(config)
                twin.observe(0, (5.0, 24.0))
                twin.observe(0, (25.0, 24.0))
                predicted = twin.predict(0, WIDTH, HEIGHT)[0]
                hit = await loop.submit(FrameRequest(1, cameras[0], predicted))
                return loop, hit

        loop, hit = run(scenario())
        assert loop.prefetch_enqueued == 2
        assert hit.cache_hit
        assert loop.prefetch_useful == 1
        assert loop.requests_served == 3

    def test_prefetched_frame_matches_exact_render_of_predicted_gaze(
        self, fmodel, cameras
    ):
        config = PredictorConfig(horizon=1)

        async def scenario():
            serve_config = ServeConfig(prefetch=config)
            async with ServeLoop(fmodel, serve_config=serve_config) as loop:
                await loop.submit(FrameRequest(0, cameras[0], (5.0, 24.0)))
                await loop.submit(FrameRequest(0, cameras[0], (25.0, 24.0)))
                await wait_for_counter(lambda: loop.prefetch_rendered, 1)
                twin = GazePredictor(config)
                twin.observe(0, (5.0, 24.0))
                twin.observe(0, (25.0, 24.0))
                predicted = twin.predict(0, WIDTH, HEIGHT)[0]
                hit = await loop.submit(
                    FrameRequest(1, cameras[0], predicted)
                )
                return predicted, hit

        predicted, hit = run(scenario())
        assert hit.cache_hit
        ref = render_foveated(fmodel, cameras[0], gaze=predicted)
        # The speculation rendered the predicted gaze through the exact
        # path, so a client asking for that gaze gets the bit-exact frame.
        assert np.array_equal(ref.image, hit.result.image)

    def test_stale_and_redundant_prefetches_drop(self, fmodel, cameras):
        async def scenario():
            serve_config = ServeConfig(
                prefetch=PredictorConfig(horizon=2),
                refresh_hz=1000.0,
                degrade_on_deadline=False,
            )
            async with ServeLoop(fmodel, serve_config=serve_config) as loop:
                await loop.submit(FrameRequest(0, cameras[0], (5.0, 24.0)))
                await loop.submit(FrameRequest(0, cameras[0], (25.0, 24.0)))
                await wait_for_counter(
                    lambda: loop.prefetch_rendered + loop.prefetch_dropped, 2
                )
                return loop

        loop = run(scenario())
        # At a 1 ms refresh the speculation expiry is tight: everything
        # enqueued either rendered in time or was dropped as stale — and
        # the ledger accounts for every speculation.
        stats = loop.prefetch_stats()
        assert stats["enqueued"] == 2
        assert stats["rendered"] + stats["dropped"] == 2
        assert stats["backlog"] == 0


class TestReplayMetrics:
    def test_deadline_columns_populated_only_with_deadlines(
        self, fmodel, cameras
    ):
        plain = generate_serve_trace(
            cameras, WorkloadSpec(n_clients=2, frames_per_client=6, seed=2)
        )
        _, report = replay_trace(fmodel, plain)
        assert report.deadline_miss_rate is None
        assert report.degraded_rate is None
        assert report.prefetch_stats is None
        assert not any("deadlines:" in line for line in report.lines())

        timed = generate_serve_trace(
            cameras,
            WorkloadSpec(
                n_clients=2, frames_per_client=6, refresh_hz=90.0, seed=2
            ),
        )
        _, report = replay_trace(
            fmodel, timed, serve_config=ServeConfig(refresh_hz=90.0)
        )
        assert 0.0 <= report.deadline_miss_rate <= 1.0
        assert 0.0 <= report.degraded_rate <= 1.0
        assert any("deadlines:" in line for line in report.lines())

    def test_prefetch_preserves_rendered_plus_hits_invariant(
        self, fmodel, cameras
    ):
        trace = generate_serve_trace(
            cameras,
            WorkloadSpec(
                n_clients=3,
                frames_per_client=8,
                pose_dwell_frames=(6, 8),
                seed=4,
            ),
        )
        serve_config = ServeConfig(prefetch=PredictorConfig(horizon=2))
        responses, report = replay_trace(fmodel, trace, serve_config=serve_config)
        rendered = sum(
            size * count for size, count in report.batch_histogram.items()
        )
        hits = sum(1 for r in responses if r.cache_hit)
        # Speculative renders never leak into the client ledger: client
        # renders + client hits still account for every request exactly.
        assert rendered + hits == trace.n_requests
        assert report.prefetch_stats is not None
        assert report.prefetch_stats["enqueued"] >= 0

    def test_misses_bit_identical_with_and_without_prefetch(
        self, fmodel, cameras
    ):
        trace = generate_serve_trace(
            cameras,
            WorkloadSpec(
                n_clients=2,
                frames_per_client=8,
                pose_dwell_frames=(6, 8),
                seed=4,
            ),
        )
        base_responses, _ = replay_trace(fmodel, trace)
        pf_responses, _ = replay_trace(
            fmodel,
            trace,
            serve_config=ServeConfig(prefetch=PredictorConfig(horizon=2)),
        )
        compared = 0
        for base, pf in zip(base_responses, pf_responses):
            if base.cache_hit or pf.cache_hit or base.degraded or pf.degraded:
                continue
            # Exact-render-path requests in both replays: identical frames.
            assert np.array_equal(base.result.image, pf.result.image)
            compared += 1
        assert compared > 0


class TestWorkloadDeadlines:
    def test_refresh_stamps_deadlines(self, cameras):
        spec = WorkloadSpec(
            n_clients=2, frames_per_client=4, refresh_hz=72.0, seed=1
        )
        trace = generate_serve_trace(cameras, spec)
        assert all(
            r.deadline_s == pytest.approx(1.0 / 72.0) for r in trace.requests
        )

    def test_no_refresh_means_no_deadlines(self, cameras):
        trace = generate_serve_trace(
            cameras, WorkloadSpec(n_clients=2, frames_per_client=4, seed=1)
        )
        assert all(r.deadline_s is None for r in trace.requests)

    def test_refresh_validation(self):
        with pytest.raises(ValueError, match="refresh_hz"):
            WorkloadSpec(refresh_hz=-1.0)
