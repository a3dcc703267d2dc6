"""ServeLoop: micro-batching, caching, dedup, exactness, lifecycle."""

import asyncio
import time
import types

import numpy as np
import pytest

from repro.foveation import render_foveated, uniform_foveated_model
from repro.harness import EVAL_LEVEL_FRACTIONS, EVAL_REGION_LAYOUT
from repro.obs.trace import Tracer
from repro.scenes import trace_cameras
from repro.serve import (
    FrameRequest,
    GazeGridSpec,
    RenderWorkerPool,
    ServeConfig,
    ServeLoop,
    region_center,
    quantize_gaze,
)
from repro.serve.scheduler import _Pending, _TwoClassQueue
from repro.splat import RenderConfig, ViewCache, random_model

WIDTH, HEIGHT = 64, 48


def make_pending(key, prefetch=False):
    return _Pending(
        request=None, key=key, future=None, t_submit=0.0, prefetch=prefetch
    )


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


class TestLifecycle:
    def test_submit_requires_running_loop(self, fmodel, cameras):
        loop = ServeLoop(fmodel)

        async def bad():
            await loop.submit(FrameRequest(0, cameras[0]))

        with pytest.raises(RuntimeError, match="not running"):
            run(bad())

    def test_double_start_rejected(self, fmodel):
        async def bad():
            async with ServeLoop(fmodel) as loop:
                await loop.start()

        with pytest.raises(RuntimeError, match="already started"):
            run(bad())

    def test_close_drains_pending(self, fmodel, cameras):
        async def scenario():
            loop = ServeLoop(fmodel)
            await loop.start()
            tasks = [
                asyncio.create_task(
                    loop.submit(FrameRequest(i, cameras[i % 2], (10.0 * i, 8.0)))
                )
                for i in range(4)
            ]
            await asyncio.sleep(0)  # let submits enqueue, not resolve
            await loop.close()
            return await asyncio.gather(*tasks)

        responses = run(scenario())
        assert len(responses) == 4
        assert all(r.result.image.shape == (HEIGHT, WIDTH, 3) for r in responses)


class TestBatchingAndCaching:
    def test_miss_is_bit_identical_to_render_foveated(self, fmodel, cameras):
        gaze = (20.0, 15.0)

        async def scenario():
            async with ServeLoop(fmodel) as loop:
                return await loop.submit(FrameRequest(0, cameras[0], gaze))

        response = run(scenario())
        assert not response.cache_hit
        ref = render_foveated(fmodel, cameras[0], gaze=gaze)
        assert np.array_equal(ref.image, response.result.image)

    def test_concurrent_requests_coalesce(self, fmodel, cameras):
        async def scenario():
            async with ServeLoop(
                fmodel, serve_config=ServeConfig(batch_budget=8)
            ) as loop:
                spec = loop.serve_config.grid
                # Distinct gaze regions of one pose: no dedup, one batch.
                gazes = [
                    region_center(
                        cameras[0], spec, quantize_gaze(cameras[0], g, spec)
                    )
                    for g in [(5.0, 5.0), (60.0, 40.0), (32.0, 24.0)]
                ]
                responses = await asyncio.gather(
                    *(
                        loop.submit(FrameRequest(i, cameras[0], gaze))
                        for i, gaze in enumerate(gazes)
                    )
                )
                return loop.batch_sizes, responses

        batch_sizes, responses = run(scenario())
        rendered = {r.batch_size for r in responses if not r.cache_hit}
        assert len(set(quantize_gaze(cameras[0], r.request.gaze) for r in responses)) == 3
        assert batch_sizes == [3]
        assert rendered == {3}

    def test_budget_splits_batches(self, fmodel, cameras):
        async def scenario():
            async with ServeLoop(
                fmodel, serve_config=ServeConfig(batch_budget=2, cache_max_bytes=None)
            ) as loop:
                await asyncio.gather(
                    *(
                        loop.submit(
                            FrameRequest(i, cameras[i % len(cameras)], (float(i), 5.0))
                        )
                        for i in range(5)
                    )
                )
                return loop.batch_sizes

        batch_sizes = run(scenario())
        assert max(batch_sizes) <= 2
        assert sum(batch_sizes) == 5

    def test_same_region_request_hits_cache(self, fmodel, cameras):
        gaze = (20.0, 15.0)

        async def scenario():
            async with ServeLoop(fmodel) as loop:
                first = await loop.submit(FrameRequest(0, cameras[0], gaze))
                nearby = region_center(
                    cameras[0],
                    loop.serve_config.grid,
                    quantize_gaze(cameras[0], gaze, loop.serve_config.grid),
                )
                second = await loop.submit(FrameRequest(1, cameras[0], nearby))
                return loop, first, second

        loop, first, second = run(scenario())
        assert not first.cache_hit and second.cache_hit
        # The hit serves the frame rendered for the earlier gaze in the
        # same region — object-identical, zero render work.
        assert second.result is first.result
        assert loop.frame_cache.hits == 1 and loop.frame_cache.misses == 1

    def test_in_batch_duplicates_dedup_to_one_render(self, fmodel, cameras):
        async def scenario():
            async with ServeLoop(fmodel) as loop:
                responses = await asyncio.gather(
                    *(
                        loop.submit(FrameRequest(i, cameras[0], (20.0, 15.0)))
                        for i in range(4)
                    )
                )
                return loop, responses

        loop, responses = run(scenario())
        misses = [r for r in responses if not r.cache_hit]
        assert len(misses) == 1  # one render served all four clients
        assert loop.batch_sizes == [1]
        for r in responses:
            assert np.array_equal(r.result.image, misses[0].result.image)

    def test_throughput_mode_is_bit_identical(self, fmodel, cameras):
        # The default config renders a pose group's misses as one backend
        # call — one alpha-scan over all three frames, which renders each
        # (tile, level) once — inline and on a worker pool.  Each pixel
        # row's transmittance scan sees only its own spans, so every frame
        # is still bit-identical to its lone render.  The packed engine is
        # the one that traces its scans.
        config = RenderConfig(backend="packed")
        gazes = [(5.0, 5.0), (60.0, 40.0), (32.0, 24.0)]

        async def scenario(pool):
            tracer = Tracer()
            async with ServeLoop(
                fmodel, config=config, worker_pool=pool, tracer=tracer
            ) as loop:
                responses = await asyncio.gather(
                    *(
                        loop.submit(FrameRequest(i, cameras[0], gaze))
                        for i, gaze in enumerate(gazes)
                    )
                )
            return loop, tracer, responses

        for workers in (0, 1):
            pool = RenderWorkerPool(fmodel, config, workers=1) if workers else None
            try:
                loop, tracer, responses = run(scenario(pool))
            finally:
                if pool is not None:
                    pool.close()
            assert loop.batch_sizes == [3], workers
            scans = [args for name, *_, args in tracer.spans() if name == "alpha-scan"]
            assert [args["frames"] for args in scans] == [3], workers
            for response in responses:
                ref = render_foveated(
                    fmodel, response.request.camera, gaze=response.request.gaze,
                    config=config,
                )
                assert np.array_equal(ref.image, response.result.image)
        # There is no other mode to ask for.
        with pytest.raises(TypeError):
            ServeConfig(exact_frames=False)
        with pytest.raises(TypeError):
            RenderWorkerPool(fmodel, config, workers=1, exact_frames=True)

    def test_view_cache_sized_by_knob_and_keeps_tile_renders(
        self, fmodel, cameras, monkeypatch
    ):
        # The inline loop's ViewCache is sized like a worker's, a caller's
        # cache is used even while empty, and a miss at a cached pose
        # renders only the tiles an earlier miss did not.
        monkeypatch.setenv("REPRO_WORKER_VIEWCACHE", "3")
        assert ServeLoop(fmodel).view_cache.maxsize == 3
        cache = ViewCache(maxsize=5)
        tracer = Tracer()
        gazes = [(5.0, 5.0), (60.0, 45.0)]
        config = RenderConfig(backend="packed")  # the engine with tile stores

        async def scenario():
            async with ServeLoop(fmodel, config, view_cache=cache, tracer=tracer) as loop:
                assert loop.view_cache is cache
                return [await loop.submit(FrameRequest(0, cameras[0], g)) for g in gazes]

        responses = run(scenario())
        for gaze, response in zip(gazes, responses):
            assert not response.cache_hit
            ref = render_foveated(fmodel, cameras[0], gaze=gaze, config=config)
            assert np.array_equal(ref.image, response.result.image)
        scans = [
            args for name, _, _, _, _, _, args in tracer.spans()
            if name == "alpha-scan" and "frames" in args
        ]
        assert [s["tiles_reused"] > 0 for s in scans] == [False, True]
        assert cache.misses == 1

    def test_pose_change_misses(self, fmodel, cameras):
        async def scenario():
            async with ServeLoop(fmodel) as loop:
                a = await loop.submit(FrameRequest(0, cameras[0], (20.0, 15.0)))
                b = await loop.submit(FrameRequest(0, cameras[1], (20.0, 15.0)))
                return a, b

        a, b = run(scenario())
        assert not a.cache_hit and not b.cache_hit

    def test_model_mutation_invalidates(self, fmodel, cameras):
        # The acceptance-critical property: after the model changes, the
        # same request must re-render (fingerprint key) and match a fresh
        # per-request render of the mutated model bit for bit.
        base = uniform_foveated_model(
            random_model(60, np.random.default_rng(9)),
            EVAL_REGION_LAYOUT,
            EVAL_LEVEL_FRACTIONS,
        )
        gaze = (20.0, 15.0)

        async def scenario():
            async with ServeLoop(base) as loop:
                before = await loop.submit(FrameRequest(0, cameras[0], gaze))
                base.base.positions[:, 0] += 0.05
                base.mv_opacity_logits[:, 0] += 0.1
                after = await loop.submit(FrameRequest(0, cameras[0], gaze))
                return before, after

        before, after = run(scenario())
        assert not before.cache_hit and not after.cache_hit
        ref = render_foveated(base, cameras[0], gaze=gaze)
        assert np.array_equal(ref.image, after.result.image)
        assert not np.array_equal(before.result.image, after.result.image)

    def test_disabled_cache_always_renders(self, fmodel, cameras):
        async def scenario():
            async with ServeLoop(
                fmodel, serve_config=ServeConfig(cache_max_bytes=None)
            ) as loop:
                a = await loop.submit(FrameRequest(0, cameras[0], (20.0, 15.0)))
                b = await loop.submit(FrameRequest(0, cameras[0], (20.0, 15.0)))
                return loop, a, b

        loop, a, b = run(scenario())
        assert loop.frame_cache is None
        assert not a.cache_hit and not b.cache_hit
        assert np.array_equal(a.result.image, b.result.image)

    def test_latencies_and_served_recorded(self, fmodel, cameras):
        async def scenario():
            async with ServeLoop(fmodel) as loop:
                await loop.submit(FrameRequest(0, cameras[0], (20.0, 15.0)))
                await loop.submit(FrameRequest(1, cameras[0], (20.0, 15.0)))
                return loop

        loop = run(scenario())
        assert loop.requests_served == 2
        assert len(loop.latencies_s) == 2
        assert all(lat >= 0 for lat in loop.latencies_s)

    def test_deadline_waits_for_stragglers(self, fmodel, cameras):
        async def scenario():
            async with ServeLoop(
                fmodel,
                serve_config=ServeConfig(
                    batch_budget=2, batch_deadline_s=0.25, cache_max_bytes=None
                ),
            ) as loop:
                first = asyncio.create_task(
                    loop.submit(FrameRequest(0, cameras[0], (5.0, 5.0)))
                )
                await asyncio.sleep(0.02)  # batcher now holds request 0
                second = asyncio.create_task(
                    loop.submit(FrameRequest(1, cameras[0], (40.0, 30.0)))
                )
                await asyncio.gather(first, second)
                return loop.batch_sizes

        batch_sizes = run(scenario())
        # The straggler arrived within the deadline: one pose group of two.
        assert batch_sizes == [2]


class TestFailureIsolation:
    def test_render_failure_scoped_to_its_pose_group(
        self, fmodel, cameras, monkeypatch
    ):
        # Regression: a pose whose render raises must fail only its own
        # requests — other poses in the coalesced batch still render, and
        # cache hits (whose frames are already in hand) still resolve.
        import repro.serve.scheduler as scheduler_mod

        real = scheduler_mod.render_foveated_batch
        bad_camera = cameras[1]

        def failing(fmodel_arg, camera, **kwargs):
            if camera is bad_camera:
                raise RuntimeError("pose exploded")
            return real(fmodel_arg, camera, **kwargs)

        monkeypatch.setattr(scheduler_mod, "render_foveated_batch", failing)

        async def scenario():
            async with ServeLoop(fmodel) as loop:
                hit_seed = await loop.submit(
                    FrameRequest(0, cameras[0], (20.0, 15.0))
                )
                results = await asyncio.gather(
                    loop.submit(FrameRequest(1, cameras[0], (20.0, 15.0))),  # hit
                    loop.submit(FrameRequest(2, bad_camera, (20.0, 15.0))),
                    loop.submit(FrameRequest(3, cameras[2], (20.0, 15.0))),
                    return_exceptions=True,
                )
                return hit_seed, results

        hit_seed, (hit, failed, other) = run(scenario())
        assert not hit_seed.cache_hit
        assert hit.cache_hit and hit.result is hit_seed.result
        assert isinstance(failed, RuntimeError)
        assert other.result.image.shape == (HEIGHT, WIDTH, 3)


class TestTwoClassQueue:
    """The scheduler's urgent/prefetch queue: priority + cancellation safety."""

    def test_urgent_always_dequeues_before_prefetch(self):
        q = _TwoClassQueue()
        speculation = make_pending(("spec",), prefetch=True)
        real = make_pending(("real",))
        q.put_nowait(speculation)
        q.put_nowait(real)
        assert q.get_nowait() is real  # the real miss preempts the speculation
        assert q.get_nowait() is speculation
        with pytest.raises(asyncio.QueueEmpty):
            q.get_nowait()

    def test_join_waits_for_task_done(self):
        async def scenario():
            q = _TwoClassQueue()
            q.put_nowait(make_pending(("a",)))
            join = asyncio.ensure_future(q.join())
            await asyncio.sleep(0)
            assert not join.done()
            q.get_nowait()
            q.task_done()
            await asyncio.wait_for(join, timeout=1.0)

        run(scenario())

    def test_cancelled_getter_never_loses_the_item(self):
        # The race the old asyncio.wait_for(queue.get(), ...) pattern lost:
        # the item arrives, the getter is woken, and the cancellation lands
        # before the getter resumes.  The item must survive — either
        # recovered from the getter or still sitting in the queue.
        async def scenario():
            q = _TwoClassQueue()
            item = make_pending(("k",))
            getter = asyncio.ensure_future(q.get())
            await asyncio.sleep(0)  # getter is now parked on its waiter
            q.put_nowait(item)  # wakes the getter ...
            # ... and we cancel before it gets to run: the race window.
            recovered = await _TwoClassQueue.drain_getter(getter)
            if recovered is None:
                assert q.get_nowait() is item  # still queued, not dropped
            else:
                assert recovered is item

        run(scenario())

    def test_drain_getter_recovers_a_completed_get(self):
        async def scenario():
            q = _TwoClassQueue()
            item = make_pending(("k",))
            getter = asyncio.ensure_future(q.get())
            await asyncio.sleep(0)
            q.put_nowait(item)
            await asyncio.sleep(0)  # let the getter resume and pop the item
            assert getter.done()
            assert await _TwoClassQueue.drain_getter(getter) is item
            assert q.empty()

        run(scenario())

    def test_requeue_preserves_unfinished_count(self):
        async def scenario():
            q = _TwoClassQueue()
            item = make_pending(("k",))
            q.put_nowait(item)
            q.requeue(q.get_nowait())  # recovered item goes back, same count
            assert q.get_nowait() is item
            q.task_done()  # exactly one task_done balances the one put
            with pytest.raises(ValueError):
                q.task_done()

        run(scenario())


class TestCollectRaceSafety:
    def test_straggler_stress_never_loses_requests(
        self, fmodel, cameras, monkeypatch
    ):
        # Stress the straggler wait's timeout/arrival race: many jittered
        # clients against a short batch deadline.  With the lost-request
        # race a dropped _Pending leaves its future unresolved forever and
        # close() hangs on join() — the overall wait_for turns either
        # failure mode into a test failure instead of a deadlock.
        import repro.serve.scheduler as scheduler_mod

        def fake_render(fmodel_arg, camera, gazes=None, **kwargs):
            time.sleep(0.0005)
            return [types.SimpleNamespace(image=None) for _ in gazes]

        monkeypatch.setattr(scheduler_mod, "render_foveated_batch", fake_render)

        async def scenario():
            config = ServeConfig(
                batch_budget=4, batch_deadline_s=0.002, cache_max_bytes=None
            )
            async with ServeLoop(fmodel, serve_config=config) as loop:
                rng = np.random.default_rng(0)
                delays = rng.uniform(0.0, 0.05, size=80)

                async def client(i):
                    await asyncio.sleep(float(delays[i]))
                    return await loop.submit(
                        FrameRequest(i, cameras[i % 2], (float(i % 60), 10.0))
                    )

                responses = await asyncio.gather(
                    *(client(i) for i in range(80))
                )
                return loop, responses

        loop, responses = run(asyncio.wait_for(scenario(), timeout=30.0))
        assert len(responses) == 80
        assert loop.requests_served == 80


class TestLatencyAttribution:
    def test_latency_stamped_per_pose_group(self, fmodel, cameras, monkeypatch):
        # Regression: one perf_counter() stamp after ALL pose groups meant
        # the first group's requests were charged the later groups' render
        # time.  With an instrumented slow second pose, the fast pose's
        # latency must not include the slow pose's 0.25 s.
        import repro.serve.scheduler as scheduler_mod

        real = scheduler_mod.render_foveated_batch
        slow_camera = cameras[1]

        def instrumented(fmodel_arg, camera, **kwargs):
            if camera is slow_camera:
                time.sleep(0.25)
            return real(fmodel_arg, camera, **kwargs)

        monkeypatch.setattr(scheduler_mod, "render_foveated_batch", instrumented)

        async def scenario():
            async with ServeLoop(fmodel) as loop:
                return await asyncio.gather(
                    loop.submit(FrameRequest(0, cameras[0], (20.0, 15.0))),
                    loop.submit(FrameRequest(1, slow_camera, (20.0, 15.0))),
                )

        fast, slow = run(scenario())
        assert slow.latency_s >= 0.25
        assert fast.latency_s < 0.15

    def test_batch_size_is_per_pose_group(self, fmodel, cameras):
        # Regression: FrameResponse.batch_size reported the whole coalesced
        # batch (3 here) while loop.batch_sizes recorded per-pose-group
        # sizes; both must be per-group.
        async def scenario():
            async with ServeLoop(fmodel) as loop:
                spec = loop.serve_config.grid
                g1 = region_center(
                    cameras[0], spec, quantize_gaze(cameras[0], (5.0, 5.0), spec)
                )
                g2 = region_center(
                    cameras[0],
                    spec,
                    quantize_gaze(cameras[0], (60.0, 40.0), spec),
                )
                responses = await asyncio.gather(
                    loop.submit(FrameRequest(0, cameras[0], g1)),
                    loop.submit(FrameRequest(1, cameras[0], g2)),
                    loop.submit(FrameRequest(2, cameras[1], (20.0, 15.0))),
                )
                return loop.batch_sizes, responses

        batch_sizes, (a, b, c) = run(scenario())
        assert sorted(batch_sizes) == [1, 2]
        assert a.batch_size == 2 and b.batch_size == 2
        assert c.batch_size == 1


class TestConfigValidation:
    def test_bad_budget(self):
        with pytest.raises(ValueError, match="batch_budget"):
            ServeConfig(batch_budget=0)

    def test_bad_deadline(self):
        with pytest.raises(ValueError, match="batch_deadline_s"):
            ServeConfig(batch_deadline_s=-1.0)

    def test_compact_response_repr(self, fmodel, cameras):
        async def scenario():
            async with ServeLoop(fmodel) as loop:
                return await loop.submit(FrameRequest(0, cameras[0], (5.0, 5.0)))

        text = repr(run(scenario()))
        # Guard against regressing to the default dataclass repr, which
        # stringifies whole frames (asyncio reprs task results on teardown).
        assert len(text) < 200 and "FrameResponse" in text
