"""RenderWorkerPool: bit-identity, lifecycle, crash and staleness handling.

Multi-process tests run under an explicit SIGALRM watchdog: a hung worker
pool must fail the test fast instead of stalling the whole suite (there is
no pytest-timeout plugin in the baked image, so the watchdog is local).
"""

import asyncio
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.foveation import render_foveated, uniform_foveated_model
from repro.harness import EVAL_LEVEL_FRACTIONS, EVAL_REGION_LAYOUT
from repro.scenes import trace_cameras
from repro.serve import (
    BrokenProcessPool,
    FrameRequest,
    PredictorConfig,
    RenderWorkerPool,
    ServeConfig,
    ServeLoop,
    StaleWorkerModelError,
    active_segments,
    default_workers,
)
from repro.serve.shm import SEGMENT_PREFIX
from repro.splat import random_model

WIDTH, HEIGHT = 64, 48
TIMEOUT_S = 120


def own_segments() -> list[str]:
    """This process's arena segments (``repro-serve-<pid>-*``).

    Only the process that builds a pool or arena creates a segment, so
    this probe misses no leak of the test's own and ignores arenas of
    other processes on the host (a live benchmark's, say).
    """
    prefix = f"{SEGMENT_PREFIX}{os.getpid()}-"
    return [name for name in active_segments() if name.startswith(prefix)]


@pytest.fixture(autouse=True)
def multiprocess_timeout():
    """Fail fast (with a traceback) if a pool hangs instead of answering."""
    if not hasattr(signal, "SIGALRM"):  # pragma: no cover - non-POSIX
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"multi-process serve test exceeded {TIMEOUT_S}s watchdog"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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


# The two executors behind ServeLoop's one dispatch seam.
EXECUTORS = pytest.mark.parametrize(
    "workers", [0, 1], ids=["inline", "workers=1"]
)


class TestWorkerFrames:
    def test_worker_frames_bit_identical_to_inline(self, fmodel, cameras):
        # The acceptance-critical property: moving rendering into worker
        # processes changes scheduling, never pixels — every worker-pool
        # miss matches a per-request render_foveated bit for bit (and so,
        # transitively, the inline serve path).
        requests = [
            FrameRequest(i, cameras[i % 3], (10.0 * i + 5.0, 12.0 + 3.0 * i))
            for i in range(5)
        ]

        async def scenario():
            async with ServeLoop(
                fmodel,
                serve_config=ServeConfig(workers=2, cache_max_bytes=None),
            ) as loop:
                responses = await asyncio.gather(
                    *(loop.submit(r) for r in requests)
                )
                return responses, loop._pool.worker_pids()

        responses, pids = run(scenario())
        assert pids and all(pid != os.getpid() for pid in pids)
        for response in responses:
            ref = render_foveated(
                fmodel, response.request.camera, gaze=response.request.gaze
            )
            assert np.array_equal(ref.image, response.result.image)

    def test_worker_pool_caches_and_dedups_like_inline(self, fmodel, cameras):
        # Hits and in-batch dedup are scheduler-side: a worker pool must
        # not change which requests render.
        async def scenario():
            async with ServeLoop(
                fmodel, serve_config=ServeConfig(workers=1)
            ) as loop:
                first = await loop.submit(FrameRequest(0, cameras[0], (20.0, 15.0)))
                second = await loop.submit(FrameRequest(1, cameras[0], (20.0, 15.0)))
                return first, second

        first, second = run(scenario())
        assert not first.cache_hit and second.cache_hit
        assert second.result is first.result

    def test_direct_pool_render_matches_reference(self, fmodel, cameras):
        gazes = [(5.0, 5.0), (40.0, 30.0), None]

        async def scenario():
            with RenderWorkerPool(fmodel, workers=1) as pool:
                return await pool.render(cameras[1], gazes)

        results = run(scenario())
        assert len(results) == len(gazes)
        for gaze, result in zip(gazes, results):
            ref = render_foveated(fmodel, cameras[1], gaze=gaze)
            assert np.array_equal(ref.image, result.image)


class TestRenderThreadPool:
    def test_workers_render_after_the_parent_pool_started(
        self, fmodel, cameras, monkeypatch
    ):
        # The parent's render thread pool is live when the workers start: a
        # forked worker inherits the pool object but none of its threads,
        # so it must build its own or its first multi-piece render hangs.
        from concurrent.futures import ThreadPoolExecutor

        from repro.obs.trace import Tracer, set_active_tracer
        from repro.splat.backends import packed

        # The render pool is the packed engine's: pin it in the parent and,
        # through the environment, in the worker.
        monkeypatch.setenv("REPRO_BACKEND", "packed")
        monkeypatch.setenv(packed.SPAN_BUDGET_ENV, "1")  # a piece per band
        parent_pool = ThreadPoolExecutor(2)
        monkeypatch.setattr(packed, "_pool", parent_pool)
        gaze = (20.0, 15.0)
        tracer = Tracer()
        prev = set_active_tracer(tracer)
        try:
            parent = render_foveated(fmodel, cameras[1], gaze=gaze)
        finally:
            set_active_tracer(prev)
        (scan,) = [s[6] for s in tracer.spans() if s[0] == "alpha-scan"]
        assert scan["pieces"] > 1 and scan["threads"] == 2

        async def scenario(start):
            with RenderWorkerPool(fmodel, workers=1, mp_start=start) as pool:
                return await pool.render(cameras[1], [gaze])

        try:
            for start in ("fork", "spawn"):
                if start not in multiprocessing.get_all_start_methods():
                    continue
                (result,) = run(scenario(start))
                assert np.array_equal(parent.image, result.image), start
        finally:
            parent_pool.shutdown()


class TestFailureHandling:
    def test_pool_crash_propagates_and_close_does_not_hang(self, fmodel, cameras):
        # A worker crash must surface as BrokenProcessPool on the awaiting
        # submit() callers, and close() must still drain and return.
        async def scenario():
            async with ServeLoop(
                fmodel,
                serve_config=ServeConfig(workers=1, cache_max_bytes=None),
            ) as loop:
                await loop.submit(FrameRequest(0, cameras[0], (20.0, 15.0)))
                for pid in loop._pool.worker_pids():
                    os.kill(pid, signal.SIGKILL)
                with pytest.raises(BrokenProcessPool):
                    await loop.submit(FrameRequest(1, cameras[1], (20.0, 15.0)))
            return True

        assert run(scenario())

    @EXECUTORS
    def test_fault_at_the_dispatch_seam(
        self, fmodel, cameras, monkeypatch, workers
    ):
        # One fault per executor, injected where ServeLoop._dispatch calls
        # it: inline, a render that raises for one pose; on the pool, the
        # worker SIGKILLed between two submits.  Failed requests raise,
        # the hit still resolves, the deadline ledger balances, and no
        # shared-memory segment outlives close().
        rng = np.random.default_rng(19)
        low, high = (4.0, 4.0), (WIDTH - 4.0, HEIGHT - 4.0)
        seed_gaze, bad_gaze, other_gaze = (
            tuple(float(v) for v in rng.uniform(low, high)) for _ in range(3)
        )
        good, bad, other = cameras[0], cameras[1], cameras[2]
        if workers:
            fault = BrokenProcessPool
        else:
            import repro.serve.scheduler as scheduler_mod

            real = scheduler_mod.render_foveated_batch

            def failing(fmodel_arg, camera, **kwargs):
                if camera is bad:
                    raise RuntimeError("pose exploded")
                return real(fmodel_arg, camera, **kwargs)

            monkeypatch.setattr(scheduler_mod, "render_foveated_batch", failing)
            fault = RuntimeError

        async def scenario():
            config = ServeConfig(workers=workers, refresh_hz=60.0)
            async with ServeLoop(fmodel, serve_config=config) as loop:
                seed = await loop.submit(FrameRequest(0, good, seed_gaze))
                if workers:
                    for pid in loop._pool.worker_pids():
                        os.kill(pid, signal.SIGKILL)
                outcomes = await asyncio.gather(
                    loop.submit(FrameRequest(1, good, seed_gaze)),  # hit
                    loop.submit(FrameRequest(2, bad, bad_gaze)),
                    loop.submit(FrameRequest(3, other, other_gaze)),
                    return_exceptions=True,
                )
            return loop, seed, outcomes

        loop, seed, (hit, failed, other_pose) = run(scenario())
        assert isinstance(failed, fault)
        assert hit.cache_hit and hit.result is seed.result
        if workers:
            # A dead pool fails every pose group that needs it, each with
            # its own exception; nothing hangs.
            assert isinstance(other_pose, BrokenProcessPool)
            assert loop.requests_served == 2
        else:
            assert other_pose.result.image.shape == (HEIGHT, WIDTH, 3)
            assert loop.requests_served == 3
        assert loop.on_time + loop.deadline_misses == loop.requests_served
        assert own_segments() == []

    def test_arena_exhaustion_at_the_dispatch_seam(self, fmodel, cameras):
        # An arena too small for one frame (shm_bytes=1) behind the pool
        # executor: every rendered frame falls back to the pipe, and the
        # fallback is invisible in the served pixels and the deadline
        # ledger, and leaks no shared-memory segment.  Deadlines are on,
        # degrade off, so every frame is a render at its own gaze.
        rng = np.random.default_rng(20)
        low, high = (4.0, 4.0), (WIDTH - 4.0, HEIGHT - 4.0)
        requests = [
            FrameRequest(i, camera, tuple(float(v) for v in rng.uniform(low, high)))
            for i, camera in enumerate([cameras[0], cameras[1], cameras[2], cameras[0]])
        ]
        # A repeat of the first request: served, but not rendered again.
        requests.append(FrameRequest(len(requests), cameras[0], requests[0].gaze))

        async def scenario():
            config = ServeConfig(
                workers=1, shm_bytes=1, refresh_hz=60.0, degrade_on_deadline=False
            )
            async with ServeLoop(fmodel, serve_config=config) as loop:
                responses = list(await asyncio.gather(
                    *(loop.submit(r) for r in requests[:-1])
                ))
                responses.append(await loop.submit(requests[-1]))
                stats = loop.transport_stats()
            return loop, responses, stats

        loop, responses, stats = run(scenario())
        for response in responses:
            ref = render_foveated(
                fmodel, response.request.camera, gaze=response.request.gaze
            )
            assert np.array_equal(ref.image, response.result.image)
        assert responses[-1].cache_hit
        rendered = len({id(r.result) for r in responses if not r.cache_hit})
        assert rendered >= 3
        assert stats["transport"] == "shm" and stats["frames_via_shm"] == 0
        assert stats["shm_fallbacks"] == stats["frames_via_pipe"] == rendered
        assert loop.requests_served == len(requests)
        assert loop.on_time + loop.deadline_misses == loop.requests_served
        assert own_segments() == []

    def test_slow_render_at_the_dispatch_seam(self, fmodel, cameras, monkeypatch):
        # An inline executor that sleeps past the frame deadline: the late
        # frame is served late (not dropped, not degraded) and is still
        # bitwise its lone render; a repeat of it is an on-time hit, the
        # deadline ledger balances, and no shared-memory segment leaks.
        import repro.serve.scheduler as scheduler_mod

        rng = np.random.default_rng(21)
        gaze = tuple(
            float(v) for v in rng.uniform((4.0, 4.0), (WIDTH - 4.0, HEIGHT - 4.0))
        )
        refresh_hz = 60.0
        real = scheduler_mod.render_foveated_batch

        def slow(*args, **kwargs):
            time.sleep(3.0 / refresh_hz)
            return real(*args, **kwargs)

        monkeypatch.setattr(scheduler_mod, "render_foveated_batch", slow)

        async def scenario():
            config = ServeConfig(workers=0, refresh_hz=refresh_hz)
            async with ServeLoop(fmodel, serve_config=config) as loop:
                late = await loop.submit(FrameRequest(0, cameras[0], gaze))
                repeat = await loop.submit(FrameRequest(1, cameras[0], gaze))
            return loop, late, repeat

        loop, late, repeat = run(scenario())
        assert late.deadline_missed and not late.degraded and not late.cache_hit
        ref = render_foveated(fmodel, cameras[0], gaze=gaze)
        assert np.array_equal(ref.image, late.result.image)
        assert repeat.cache_hit and not repeat.deadline_missed
        assert loop.requests_served == 2 and loop.deadline_misses == 1
        assert loop.on_time + loop.deadline_misses == loop.requests_served
        assert own_segments() == []

    def test_stale_model_snapshot_raises(self, fmodel, cameras):
        # Workers snapshot the model at process start; mutating it
        # mid-serve must fail the render loudly instead of silently
        # serving the old parameters.
        mutable = uniform_foveated_model(
            random_model(60, np.random.default_rng(11)),
            EVAL_REGION_LAYOUT,
            EVAL_LEVEL_FRACTIONS,
        )

        async def scenario():
            async with ServeLoop(
                mutable,
                serve_config=ServeConfig(workers=1, cache_max_bytes=None),
            ) as loop:
                await loop.submit(FrameRequest(0, cameras[0], (20.0, 15.0)))
                mutable.base.positions[:, 0] += 0.05
                with pytest.raises(StaleWorkerModelError):
                    await loop.submit(FrameRequest(1, cameras[0], (25.0, 18.0)))
            return True

        assert run(scenario())

    def test_shared_pool_not_closed_by_loop(self, fmodel, cameras):
        # A loop only owns a pool it built itself: a shared pool (as
        # perfbench's serve-pool shares one across fresh loops) must
        # survive one loop's close().
        async def scenario():
            with RenderWorkerPool(fmodel, workers=1) as pool:
                async with ServeLoop(fmodel, worker_pool=pool) as loop:
                    await loop.submit(FrameRequest(0, cameras[0], (20.0, 15.0)))
                # Loop closed; the shared pool must still render.
                results = await pool.render(cameras[0], [(20.0, 15.0)])
                return len(results)

        assert run(scenario()) == 1


class TestPrefetchYield:
    @EXECUTORS
    def test_speculation_yields_to_a_queued_client_miss(
        self, fmodel, cameras, workers
    ):
        # Client 0's second request enqueues one speculation, so its batch
        # holds a speculative pose group.  Client 1's miss is submitted the
        # moment client 0's frame resolves, before the speculation
        # dispatches: the speculation must go back to the low-priority
        # queue, not render, and render only after the miss.
        dispatched = []

        async def scenario():
            config = ServeConfig(
                workers=workers, prefetch=PredictorConfig(horizon=1)
            )
            async with ServeLoop(fmodel, serve_config=config) as loop:
                real_dispatch = loop._dispatch

                async def recording(group):
                    dispatched.append(
                        ([p.prefetch for p in group], loop.prefetch_stats())
                    )
                    return await real_dispatch(group)

                loop._dispatch = recording
                await loop.submit(FrameRequest(0, cameras[0], (5.0, 24.0)))
                await loop.submit(FrameRequest(0, cameras[0], (25.0, 24.0)))
                await loop.submit(FrameRequest(1, cameras[1], (20.0, 15.0)))
                t0 = asyncio.get_running_loop().time()
                while loop.prefetch_rendered < 1:
                    assert asyncio.get_running_loop().time() - t0 < 30.0
                    await asyncio.sleep(0.005)
            return loop

        loop = run(scenario())
        assert [kinds for kinds, _ in dispatched] == [
            [False], [False], [False], [True]
        ]
        # When client 1's miss dispatched, the speculation had been
        # requeued: neither rendered nor dropped.
        _, at_miss = dispatched[2]
        assert at_miss["enqueued"] == 1
        assert at_miss["rendered"] == at_miss["dropped"] == 0
        stats = loop.prefetch_stats()
        assert stats["enqueued"] == stats["rendered"] == 1
        assert stats["dropped"] == stats["failed"] == stats["backlog"] == 0
        # Client-traffic accounting never sees the speculation.
        assert loop.requests_served == 3
        assert loop.batch_sizes == [1, 1, 1]


class TestConfigAndEnv:
    def test_workers_validation(self):
        with pytest.raises(ValueError, match="workers"):
            ServeConfig(workers=-1)
        with pytest.raises(ValueError, match="workers"):
            RenderWorkerPool(None, workers=0)

    def test_default_workers_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_WORKERS", raising=False)
        assert default_workers() == 0
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "3")
        assert default_workers() == 3
        # Env-knob hardening: bad values warn and fall back to the
        # built-in default instead of crashing the serve path.
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "nope")
        with pytest.warns(RuntimeWarning, match="REPRO_SERVE_WORKERS"):
            assert default_workers() == 0
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "-2")
        with pytest.warns(RuntimeWarning, match="out-of-range"):
            assert default_workers() == 0

    def test_closed_pool_rejects_renders(self, fmodel, cameras):
        pool = RenderWorkerPool(fmodel, workers=1)
        pool.close()
        pool.close()  # idempotent

        async def scenario():
            await pool.render(cameras[0], [(5.0, 5.0)])

        with pytest.raises(RuntimeError, match="closed"):
            run(scenario())
