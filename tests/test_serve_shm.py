"""SlabArena + zero-copy frame transport: allocator, lifecycle, fallback.

The lifecycle tests are the acceptance-critical half: every exit path —
clean close, SIGKILL'd workers behind a BrokenProcessPool, exhaustion
fallback — must leave ``/dev/shm`` with zero ``repro-serve-*`` segments
of the test process's own,
and handle-backed frames must stay readable *after* the arena that
produced them closed (numpy views hold no buffer export on the segment,
so a careless ``SharedMemory.close`` unmaps under them — a segfault, not
an exception; see ``SlabArena.close``).

Multi-process tests reuse the SIGALRM watchdog from the worker-pool
suite: a hung pool fails fast instead of stalling the run.
"""

import asyncio
import dataclasses
import gc
import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.foveation import render_foveated, uniform_foveated_model
from repro.harness import EVAL_LEVEL_FRACTIONS, EVAL_REGION_LAYOUT
from repro.scenes import trace_cameras
from repro.serve import (
    ArenaExhausted,
    BrokenProcessPool,
    FrameRequest,
    RenderWorkerPool,
    ServeConfig,
    ServeLoop,
    ShmTransportError,
    SlabArena,
    active_segments,
    resolved_shm_bytes,
    resolved_worker_viewcache,
    shm_available,
)
from repro.serve.shm import (
    DEFAULT_SHM_BYTES,
    SEGMENT_PREFIX,
    SHM_ENV,
    export_result,
    materialize_handle,
)
from repro.serve.workers import DEFAULT_WORKER_VIEWCACHE, VIEWCACHE_ENV
from repro.splat import random_model

WIDTH, HEIGHT = 64, 48
TIMEOUT_S = 120

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)


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
        raise TimeoutError(f"shm transport test exceeded {TIMEOUT_S}s watchdog")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test in this file ends with zero segments of its own."""
    assert own_segments() == []
    yield
    assert own_segments() == []


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


def make_arena(data_bytes=1 << 20):
    return SlabArena.create(data_bytes, multiprocessing.get_context().Lock())


def run(coro):
    return asyncio.run(coro)


@dataclasses.dataclass
class FakeResult:
    image: np.ndarray
    spans: np.ndarray
    meta: dict
    label: str


def fake_result(rng, h=8, w=10):
    image = rng.random((h, w, 3)).astype(np.float32)
    spans = rng.integers(0, 100, size=(h, 2), dtype=np.int64)
    return FakeResult(
        image=image,
        spans=spans,
        meta={"counts": rng.integers(0, 9, size=4), "shared": image},
        label="fake",
    )


class TestAllocator:
    def test_lease_release_roundtrip(self):
        arena = make_arena()
        try:
            free0 = arena.stats()["blocks_free"]
            offset, gen = arena.lease(3 * arena.block_size + 1)
            assert offset >= arena.data_offset
            assert arena.stats()["blocks_free"] == free0 - 4
            assert arena.release(offset, gen)
            assert arena.stats()["blocks_free"] == free0
        finally:
            arena.close()

    def test_stale_generation_release_is_noop(self):
        arena = make_arena()
        try:
            offset, gen = arena.lease(1)
            assert arena.release(offset, gen)
            # Double release: slot already free.
            assert not arena.release(offset, gen)
            # Slot re-leased under a new generation: the old stamp must
            # not free it out from under the new owner.
            offset2, gen2 = arena.lease(1)
            assert offset2 == offset and gen2 != gen
            assert not arena.release(offset, gen)
            assert arena.stats()["leases_active"] == 1
            assert arena.release(offset2, gen2)
        finally:
            arena.close()

    def test_bogus_release_offsets_are_noops(self):
        arena = make_arena()
        try:
            assert not arena.release(arena.data_offset + 1, 1)  # misaligned
            assert not arena.release(arena.data_offset - arena.block_size, 1)
        finally:
            arena.close()

    def test_exhaustion_raises(self):
        arena = make_arena()
        try:
            with pytest.raises(ArenaExhausted):
                arena.lease(arena.data_bytes + 1)
            leases = []
            while True:
                try:
                    leases.append(arena.lease(arena.block_size))
                except ArenaExhausted:
                    break
            assert len(leases) == arena.n_blocks
            # Freeing one block makes exactly one single-block lease viable
            # again, but not a two-block one (no contiguous run).
            assert arena.release(*leases[1])
            with pytest.raises(ArenaExhausted):
                arena.lease(2 * arena.block_size)
            arena.lease(1)
        finally:
            arena.close()

    def test_first_fit_reuses_freed_runs(self):
        arena = make_arena()
        try:
            a = arena.lease(2 * arena.block_size)
            b = arena.lease(2 * arena.block_size)
            arena.release(*a)
            c = arena.lease(arena.block_size)
            assert c[0] == a[0]  # first fit lands in the freed head run
            arena.release(*b)
            arena.release(*c)
        finally:
            arena.close()


class TestExportMaterialize:
    def test_roundtrip_bit_identical_and_readonly(self):
        rng = np.random.default_rng(0)
        original = fake_result(rng)
        arena = make_arena()
        handle = export_result(arena, original)
        # The handle is small — that is the whole point of the transport.
        assert handle.nbytes < original.image.nbytes + 4096
        rebuilt = materialize_handle(arena, handle)
        assert np.array_equal(rebuilt.image, original.image)
        assert np.array_equal(rebuilt.spans, original.spans)
        assert np.array_equal(rebuilt.meta["counts"], original.meta["counts"])
        assert rebuilt.label == "fake"
        assert not rebuilt.image.flags.writeable
        # Arrays referenced twice in the tree are stored once and come
        # back as the same view object.
        assert rebuilt.meta["shared"] is rebuilt.image
        arena.close()
        # The segfault regression: views must stay readable after close
        # (the arena retires the mapping instead of unmapping it).
        assert float(rebuilt.image.sum()) == pytest.approx(
            float(original.image.sum())
        )

    def test_gc_of_result_frees_the_lease(self):
        arena = make_arena()
        try:
            rebuilt = materialize_handle(
                arena, export_result(arena, fake_result(np.random.default_rng(1)))
            )
            assert arena.stats()["leases_active"] == 1
            del rebuilt
            gc.collect()
            assert arena.stats()["leases_active"] == 0
        finally:
            arena.close()

    def test_kept_plane_pins_the_lease(self):
        # A caller that keeps only ``result.image`` and drops the result
        # must keep the slot leased: the next export may not reuse the
        # offset under the kept pixels.
        rng = np.random.default_rng(4)
        arena = make_arena()
        try:
            first = fake_result(rng)
            first.image[:] = 0.25
            rebuilt = materialize_handle(arena, export_result(arena, first))
            kept = rebuilt.image
            del rebuilt
            gc.collect()
            assert arena.stats()["leases_active"] == 1
            second = fake_result(rng)
            second.image[:] = 0.75
            other = materialize_handle(arena, export_result(arena, second))
            assert np.all(kept == np.float32(0.25))
            assert np.all(other.image == np.float32(0.75))
            del kept
            gc.collect()
            assert arena.stats()["leases_active"] == 1
            del other
            gc.collect()
            assert arena.stats()["leases_active"] == 0
        finally:
            arena.close()

    def test_checksum_mismatch_raises_and_releases(self):
        arena = make_arena()
        try:
            handle = export_result(
                arena, fake_result(np.random.default_rng(2))
            )
            # Corrupt one plane byte behind the handle's back.
            plane = arena.ndarray((1,), np.uint8, handle.offset)
            plane[0] ^= 0xFF
            with pytest.raises(ShmTransportError, match="checksum"):
                materialize_handle(arena, handle)
            assert arena.stats()["leases_active"] == 0
        finally:
            arena.close()

    def test_object_arrays_are_rejected(self):
        arena = make_arena()
        try:
            bad = np.empty(2, dtype=object)
            with pytest.raises(ShmTransportError, match="object arrays"):
                export_result(arena, {"bad": bad})
            assert arena.stats()["leases_active"] == 0
        finally:
            arena.close()

    def test_clean_close_unlinks(self):
        arena = make_arena()
        assert arena.name in own_segments()
        arena.close()
        arena.close()  # idempotent
        assert own_segments() == []


class TestPoolTransport:
    def test_pool_frames_bit_identical_over_shm(self, fmodel, cameras):
        gazes = [(5.0, 5.0), (40.0, 30.0), None]

        async def scenario():
            with RenderWorkerPool(fmodel, workers=1, shm_bytes=16 << 20) as pool:
                results = await pool.render(cameras[1], gazes)
                return results, pool.transport_stats()

        results, stats = run(scenario())
        assert stats["transport"] == "shm"
        assert stats["frames_via_shm"] == len(gazes)
        assert stats["frames_via_pipe"] == 0
        assert stats["bytes_via_shm"] > 0
        for gaze, result in zip(gazes, results):
            ref = render_foveated(fmodel, cameras[1], gaze=gaze)
            assert np.array_equal(ref.image, result.image)
            if ref.level_spans is None:  # the reference oracle keeps no spans
                assert result.level_spans is None
                continue
            assert result.level_spans.keys() == ref.level_spans.keys()
            for t, work in ref.level_spans.items():
                assert np.array_equal(work.spans, result.level_spans[t].spans)
                assert np.array_equal(work.sort_work, result.level_spans[t].sort_work)
        assert own_segments() == []

    def test_exhaustion_falls_back_to_pipe_bit_identically(self, fmodel, cameras):
        # An arena too small for a single frame: every frame falls back,
        # pixels must not change, and the segment must still unlink.
        gazes = [(5.0, 5.0), (40.0, 30.0)]

        async def scenario():
            with RenderWorkerPool(fmodel, workers=1, shm_bytes=1) as pool:
                results = await pool.render(cameras[0], gazes)
                return results, pool.transport_stats()

        results, stats = run(scenario())
        assert stats["transport"] == "shm"  # arena exists, frames degraded
        assert stats["frames_via_shm"] == 0
        assert stats["frames_via_pipe"] == len(gazes)
        assert stats["shm_fallbacks"] == len(gazes)
        for gaze, result in zip(gazes, results):
            ref = render_foveated(fmodel, cameras[0], gaze=gaze)
            assert np.array_equal(ref.image, result.image)
        assert own_segments() == []

    def test_shm_zero_disables_arena(self, fmodel, cameras):
        async def scenario():
            with RenderWorkerPool(fmodel, workers=1, shm_bytes=0) as pool:
                await pool.render(cameras[0], [(5.0, 5.0)])
                return pool.transport_stats()

        stats = run(scenario())
        assert stats["transport"] == "pipe"
        assert stats["frames_via_pipe"] == 1
        assert stats["shm_fallbacks"] == 0

    def test_cached_frame_outlives_pool_close(self, fmodel, cameras):
        # FrameCache holds handle-backed frames without copying; the pixels
        # must survive the pool (and arena) shutting down underneath them.
        async def scenario():
            async with ServeLoop(
                fmodel,
                serve_config=ServeConfig(workers=1, shm_bytes=16 << 20),
            ) as loop:
                response = await loop.submit(
                    FrameRequest(0, cameras[0], (20.0, 15.0))
                )
                return response

        response = run(scenario())
        assert own_segments() == []
        ref = render_foveated(fmodel, cameras[0], gaze=(20.0, 15.0))
        assert np.array_equal(ref.image, response.result.image)

    def test_sigkilled_pool_leaks_no_segments(self, fmodel, cameras):
        async def scenario():
            async with ServeLoop(
                fmodel,
                serve_config=ServeConfig(
                    workers=1, cache_max_bytes=None, shm_bytes=16 << 20
                ),
            ) as loop:
                await loop.submit(FrameRequest(0, cameras[0], (20.0, 15.0)))
                for pid in loop._pool.worker_pids():
                    os.kill(pid, signal.SIGKILL)
                with pytest.raises(BrokenProcessPool):
                    await loop.submit(FrameRequest(1, cameras[1], (20.0, 15.0)))
            return True

        assert run(scenario())
        assert own_segments() == []

    def test_worker_pids_survives_missing_executor_internals(self, fmodel, cameras):
        # _executor._processes is a private surface; losing it must mean
        # "no pids", not an AttributeError in crash-handling paths.
        with RenderWorkerPool(fmodel, workers=1, shm_bytes=0) as pool:
            run(pool.render(cameras[0], [(5.0, 5.0)]))
            assert pool.worker_pids()
            executor = pool._executor
            try:
                pool._executor = object()
                assert pool.worker_pids() == []
            finally:
                pool._executor = executor


class TestKnobs:
    def test_resolved_shm_bytes_precedence(self, monkeypatch):
        monkeypatch.delenv(SHM_ENV, raising=False)
        assert resolved_shm_bytes() == DEFAULT_SHM_BYTES
        monkeypatch.setenv(SHM_ENV, str(8 << 20))
        assert resolved_shm_bytes() == 8 << 20
        assert resolved_shm_bytes(4 << 20) == 4 << 20  # explicit beats env
        assert resolved_shm_bytes(0) == 0
        monkeypatch.setenv(SHM_ENV, "0")
        assert resolved_shm_bytes() == 0

    def test_resolved_shm_bytes_bad_values(self, monkeypatch):
        with pytest.raises(ValueError, match="non-negative"):
            resolved_shm_bytes(-1)
        monkeypatch.setenv(SHM_ENV, "lots")
        with pytest.warns(RuntimeWarning, match=SHM_ENV):
            assert resolved_shm_bytes() == DEFAULT_SHM_BYTES
        monkeypatch.setenv(SHM_ENV, "-5")
        with pytest.warns(RuntimeWarning, match="out-of-range"):
            assert resolved_shm_bytes() == DEFAULT_SHM_BYTES

    def test_resolved_worker_viewcache_precedence(self, monkeypatch):
        monkeypatch.delenv(VIEWCACHE_ENV, raising=False)
        assert resolved_worker_viewcache() == DEFAULT_WORKER_VIEWCACHE
        monkeypatch.setenv(VIEWCACHE_ENV, "7")
        assert resolved_worker_viewcache() == 7
        assert resolved_worker_viewcache(3) == 3  # explicit beats env
        with pytest.raises(ValueError, match="at least 1"):
            resolved_worker_viewcache(0)
        monkeypatch.setenv(VIEWCACHE_ENV, "zero")
        with pytest.warns(RuntimeWarning, match=VIEWCACHE_ENV):
            assert resolved_worker_viewcache() == DEFAULT_WORKER_VIEWCACHE

    def test_serve_config_shm_sentinels(self, monkeypatch):
        monkeypatch.delenv(SHM_ENV, raising=False)
        assert ServeConfig(shm_bytes="auto").shm_bytes == DEFAULT_SHM_BYTES
        assert ServeConfig(shm_bytes=None).shm_bytes == 0
        assert ServeConfig(shm_bytes=12 << 20).shm_bytes == 12 << 20
        monkeypatch.setenv(SHM_ENV, str(2 << 20))
        assert ServeConfig(shm_bytes="auto").shm_bytes == 2 << 20
        with pytest.raises(ValueError, match="shm_bytes"):
            ServeConfig(shm_bytes="lots")
        with pytest.raises(ValueError, match="non-negative"):
            ServeConfig(shm_bytes=-4)
