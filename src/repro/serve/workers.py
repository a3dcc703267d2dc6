"""Off-loop render workers: a process pool behind the serve scheduler.

The PR 5 :class:`~repro.serve.scheduler.ServeLoop` rendered misses inline
on the event loop — every miss blocked ``submit()`` for the full render
time and the whole tier was pinned to one core.  This module moves the
render hot path into a ``concurrent.futures.ProcessPoolExecutor`` whose
workers are *stateful*:

- each worker process holds the foveated model, its derived per-level
  tables, and a private :class:`~repro.splat.renderer.ViewCache` of pose
  prefixes, all installed **once** by the pool initializer — per render
  call only ``(camera, gazes)`` tuples travel to the worker and rendered
  frames travel back, never model parameters;
- the backend's persistent span workspace (segment structure, Gaussian
  exp tables) warms up inside each worker and stays resident across
  batches, exactly as it does for the inline path;
- each worker's render thread pool (``render_pool`` in
  :mod:`repro.splat.backends.packed`) gets ``max(1, cpus // workers)``
  threads, so the pool as a whole runs about one render thread per CPU;
  a worker builds its own thread pool, never the parent's (a thread pool
  does not survive fork);
- renders stay **bit-identical** to the inline path: workers run the same
  :func:`repro.foveation.render_foveated_batch` with the same chunking
  (``exact_frames``), and frames are pure functions of ``(model, camera,
  gaze, config)`` — crossing a process boundary changes nothing about the
  pixels.

Workers snapshot the model when the pool starts its processes.  The
scheduler's fingerprint-keyed caches detect in-place model mutation, but a
pool cannot re-snapshot — so every render call carries the caller's model
fingerprint and a worker whose snapshot disagrees raises
:class:`StaleWorkerModelError` instead of silently rendering old
parameters.  Mutating a model mid-serve therefore *fails loudly* under a
worker pool (restart the pool — or serve with ``workers=0`` — to pick up
the mutation).

Rendered frames travel back over the **shared-memory transport**
(:mod:`repro.serve.shm`) when the pool's ``shm_bytes`` knob is non-zero:
workers write frame planes into a leased arena slot and return only a
small :class:`~repro.serve.shm.FrameHandle`; the parent maps the planes
as zero-copy numpy views.  When the arena is exhausted (or SHM is
unavailable) a frame falls back to the classic pickle path — identical
pixels, just slower — and the pool counts the fallback in
:meth:`RenderWorkerPool.transport_stats`.

The start method defaults to ``fork`` where available (workers inherit
the model without pickling it; the pool forks lazily on first render) and
falls back to ``spawn``; ``REPRO_SERVE_MP_START`` overrides.
``REPRO_SERVE_WORKERS`` sets the default worker count for the CLI and
benchmarks (0 = render inline on the event loop);
``REPRO_WORKER_VIEWCACHE`` sizes each worker's private pose-prefix
:class:`~repro.splat.renderer.ViewCache` (arg > env > host profile >
default 64, like every other knob).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from ..envknobs import env_int
from ..foveation.hierarchy import FoveatedModel
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_SPAN, Tracer, set_active_tracer
from ..splat.backends.packed import set_render_threads, usable_cpus
from ..splat.camera import Camera
from ..splat.renderer import RenderConfig
from ..tune.profile import profile_value
from .shm import (
    ArenaExhausted,
    FrameHandle,
    ShmTransportError,
    SlabArena,
    export_result,
    materialize_handle,
    resolved_shm_bytes,
)

__all__ = [
    "BrokenProcessPool",
    "RenderWorkerPool",
    "StaleWorkerModelError",
    "default_workers",
    "resolved_worker_viewcache",
]

WORKERS_ENV = "REPRO_SERVE_WORKERS"
MP_START_ENV = "REPRO_SERVE_MP_START"
VIEWCACHE_ENV = "REPRO_WORKER_VIEWCACHE"
DEFAULT_WORKER_VIEWCACHE = 64


class StaleWorkerModelError(RuntimeError):
    """A worker's model snapshot no longer matches the caller's fingerprint.

    Raised by the worker (and re-raised to the awaiting ``submit()``
    callers) when the serve-side model mutated after the pool's processes
    snapshotted it.  The error is the contract: a pool never serves frames
    of a superseded model as if they were fresh.
    """


def default_workers() -> int:
    """The ``REPRO_SERVE_WORKERS`` default (0 = inline rendering).

    A malformed or negative env value warns and falls back to 0 — the
    same degrade-don't-crash contract as every other env knob
    (:mod:`repro.envknobs`).
    """
    return env_int(WORKERS_ENV, 0, minimum=0)


def resolved_worker_viewcache(maxsize: int | None = None) -> int:
    """The effective per-worker ``ViewCache`` capacity (pose prefixes).

    Precedence: explicit ``maxsize`` > ``$REPRO_WORKER_VIEWCACHE`` > the
    host profile's ``worker_viewcache`` > the built-in default
    (64).  A malformed or out-of-range env value warns and falls through;
    an explicit out-of-range argument raises.
    """
    if maxsize is not None:
        if maxsize < 1:
            raise ValueError("worker viewcache maxsize must be at least 1")
        return int(maxsize)
    fallback = profile_value("worker_viewcache") or DEFAULT_WORKER_VIEWCACHE
    return env_int(VIEWCACHE_ENV, int(fallback), minimum=1)


def _mp_context(start: str | None = None):
    """The multiprocessing context the pool forks/spawns workers from."""
    start = start or os.environ.get(MP_START_ENV) or None
    if start is None:
        methods = multiprocessing.get_all_start_methods()
        start = "fork" if "fork" in methods else "spawn"
    return multiprocessing.get_context(start)


# ----------------------------------------------------------------------
# Worker-process side.  Module-level state + top-level functions: the
# executor pickles callables by qualified name, and the initializer
# installs everything a render needs exactly once per worker process.
# ----------------------------------------------------------------------
_WORKER_STATE: dict | None = None


def _worker_init(
    fmodel: FoveatedModel,
    config: RenderConfig,
    exact_frames: bool,
    viewcache: int = DEFAULT_WORKER_VIEWCACHE,
    shm_name: str | None = None,
    shm_lock=None,
    render_threads: int = 1,
) -> None:
    from ..splat.renderer import ViewCache
    from .regions import foveated_model_fingerprint

    # The viewcache size arrives resolved by the parent (arg > env > host
    # profile > default), so workers never consult env/profile themselves
    # — spawn-started workers see the pool creator's knobs, not their own.
    arena = None
    if shm_name is not None and shm_lock is not None:
        try:
            arena = SlabArena.attach(shm_name, shm_lock)
        except Exception:
            # SHM transport degraded for this worker only: it renders and
            # returns results over the pickle path; the parent counts the
            # fallbacks.  Never fail worker startup over a transport knob.
            arena = None
    set_render_threads(render_threads)
    global _WORKER_STATE
    _WORKER_STATE = {
        "fmodel": fmodel,
        "config": config,
        "exact_frames": exact_frames,
        "cache": ViewCache(maxsize=viewcache),
        "model_fp": foveated_model_fingerprint(fmodel),
        "arena": arena,
    }


def _worker_render(camera: Camera, gazes: tuple, model_fp: tuple | None, trace: bool = False):
    """Render one pose group; frames ride the arena when there is room.

    Returns ``(payload, spans)``.  ``payload`` has one entry per gaze: a
    :class:`~repro.serve.shm.FrameHandle` for frames whose planes landed
    in the shared arena, or the raw ``FRRenderResult`` (pickled through
    the executor pipe) when the arena is absent or full — per frame, so a
    momentarily full arena degrades one frame, not the whole batch.

    When ``trace`` is set, ``spans`` is ``(worker_pid, compact_spans)``
    piggybacked on the result pickle: the worker records its render and
    shm-export spans (plus the backend-internal prepare/alpha-scan/
    composite spans, via the active-tracer seam) into a transient
    :class:`~repro.obs.trace.Tracer` and drains them to compact tuples.
    ``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux — one clock
    domain across fork *and* spawn — so the parent stitches them into its
    trace without any clock translation.  With ``trace`` off, ``spans``
    is ``None`` and the only cost is returning a 2-tuple.
    """
    if _WORKER_STATE is None:  # pragma: no cover - initializer always runs
        raise RuntimeError("render worker used before initialization")
    if model_fp is not None and model_fp != _WORKER_STATE["model_fp"]:
        raise StaleWorkerModelError(
            "serve model mutated after the worker pool snapshotted it; "
            "restart the pool (or serve inline with workers=0) to pick up "
            "the new parameters"
        )
    from ..foveation import render_foveated_batch

    tracer = Tracer(capacity=1024) if trace else None
    prev = set_active_tracer(tracer) if trace else None
    try:
        with tracer.span("render", args={"gazes": len(gazes)}) if trace else NULL_SPAN:
            results = render_foveated_batch(
                _WORKER_STATE["fmodel"],
                camera,
                gazes=list(gazes),
                config=_WORKER_STATE["config"],
                batch_size=1 if _WORKER_STATE["exact_frames"] else None,
                cache=_WORKER_STATE["cache"],
            )
        arena = _WORKER_STATE["arena"]
        if arena is None:
            payload = list(results)
        else:
            payload = []
            with tracer.span("shm-export") if trace else NULL_SPAN:
                for result in results:
                    try:
                        payload.append(export_result(arena, result))
                    except (ArenaExhausted, ShmTransportError):
                        payload.append(result)
    finally:
        if trace:
            set_active_tracer(prev)
    spans = (os.getpid(), tracer.drain_compact()) if trace else None
    return payload, spans


# ----------------------------------------------------------------------
# Serve-loop side.
# ----------------------------------------------------------------------
class RenderWorkerPool:
    """A process pool rendering pose-grouped gaze batches off the event loop.

    One pool serves one ``(fmodel, config, exact_frames)`` triple.  It
    is the executor behind a :class:`~repro.serve.scheduler.ServeLoop`'s
    dispatch seam (the loop's own, or one shared across loops):
    :meth:`render` awaits the executor future without blocking the loop,
    so ``submit()`` latency decouples from render time and concurrent
    pose groups land on distinct cores.
    """

    def __init__(
        self,
        fmodel: FoveatedModel,
        config: RenderConfig | None = None,
        workers: int = 1,
        exact_frames: bool = True,
        mp_start: str | None = None,
        shm_bytes: int | None = None,
        worker_viewcache: int | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.fmodel = fmodel
        self.render_config = config or RenderConfig()
        self.workers = workers
        self.exact_frames = exact_frames
        ctx = _mp_context(mp_start)
        self.shm_bytes = resolved_shm_bytes(shm_bytes)
        self._arena: SlabArena | None = None
        shm_name = shm_lock = None
        if self.shm_bytes > 0:
            try:
                shm_lock = ctx.Lock()
                self._arena = SlabArena.create(self.shm_bytes, shm_lock)
                shm_name = self._arena.name
            except Exception as exc:
                warnings.warn(
                    f"shared-memory frame transport unavailable ({exc}); "
                    "worker frames will ride the pickle path",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self._arena = None
                shm_name = shm_lock = None
        self._executor: ProcessPoolExecutor | None = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=ctx,
            initializer=_worker_init,
            initargs=(
                self.fmodel,
                self.render_config,
                exact_frames,
                resolved_worker_viewcache(worker_viewcache),
                shm_name,
                shm_lock,
                max(1, usable_cpus() // workers),
            ),
        )
        self.renders_dispatched = 0
        self.frames_via_shm = 0
        self.frames_via_pipe = 0
        self.bytes_via_shm = 0
        self.bytes_via_pipe = 0
        self.shm_fallbacks = 0

    async def render(
        self,
        camera: Camera,
        gazes,
        model_fp: tuple | None = None,
        tracer: Tracer | None = None,
    ):
        """Render one pose group ``(camera, gazes)`` in a worker process.

        Returns the worker's ``list[FRRenderResult]`` (one per gaze, in
        order).  Raises :class:`StaleWorkerModelError` if ``model_fp``
        (the caller's fingerprint of the model it *thinks* it is serving)
        disagrees with the worker's snapshot, and
        :class:`BrokenProcessPool` if the pool's processes died.

        With a ``tracer``, the worker's render/export spans (compact
        tuples piggybacked on the result pickle) are stitched into it
        under the worker's pid, and the parent-side handle materialization
        is recorded too — one coherent timeline across the pipe.
        """
        if self._executor is None:
            raise RuntimeError("RenderWorkerPool is closed")
        self.renders_dispatched += 1
        loop = asyncio.get_running_loop()
        payload, spans = await loop.run_in_executor(
            self._executor, _worker_render, camera, tuple(gazes), model_fp,
            tracer is not None,
        )
        if tracer is not None and spans is not None:
            worker_pid, compact = spans
            tracer.adopt(compact, pid=worker_pid, process_label=f"render-worker {worker_pid}")
        if tracer is None:
            return [self._receive(item) for item in payload]
        with tracer.span("materialize", args={"frames": len(payload)}):
            return [self._receive(item) for item in payload]

    def _receive(self, item):
        """Turn one worker payload entry into a result, counting transport.

        A :class:`~repro.serve.shm.FrameHandle` maps to zero-copy views of
        the arena (its lease is released when the rebuilt result is
        collected); anything else already crossed the pipe as pickled
        arrays.  Pipe bytes are counted as plane nbytes — the same measure
        as the arena side — so the two columns compare transport volume,
        not pickle framing overhead.
        """
        if isinstance(item, FrameHandle):
            assert self._arena is not None
            result = materialize_handle(self._arena, item)
            self.frames_via_shm += 1
            self.bytes_via_shm += item.nbytes
            return result
        from .regions import result_nbytes

        self.frames_via_pipe += 1
        self.bytes_via_pipe += result_nbytes(item)
        if self._arena is not None:
            self.shm_fallbacks += 1
        return item

    def worker_pids(self) -> list[int]:
        """PIDs of the live worker processes (spawned lazily on first render).

        Reads the executor's (private) process table defensively: if a
        future stdlib moves it, this degrades to ``[]`` instead of
        crashing ``stats()`` or a shutdown path.
        """
        executor = self._executor
        if executor is None:
            return []
        try:
            processes = executor._processes
            if not processes:
                return []
            return [p.pid for p in processes.values() if p.pid]
        except (AttributeError, TypeError):  # pragma: no cover - stdlib drift
            return []

    def transport_stats(self) -> dict:
        """Frame-transport accounting: bytes over the pipe vs via the arena.

        ``transport`` is the pool's configured path (``"shm"`` when an
        arena is live, else ``"pipe"``); ``shm_fallbacks`` counts frames
        that had to ride the pipe *despite* a live arena (exhaustion).
        ``arena`` carries the allocator occupancy, or ``None``.
        """
        return {
            "transport": "shm" if self._arena is not None else "pipe",
            "shm_bytes": self.shm_bytes,
            "frames_via_shm": self.frames_via_shm,
            "frames_via_pipe": self.frames_via_pipe,
            "bytes_via_shm": self.bytes_via_shm,
            "bytes_via_pipe": self.bytes_via_pipe,
            "shm_fallbacks": self.shm_fallbacks,
            "arena": self._arena.stats() if self._arena is not None else None,
        }

    def register_metrics(self, registry: MetricsRegistry, **labels: str) -> None:
        """Attach transport accounting (and arena occupancy) to ``registry``.

        Callback gauges over the live attributes — ``transport_stats()``
        stays the thin dict view over the same numbers.
        """
        for name, attr in (
            ("worker_renders_dispatched", "renders_dispatched"),
            ("worker_frames_via_shm", "frames_via_shm"),
            ("worker_frames_via_pipe", "frames_via_pipe"),
            ("worker_bytes_via_shm", "bytes_via_shm"),
            ("worker_bytes_via_pipe", "bytes_via_pipe"),
            ("worker_shm_fallbacks", "shm_fallbacks"),
        ):
            registry.gauge_fn(name, lambda a=attr: getattr(self, a), **labels)
        if self._arena is not None:
            self._arena.register_metrics(registry, **labels)

    def close(self) -> None:
        """Shut the pool down, joining (or reaping) every worker process.

        Safe to call on a broken pool and idempotent; pending render
        futures are cancelled, so a closing serve loop never hangs on a
        worker that will not answer.  The transport arena is unlinked
        unconditionally afterwards — clean, broken and crash-unwound pools
        all release their ``/dev/shm`` segment here (frames already
        materialized stay valid: their views pin the mapping, not the
        name).
        """
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        if self._arena is not None:
            self._arena.close()
            self._arena = None

    def __enter__(self) -> "RenderWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
