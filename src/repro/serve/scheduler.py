"""The async serve loop: deadline-aware coalescing over ``render_foveated_batch``.

The first layer above the render dispatchers that treats frames as
*requests*.  Clients ``await ServeLoop.submit(FrameRequest)``; the loop

1. serves exact-key :class:`~repro.serve.regions.FrameCache` hits
   synchronously (no queueing, no render),
2. queues misses for the batcher task, which coalesces everything pending
   — up to ``batch_budget`` requests, waiting at most ``batch_deadline_s``
   for the batch to fill (never past a pending frame deadline) — and
   dispatches each **pose's** requests as one
   :func:`repro.foveation.render_foveated_batch` call (the pose's
   projection prefix is prepared once, and each (tile, level) render its
   gaze samples need is rendered once and shared by them),
3. de-duplicates requests that collapse onto the same cache key inside a
   batch: the key's first request is rendered at *its* gaze, later ones are
   served from that frame as hits.

**Deadlines.**  A request may carry a frame budget
(``FrameRequest.deadline_s``, defaulting to one refresh period when
``ServeConfig.refresh_hz`` is set).  The batcher renders misses earliest
deadline first, caps the straggler wait so collecting never eats a
pending frame's slack, and — when a render is predicted to finish late
(EWMA of recent per-frame render time) — can *degrade* instead of miss:
serve the cached frame of a neighbouring gaze region of the same pose
(the requested gaze then falls in that frame's peripheral, coarser LOD)
rather than pay a late render.  Per-response ``deadline_missed`` /
``degraded`` flags and loop counters make the policy auditable:
``deadline_misses + on_time == requests_served`` always.

**Prefetch.**  With ``ServeConfig.prefetch`` set, a
:class:`~repro.serve.predictor.GazePredictor` extrapolates each client's
scanpath and enqueues the predicted next gaze regions as **low-priority
prefetch requests**: real misses always dequeue first, prefetches fill
leftover batch capacity, and a prefetch that was overtaken (its region
got rendered or cached, or it went stale) is dropped, not rendered.
Prefetched frames enter the :class:`FrameCache` but are *never* counted
as client traffic — not in latencies, hit/miss counters, batch sizes, or
``requests_served`` — so the hit rate stays an honest property of client
requests (``prefetch_useful`` counts the hits prefetching created).

Guarantees: a cache-miss response is **bit-identical** to a per-request
:func:`repro.foveation.render_foveated` call at the request's own camera
and gaze — every pixel row's transmittance scan sees only its own spans,
so a tile's render does not depend on the frames it is shared with; a
hit returns a frame previously rendered for the same (model, pose, gaze region, config) key — never
across model mutations, backends, or poses.  A prefetch never defines a
client miss's gaze: client requests claim key leadership before
prefetches, so exactness is unaffected by speculation.

Per-request latency, batch sizes and cache counters are recorded on the
loop for the replay harness and benchmarks.  Latency is stamped **per
pose group** as its results arrive — one group's requests are never
charged a later group's render time.  Every pose group goes through one
executor seam, ``ServeLoop._dispatch``: with ``workers=0`` (the default)
the executor renders inline on the event loop; with ``workers>0`` it is
a :class:`~repro.serve.workers.RenderWorkerPool` process reached via
``run_in_executor``, with frames still bit-identical to the inline path.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import math
import time
from typing import ClassVar, Sequence

from ..envknobs import KNOBS
from ..foveation import FRRenderResult, render_foveated_batch
from ..foveation.hierarchy import FoveatedModel
from ..obs.metrics import Histogram, MetricsRegistry
from ..obs.trace import Tracer, set_active_tracer
from ..splat.cachekey import digests_on_this_thread
from ..splat.camera import Camera
from ..splat.renderer import RenderConfig, ViewCache
from .predictor import GazePredictor, PredictorConfig
from .regions import FrameCache, GazeGridSpec, quantize_gaze
from .workers import RenderWorkerPool

# EWMA weight of the newest per-frame render measurement (the estimator
# behind the degrade policy and the deadline-capped straggler wait).
_RENDER_EWMA_ALPHA = 0.4

# The batcher's coalescing cap (8 by default), its batch-fill wait in
# seconds (0 by default: batch only what is already pending), and
# per-request tracing (off by default).
BATCH_BUDGET_ENV = KNOBS["batch_budget"].env
DEFAULT_BATCH_BUDGET = KNOBS["batch_budget"].default
resolved_batch_budget = KNOBS["batch_budget"].resolve
BATCH_DEADLINE_ENV = KNOBS["batch_deadline_s"].env
resolved_batch_deadline = KNOBS["batch_deadline_s"].resolve
TRACE_ENV = KNOBS["trace"].env


@dataclasses.dataclass(frozen=True)
class FrameRequest:
    """One client's ask for a foveated frame at a pose and gaze.

    ``deadline_s`` is the frame budget in seconds *from submission* (e.g.
    ``1/90`` for a 90 Hz client); ``None`` defers to the loop's
    ``ServeConfig.refresh_hz`` (and means best-effort when that is unset).

    ``ServeLoop.submit`` computes the request's cache key (model, camera
    and gaze-region fingerprints) once.  The model is hashed only when its
    parameters changed since the last key; an unchanged model is compared
    byte for byte against a snapshot instead, which still detects any
    in-place mutation.  The ``request`` trace span's ``hashed`` arg says
    which it was.
    """

    client_id: int
    camera: Camera
    gaze: tuple[float, float] | None = None
    deadline_s: float | None = None


@dataclasses.dataclass(repr=False)
class FrameResponse:
    """A served frame plus how it was produced (for reports and tests).

    ``batch_size`` is the number of distinct client renders in the **pose
    group** that produced this frame (0 = served from cache, no render) —
    the same per-group granularity ``ServeLoop.batch_sizes`` records, so
    the two never disagree on batching semantics.  ``deadline_missed`` is
    whether the frame resolved after its deadline; ``degraded`` marks a
    frame served from a *neighbouring* gaze region's cache entry under
    deadline pressure (coarser LOD at the requested gaze) instead of a
    late render.
    """

    request: FrameRequest
    result: FRRenderResult
    cache_hit: bool
    batch_size: int
    latency_s: float
    deadline_s: float | None = None  # effective frame budget (None = best-effort)
    deadline_missed: bool = False
    degraded: bool = False

    def __repr__(self) -> str:
        # Compact on purpose: the default dataclass repr would stringify the
        # frame's pixel and map arrays — asyncio reprs task results during
        # teardown, which made *printing* responses cost more than
        # rendering them.
        return (
            f"FrameResponse(client={self.request.client_id}, "
            f"cache_hit={self.cache_hit}, batch_size={self.batch_size}, "
            f"latency_ms={self.latency_s * 1e3:.3f}, "
            f"deadline_missed={self.deadline_missed}, degraded={self.degraded})"
        )


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    """Scheduler knobs (see ``serve/README.md`` for the tuning story).

    ``batch_budget`` caps how many queued requests coalesce into one
    batching cycle; ``batch_deadline_s`` is the longest the batcher waits
    for the batch to fill once it holds a request (0 = batch only what is
    already pending — the deterministic replay setting; the wait is
    additionally capped by the earliest pending frame deadline).
    ``cache_max_bytes = None`` disables the frame cache entirely (every
    request renders).

    The knob fields (``batch_budget``, ``batch_deadline_s``,
    ``cache_max_bytes``, ``shm_bytes``, ``trace``) default to *resolution
    sentinels* (``None`` / ``"auto"``), which ``__post_init__`` resolves
    through their rows of the knob table (:mod:`repro.envknobs`):
    explicit argument > environment variable > a hand-written host
    profile (:mod:`repro.tune`) > built-in default.  A constructed config
    always carries concrete values — resolution happens once, not per
    request.

    ``refresh_hz`` derives the default per-request frame budget
    (``1/refresh_hz`` seconds — 72/90/120 Hz VR refreshes) for requests
    that carry no explicit ``deadline_s``; ``None`` leaves such requests
    best-effort.  ``degrade_on_deadline`` enables the drop-or-degrade
    policy: a miss predicted to render past its deadline is served the
    cached frame of the nearest other gaze region of the same pose (the
    requested gaze lands in its coarser periphery) instead of rendering
    late; it only ever fires for requests that *have* deadlines.
    ``prefetch`` (a :class:`~repro.serve.predictor.PredictorConfig`)
    enables speculative gaze prefetch; ``None`` disables it.

    Every pose group of misses renders as one ``render_foveated_batch``
    call, which renders each (tile, level) pair its gazes need once; every
    frame is still **bit-identical** to a per-request ``render_foveated``,
    because every pixel row's transmittance scan sees only its own spans.
    ``exact_frames`` is a class constant ``True`` that only the benchmark
    record reads; it is not a constructor field.

    ``workers`` picks the executor behind the loop's one dispatch seam:
    ``0`` (default) renders inline, ``N > 0`` starts a
    ``RenderWorkerPool`` of N processes and dispatches each pose group to
    a worker — same frames, but ``submit()`` stays responsive during
    renders and client pose groups parallelize across cores.

    ``shm_bytes`` sizes the pool's shared-memory frame transport
    (:mod:`repro.serve.shm`): workers write frame planes into one slab
    arena and return tiny handles instead of pickling megabytes through
    the executor pipe.  ``"auto"`` resolves to 64 MiB by default; ``0``
    (or ``None``) disables the arena and every frame rides the pickle
    path.  Transport never changes pixels — an exhausted or unavailable
    arena falls back to pickle per frame.

    ``trace`` enables per-request span tracing (:mod:`repro.obs.trace`):
    the loop builds (or is handed) a :class:`~repro.obs.Tracer` and
    records the full request lifecycle — queue wait, batch formation,
    dedup, per-pose-group renders with backend-internal stages, worker
    spans stitched across the executor pipe — exportable as
    Chrome/Perfetto JSON.  ``None`` defers to ``$REPRO_TRACE``; off by
    default, and the disabled path is a no-op (CI-gated ≤2% overhead).
    """

    batch_budget: int | None = None
    batch_deadline_s: float | None = None
    cache_max_bytes: int | str | None = "auto"
    grid: GazeGridSpec = GazeGridSpec()
    workers: int = 0
    refresh_hz: float | None = None
    degrade_on_deadline: bool = True
    prefetch: PredictorConfig | None = None
    shm_bytes: int | str | None = "auto"
    trace: bool | None = None

    exact_frames: ClassVar[bool] = True

    # Knob fields, named as their rows of the knob table: field -> (the
    # sentinel that means "resolve", what an explicit None stands for).
    _KNOB_FIELDS: ClassVar[dict] = {
        "batch_budget": (None, None),
        "batch_deadline_s": (None, None),
        "cache_max_bytes": ("auto", None),
        "shm_bytes": ("auto", 0),
        "trace": (None, None),
    }

    def __post_init__(self) -> None:
        # Resolve the knob sentinels once, at construction (the dataclass
        # is frozen, hence object.__setattr__).  An explicit value goes
        # through its row too, which raises on an out-of-range one.
        for field, (sentinel, unset) in self._KNOB_FIELDS.items():
            knob, value = KNOBS[field], getattr(self, field)
            if isinstance(value, str) and value != sentinel:
                raise ValueError(
                    f"{field} must be an int, None, or the sentinel {sentinel!r}"
                )
            if value == sentinel:
                value = knob.resolve()
            elif value is None:
                value = unset
            else:
                value = knob.resolve(value)
            object.__setattr__(self, field, value)
        if self.workers < 0:
            raise ValueError("workers must be non-negative")
        if self.refresh_hz is not None and self.refresh_hz <= 0:
            raise ValueError("refresh_hz must be positive")

    @property
    def frame_budget_s(self) -> float | None:
        """The default per-request deadline (one refresh period), if any."""
        return 1.0 / self.refresh_hz if self.refresh_hz is not None else None


@dataclasses.dataclass
class _Pending:
    request: FrameRequest
    key: tuple
    future: asyncio.Future | None  # None for loop-internal prefetch requests
    t_submit: float
    deadline_s: float | None = None  # relative frame budget
    t_deadline: float | None = None  # absolute (perf_counter clock)
    prefetch: bool = False
    hashed: bool = False  # the key's model fingerprint was digested


def _pose_groups(pending: list[_Pending]) -> list[list[_Pending]]:
    """Group requests by pose (the key's camera fingerprint), order kept."""
    groups: dict[tuple, list[_Pending]] = {}
    for p in pending:
        groups.setdefault(p.key[1], []).append(p)
    return list(groups.values())


class _TwoClassQueue:
    """An asyncio queue with an urgent and a low-priority (prefetch) class.

    ``get`` always drains urgent items before prefetch items — that *is*
    the preemption policy: a real miss entering the queue overtakes every
    pending speculation.  Items live in plain deques until a getter pops
    them **synchronously after resuming**, so a getter cancelled between
    wake-up and resumption never strands an item outside the queue — the
    lost-request race the old ``asyncio.wait_for(queue.get(), ...)``
    pattern allowed (a timeout landing after the getter dequeued could
    drop the item on the floor and hang ``join()`` forever).
    ``drain_getter`` completes the pattern: it cancels an outstanding
    ``get`` task and *returns* the item if the cancellation raced a
    successful pop.

    ``join``/``task_done`` follow ``asyncio.Queue`` semantics (``close``
    drains on them); ``requeue`` puts a recovered item back at the front
    of its class without re-counting it as new work.
    """

    def __init__(self) -> None:
        self._urgent: collections.deque[_Pending] = collections.deque()
        self._prefetch: collections.deque[_Pending] = collections.deque()
        self._getters: collections.deque[asyncio.Future] = collections.deque()
        self._join_waiters: list[asyncio.Future] = []
        self._unfinished = 0

    def qsize(self) -> int:
        return len(self._urgent) + len(self._prefetch)

    @property
    def urgent_size(self) -> int:
        return len(self._urgent)

    @property
    def prefetch_size(self) -> int:
        return len(self._prefetch)

    def empty(self) -> bool:
        return not (self._urgent or self._prefetch)

    def put_nowait(self, item: _Pending) -> None:
        (self._prefetch if item.prefetch else self._urgent).append(item)
        self._unfinished += 1
        self._wakeup_next()

    def requeue(self, item: _Pending) -> None:
        """Put a recovered (already-counted) item back at the head of its class."""
        (self._prefetch if item.prefetch else self._urgent).appendleft(item)
        self._wakeup_next()

    def get_nowait(self) -> _Pending:
        if self._urgent:
            return self._urgent.popleft()
        if self._prefetch:
            return self._prefetch.popleft()
        raise asyncio.QueueEmpty

    async def get(self) -> _Pending:
        while self.empty():
            waiter = asyncio.get_running_loop().create_future()
            self._getters.append(waiter)
            try:
                await waiter
            except BaseException:
                waiter.cancel()
                try:
                    self._getters.remove(waiter)
                except ValueError:
                    pass
                # Our wake-up may have been consumed by the cancellation;
                # pass it on so a concurrent getter is not starved.
                if not self.empty():
                    self._wakeup_next()
                raise
        return self.get_nowait()

    @staticmethod
    async def drain_getter(getter: asyncio.Future) -> _Pending | None:
        """Cancel an outstanding ``get`` task, recovering a raced item.

        If the getter popped an item in the same event-loop tick the
        caller decided to stop waiting, cancellation does not take — the
        item is returned instead of being dropped (the satellite-bug fix).
        """
        getter.cancel()
        try:
            return await getter
        except (asyncio.CancelledError, asyncio.QueueEmpty):
            return None

    def _wakeup_next(self) -> None:
        while self._getters:
            waiter = self._getters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                break

    def task_done(self) -> None:
        if self._unfinished <= 0:
            raise ValueError("task_done() called more times than items queued")
        self._unfinished -= 1
        if self._unfinished == 0:
            for waiter in self._join_waiters:
                if not waiter.done():
                    waiter.set_result(None)
            self._join_waiters.clear()

    async def join(self) -> None:
        if self._unfinished == 0:
            return
        waiter = asyncio.get_running_loop().create_future()
        self._join_waiters.append(waiter)
        await waiter


class ServeLoop:
    """Accepts per-client frame requests, serves them cached and batched.

    Use as an async context manager (or ``start()`` / ``close()``)::

        async with ServeLoop(fmodel, config) as loop:
            response = await loop.submit(FrameRequest(0, camera, gaze))

    ``close()`` drains the queue before returning, so every submitted
    request is answered — render failures (including a crashed worker
    pool) resolve their requests' futures with the exception rather than
    hanging the drain.  One ``ViewCache`` (shared or private) memoizes
    pose prefixes across batches; the ``FrameCache`` holds whole frames per
    gaze region.  ``worker_pool`` lets several loops (one after another,
    or side by side) share one pool; a loop only owns — creates and
    closes — a pool it built itself from ``serve_config.workers``.
    """

    def __init__(
        self,
        fmodel: FoveatedModel,
        config: RenderConfig | None = None,
        serve_config: ServeConfig | None = None,
        frame_cache: FrameCache | None = None,
        view_cache: ViewCache | None = None,
        worker_pool: RenderWorkerPool | None = None,
        tracer: Tracer | None = None,
        clock=None,
    ) -> None:
        self.fmodel = fmodel
        self.render_config = config or RenderConfig()
        self.serve_config = serve_config or ServeConfig()
        # The clock seam: every lifecycle stamp (submit, deadlines, render
        # timing, prefetch expiry) reads this callable, so tests and
        # replays can drive the loop on a fake deterministic clock instead
        # of sleeping.  Must be monotonic; defaults to time.perf_counter.
        self._clock = clock if clock is not None else time.perf_counter
        if tracer is None and self.serve_config.trace:
            tracer = Tracer(clock=self._clock)
        self.tracer = tracer
        # Batcher-side spans ride lane 0; request spans ride per-client lanes.
        if tracer is not None:
            tracer.name_thread(0, "batcher")
        self._traced_clients: set[int] = set()
        # Per-stage latency histograms (log-bucket, mergeable): queue wait
        # for rendered misses, per-request render time, and total client
        # latency.  Always on — a handful of
        # observes per request — so replay reports carry a stage
        # breakdown with tracing off.
        self.stage_histograms: dict[str, Histogram] = {
            "queue": Histogram(),
            "render": Histogram(),
            "total": Histogram(),
        }
        if frame_cache is not None:
            self.frame_cache: FrameCache | None = frame_cache
        elif self.serve_config.cache_max_bytes is not None:
            self.frame_cache = FrameCache(
                max_bytes=self.serve_config.cache_max_bytes,
                spec=self.serve_config.grid,
            )
        else:
            self.frame_cache = None
        # Key computation lives on a FrameCache even when caching is
        # disabled (keys still drive in-batch dedup); the explicit
        # max_bytes keeps the keyer constructible in that case.
        self._keyer = self.frame_cache or FrameCache(
            max_bytes=1, spec=self.serve_config.grid
        )
        self.view_cache = view_cache or ViewCache(maxsize=256)
        self.predictor = (
            GazePredictor(self.serve_config.prefetch)
            if self.serve_config.prefetch is not None
            else None
        )
        self.latencies_s: list[float] = []
        self.batch_sizes: list[int] = []
        self.requests_served = 0
        self.max_queue_depth = 0
        # Deadline accounting: on_time + deadline_misses == requests_served
        # (requests without a deadline are on time by definition).
        self.on_time = 0
        self.deadline_misses = 0
        self.degraded_served = 0
        # Prefetch accounting (loop-internal traffic, never client traffic).
        self.prefetch_enqueued = 0
        self.prefetch_rendered = 0
        self.prefetch_dropped = 0
        self.prefetch_failed = 0
        self.prefetch_useful = 0
        self.degrade_backfills = 0
        self._inflight_prefetch: set[tuple] = set()
        self._prefetched_keys: set[tuple] = set()
        self._render_ewma_s: float | None = None
        self._queue: _TwoClassQueue | None = None
        self._batcher: asyncio.Task | None = None
        self._pool = worker_pool
        self._owns_pool = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._batcher is not None:
            raise RuntimeError("ServeLoop already started")
        if self._pool is None and self.serve_config.workers > 0:
            self._pool = RenderWorkerPool(
                self.fmodel,
                self.render_config,
                workers=self.serve_config.workers,
                shm_bytes=self.serve_config.shm_bytes,
            )
            self._owns_pool = True
        self._queue = _TwoClassQueue()
        self._batcher = asyncio.create_task(self._run())

    async def close(self) -> None:
        """Drain every queued request, then stop the batcher and its pool.

        Render errors never stall the drain: failed renders resolve their
        futures with the exception inside the batcher, and if the batcher
        task itself dies (a scheduler bug — nothing would ever drain the
        queue) the remaining queued requests are failed here with the
        batcher's exception instead of deadlocking ``close()``.
        """
        if self._batcher is None:
            return
        drain = asyncio.ensure_future(self._queue.join())
        await asyncio.wait(
            {drain, self._batcher}, return_when=asyncio.FIRST_COMPLETED
        )
        if self._batcher.done() and not drain.done():
            drain.cancel()
            if self._batcher.cancelled():
                exc: BaseException = RuntimeError(
                    "ServeLoop batcher was cancelled while requests were queued"
                )
            else:
                exc = self._batcher.exception() or RuntimeError(
                    "ServeLoop batcher exited while requests were queued"
                )
            while not self._queue.empty():
                pending = self._queue.get_nowait()
                if pending.future is not None and not pending.future.done():
                    pending.future.set_exception(exc)
                self._queue.task_done()
        self._batcher.cancel()
        try:
            await self._batcher
        except asyncio.CancelledError:
            pass
        self._batcher = None
        self._queue = None
        if self._owns_pool and self._pool is not None:
            self._pool.close()
            self._pool = None
            self._owns_pool = False

    async def __aenter__(self) -> "ServeLoop":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def _request_key(self, request: FrameRequest) -> tuple:
        return self._keyer.key(
            self.fmodel, request.camera, request.gaze, self.render_config
        )

    def _effective_deadline(self, request: FrameRequest) -> float | None:
        if request.deadline_s is not None:
            return request.deadline_s
        return self.serve_config.frame_budget_s

    async def submit(self, request: FrameRequest) -> FrameResponse:
        """Serve one request: synchronously on a cache hit, batched otherwise."""
        if self._queue is None:
            raise RuntimeError("ServeLoop is not running (use `async with`)")
        t0 = self._clock()
        digests = digests_on_this_thread()
        key = self._request_key(request)
        hashed = digests_on_this_thread() != digests
        deadline_s = self._effective_deadline(request)
        t_deadline = t0 + deadline_s if deadline_s is not None else None
        if self.predictor is not None:
            self.predictor.observe(request.client_id, request.gaze)
        if self.frame_cache is not None:
            # Counters are managed per *request outcome* (here and in
            # ``_render_batch``) rather than per raw lookup, so a queued
            # request re-checked before rendering is never double-counted:
            # cache hits + misses always sum to requests served.
            result = self.frame_cache.peek(key)
            if result is not None:
                self.frame_cache.hits += 1
                self._note_prefetch_use(key)
                response = self._resolve(
                    _Pending(
                        request, key, None, t0, deadline_s, t_deadline,
                        hashed=hashed,
                    ),
                    result,
                    cache_hit=True,
                    batch_size=0,
                    now=self._clock(),
                )
                self._maybe_prefetch(request, key, t0)
                return response
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait(
            _Pending(
                request, key, future, t0, deadline_s, t_deadline, hashed=hashed
            )
        )
        depth = self._queue.urgent_size
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        self._maybe_prefetch(request, key, t0)
        return await future

    # ------------------------------------------------------------------
    # Predictive prefetch
    # ------------------------------------------------------------------
    def _maybe_prefetch(
        self, request: FrameRequest, key: tuple, now: float
    ) -> None:
        """Enqueue the client's predicted next gaze regions at low priority.

        Predictions reuse the triggering request's model/camera/config
        fingerprints (only the gaze region differs), so speculation costs
        zero extra model hashing.  A prediction is skipped when it
        collapses onto the current region, is already cached, is already
        in flight as a prefetch, or the speculation backlog is full.
        """
        config = self.serve_config.prefetch
        if (
            config is None
            or self.frame_cache is None
            or self._queue is None
            or request.gaze is None
        ):
            return
        camera = request.camera
        predictions = self.predictor.predict(
            request.client_id, camera.width, camera.height
        )
        if not predictions:
            return
        budget = self.serve_config.frame_budget_s
        spec = self.serve_config.grid
        for step, gaze in enumerate(predictions, start=1):
            if len(self._inflight_prefetch) >= config.max_backlog:
                break
            region = quantize_gaze(camera, gaze, spec)
            pkey = (key[0], key[1], region, key[3])
            if (
                pkey == key
                or pkey in self._inflight_prefetch
                or self.frame_cache.contains(pkey)
            ):
                continue
            # A speculation is useful until the frame it anticipates is
            # comfortably past; after that, rendering it would be pure
            # waste, so it carries its own (generous) expiry.
            expiry = (
                now + (step + config.horizon) * budget
                if budget is not None
                else None
            )
            self._queue.put_nowait(
                _Pending(
                    request=FrameRequest(
                        client_id=request.client_id,
                        camera=camera,
                        gaze=gaze,
                        deadline_s=request.deadline_s,
                    ),
                    key=pkey,
                    future=None,
                    t_submit=now,
                    deadline_s=None,
                    t_deadline=expiry,
                    prefetch=True,
                )
            )
            self._inflight_prefetch.add(pkey)
            self.prefetch_enqueued += 1

    def _note_prefetch_use(self, key: tuple) -> None:
        """Attribute a client cache hit to the prefetch that created the entry."""
        if key in self._prefetched_keys:
            self.prefetch_useful += 1
            self._prefetched_keys.discard(key)

    # ------------------------------------------------------------------
    # Batcher
    # ------------------------------------------------------------------
    def _collect_wait_s(self, batch: list[_Pending], remaining: float) -> float:
        """Cap the straggler wait by the earliest pending frame deadline.

        Waiting for a fuller batch must never eat the slack a queued
        request needs to render before its deadline; the cap subtracts the
        current per-frame render estimate from the tightest deadline.
        """
        deadlines = [
            p.t_deadline
            for p in batch
            if p.t_deadline is not None and not p.prefetch
        ]
        if not deadlines:
            return remaining
        estimate = self._render_ewma_s or 0.0
        slack = min(deadlines) - self._clock() - estimate
        return min(remaining, slack)

    async def _collect(self) -> list[_Pending]:
        """Block for one pending request, then coalesce up to the budget.

        Everything already queued is taken immediately (real misses before
        prefetches — the queue's class order); if the batch is still short
        and a deadline is configured, the batcher keeps accepting arrivals
        until it expires or a queued frame deadline would be jeopardized.
        The timed wait uses a shielded getter plus ``drain_getter``: a
        timeout that races a successful pop *recovers* the popped item
        instead of dropping it (the lost-request race the old
        ``asyncio.wait_for(queue.get(), ...)`` allowed, which left the
        request's future unresolved and ``close()`` hung on ``join()``).
        """
        assert self._queue is not None
        budget = self.serve_config.batch_budget
        batch = [await self._queue.get()]
        t_form = self._clock()
        while len(batch) < budget and not self._queue.empty():
            batch.append(self._queue.get_nowait())
        if self.serve_config.batch_deadline_s > 0:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + self.serve_config.batch_deadline_s
            while len(batch) < budget:
                timeout = self._collect_wait_s(batch, deadline - loop.time())
                if timeout <= 0:
                    break
                getter = asyncio.ensure_future(self._queue.get())
                try:
                    batch.append(
                        await asyncio.wait_for(asyncio.shield(getter), timeout)
                    )
                except asyncio.TimeoutError:
                    recovered = await _TwoClassQueue.drain_getter(getter)
                    if recovered is not None:
                        batch.append(recovered)
                    break
                except asyncio.CancelledError:
                    # The batcher is being torn down mid-wait: put a raced
                    # item back (still counted as queued work) so close()'s
                    # drain can fail it instead of losing it.
                    recovered = await _TwoClassQueue.drain_getter(getter)
                    if recovered is not None:
                        self._queue.requeue(recovered)
                    raise
        if self.tracer is not None:
            self.tracer.add(
                "batch-form",
                "serve",
                t_form,
                self._clock(),
                args={"n": len(batch)},
            )
        return batch

    async def _run(self) -> None:
        assert self._queue is not None
        while True:
            batch = await self._collect()
            try:
                await self._render_batch(batch)
            except Exception as exc:  # pragma: no cover - backstop only
                # _render_batch scopes render errors to their pose group;
                # anything escaping here is a scheduler bug, but clients
                # must still never hang on an unresolved future.
                for pending in batch:
                    if pending.future is not None and not pending.future.done():
                        pending.future.set_exception(exc)
            finally:
                for _ in batch:
                    self._queue.task_done()

    async def _render_inline(
        self,
        camera: Camera,
        gazes: list,
        model_fp: tuple | None = None,
        tracer: Tracer | None = None,
    ) -> list[FRRenderResult]:
        """The ``workers=0`` executor: render one pose group on the event loop.

        Same signature as :meth:`RenderWorkerPool.render`, so
        :meth:`_dispatch` drives both executors alike.  ``model_fp`` goes
        unused: the inline path renders the live model, which cannot be
        stale.  While the group renders, ``tracer`` is the active tracer,
        so the backends' prepare/alpha-scan/composite spans land in the
        loop's timeline.
        """
        prev = set_active_tracer(tracer) if tracer is not None else None
        try:
            return render_foveated_batch(
                self.fmodel,
                camera,
                gazes=gazes,
                config=self.render_config,
                cache=self.view_cache,
            )
        finally:
            if tracer is not None:
                set_active_tracer(prev)

    async def _dispatch(
        self, group: list[_Pending]
    ) -> tuple[list[FRRenderResult] | BaseException, float, float]:
        """Render one pose group on the loop's executor.

        The executor is the worker pool's :meth:`RenderWorkerPool.render`
        when the loop has a pool, else :meth:`_render_inline`.  The
        outcome carries the group's own start/completion stamps, so a
        request is charged its own group's render time, never a
        sibling's.  A failure (a raising render, a stale worker model, a
        crashed pool) comes back in place of the results and fails only
        this group.  The model fingerprint (the key's first element,
        already computed) rides along so a worker whose snapshot went
        stale fails the render instead of serving old parameters.
        """
        render = self._pool.render if self._pool is not None else self._render_inline
        t_start = self._clock()
        try:
            results = await render(
                group[0].request.camera,
                [p.request.gaze for p in group],
                model_fp=group[0].key[0],
                tracer=self.tracer,
            )
        except Exception as exc:
            return exc, t_start, self._clock()
        t_done = self._clock()
        per_frame_s = (t_done - t_start) / len(group)
        if self._render_ewma_s is None:
            self._render_ewma_s = per_frame_s
        else:
            self._render_ewma_s += _RENDER_EWMA_ALPHA * (
                per_frame_s - self._render_ewma_s
            )
        return results, t_start, t_done

    def _try_degrade(
        self, pending: _Pending, followers: dict[tuple, list[_Pending]]
    ) -> bool:
        """Serve a cached neighbouring-region frame instead of a late render.

        Fires only for deadline-carrying requests that are already late or
        whose render (per the EWMA estimate) is predicted to finish past
        the deadline, and only when the cache holds a frame of the *same
        pose* at another gaze region — the requested gaze then falls in
        that frame's peripheral (coarser) LOD, which is the degrade the
        policy trades against a missed deadline.

        Every degrade also enqueues a **backfill**: a low-priority render
        of the exact key, so a client dwelling in the region gets the
        correct frame on a following request instead of staring at the
        neighbour's frame forever.  The backfill rides the prefetch class
        (real misses still preempt it) and its frame is accounted exactly
        like a prefetch — cache-filling traffic, never client traffic.
        """
        if (
            not self.serve_config.degrade_on_deadline
            or self.frame_cache is None
            or pending.t_deadline is None
        ):
            return False
        now = self._clock()
        estimate = self._render_ewma_s
        predicted = now + (estimate if estimate is not None else 0.0)
        if now < pending.t_deadline and predicted <= pending.t_deadline:
            return False
        alternate = self.frame_cache.degraded_alternate(pending.key)
        if alternate is None:
            return False
        if pending.key not in self._inflight_prefetch and self._queue is not None:
            self._queue.put_nowait(
                _Pending(
                    request=pending.request,
                    key=pending.key,
                    future=None,
                    t_submit=pending.t_submit,
                    prefetch=True,
                )
            )
            self._inflight_prefetch.add(pending.key)
            self.degrade_backfills += 1
        stamp = self._clock()
        self._resolve(
            pending, alternate, cache_hit=False, batch_size=0, now=stamp,
            degraded=True,
        )
        for follower in followers.pop(pending.key, []):
            self._resolve(
                follower, alternate, cache_hit=False, batch_size=0, now=stamp,
                degraded=True,
            )
        return True

    async def _render_batch(self, batch: Sequence[_Pending]) -> None:
        """Render a coalesced batch and resolve every pending future.

        The steps run in order: classify (EDF order, queue-wait stamps),
        dedup and hits, degrade, prefetch leaders, pose groups, dispatch
        and resolve.  Frames are bit-identical to per-request renders
        whatever the batch held.

        Client pose groups dispatch together.  On the pool they render
        concurrently in worker processes; inline they run one after
        another in EDF order.  Their requests resolve before any
        speculation renders.  Speculative pose groups follow one at a
        time, and each first yields to the event loop: if a client miss
        is then waiting, the speculation goes back to the low-priority
        queue instead of making the miss wait out a render it does not
        need.  Client pose groups never share a render call with
        speculations, so a client's latency never includes a prefetch
        frame's render time.
        """
        clients, speculative = self._classify(batch)
        leaders, followers = self._dedup_and_hits(clients)
        leaders = [p for p in leaders if not self._try_degrade(p, followers)]
        spec_leaders = self._prefetch_leaders(speculative, followers)
        client_groups = _pose_groups(leaders)
        outcomes = await asyncio.gather(
            *(self._dispatch(group) for group in client_groups)
        )
        for group, outcome in zip(client_groups, outcomes):
            self._resolve_group(group, outcome, followers)
        for group in _pose_groups(spec_leaders):
            await asyncio.sleep(0)  # let an arrived client miss enqueue
            if self._queue is not None and self._queue.urgent_size > 0:
                for pending in group:
                    self._inflight_prefetch.add(pending.key)
                    self._queue.put_nowait(pending)
                continue
            self._resolve_group(group, await self._dispatch(group), followers)

    def _classify(
        self, batch: Sequence[_Pending]
    ) -> tuple[list[_Pending], list[_Pending]]:
        """Split a batch into EDF-ordered client requests and speculations.

        The queue wait of every client request ends here — hits and
        followers included, since they waited just the same.
        """
        clients = sorted(
            (p for p in batch if not p.prefetch),
            key=lambda p: (
                p.t_deadline if p.t_deadline is not None else math.inf,
                p.t_submit,
            ),
        )
        speculative = [p for p in batch if p.prefetch]
        t_batch = self._clock()
        queue_hist = self.stage_histograms["queue"]
        for pending in clients:
            queue_hist.observe(t_batch - pending.t_submit)
            if self.tracer is not None:
                self.tracer.add(
                    "queue-wait",
                    "serve",
                    pending.t_submit,
                    t_batch,
                    tid=self._client_tid(pending.request.client_id),
                )
        return clients, speculative

    def _dedup_and_hits(
        self, clients: list[_Pending]
    ) -> tuple[list[_Pending], dict[tuple, list[_Pending]]]:
        """Pick one leader per cache key and serve the hits.

        The first client request of a key leads and renders at its own
        gaze; later requests of the key follow and are served from the
        leader's frame.  A key that became a hit while queued resolves
        here, before any render, so a render failure elsewhere in the
        batch never reaches it and its latency never includes the
        batch's renders.
        """
        leaders: list[_Pending] = []
        followers: dict[tuple, list[_Pending]] = {}
        hits: list[tuple[_Pending, FRRenderResult]] = []
        t_dedup = self._clock()
        for pending in clients:
            if pending.key in followers:
                followers[pending.key].append(pending)
                continue
            if self.frame_cache is not None:
                cached = self.frame_cache.peek(pending.key)
                if cached is not None:
                    self.frame_cache.hits += 1
                    self._note_prefetch_use(pending.key)
                    hits.append((pending, cached))
                    continue
            followers[pending.key] = []
            leaders.append(pending)
        if self.tracer is not None and clients:
            self.tracer.add(
                "dedup",
                "serve",
                t_dedup,
                self._clock(),
                args={
                    "clients": len(clients),
                    "leaders": len(leaders),
                    "hits": len(hits),
                },
            )
        now = self._clock()
        for pending, result in hits:
            self._resolve(pending, result, cache_hit=True, batch_size=0, now=now)
        return leaders, followers

    def _prefetch_leaders(
        self, speculative: list[_Pending], followers: dict[tuple, list[_Pending]]
    ) -> list[_Pending]:
        """The speculations still worth a render.

        A speculation drops when a client already renders its key in this
        batch, an earlier speculation holds the key, the key is cached,
        or the speculation went stale.
        """
        leaders: list[_Pending] = []
        for pending in speculative:
            self._inflight_prefetch.discard(pending.key)
            if (
                pending.key in followers
                or any(p.key == pending.key for p in leaders)
                or (
                    self.frame_cache is not None
                    and self.frame_cache.contains(pending.key)
                )
                or (
                    pending.t_deadline is not None
                    and self._clock() >= pending.t_deadline
                )
                or self.frame_cache is None
            ):
                self.prefetch_dropped += 1
                continue
            leaders.append(pending)
        return leaders

    def _resolve_group(
        self,
        group: list[_Pending],
        outcome: tuple[list[FRRenderResult] | BaseException, float, float],
        followers: dict[tuple, list[_Pending]],
    ) -> None:
        """Resolve one dispatched pose group at its own completion stamp."""
        results, t_start, t_done = outcome
        client_renders = sum(1 for p in group if not p.prefetch)
        failed = isinstance(results, BaseException)
        if self.tracer is not None:
            self.tracer.add(
                "render-group",
                "serve",
                t_start,
                t_done,
                args={
                    "frames": len(group),
                    "clients": client_renders,
                    "failed": failed,
                },
            )
        if failed:
            # A failing pose fails only its own group (and the followers
            # waiting on those keys); other poses in the batch still
            # render and hits were already served.
            for pending in group:
                if pending.prefetch:
                    self.prefetch_failed += 1
                    continue
                for waiter in (pending, *followers.get(pending.key, [])):
                    if waiter.future is not None and not waiter.future.done():
                        waiter.future.set_exception(results)
            return
        if client_renders:
            self.batch_sizes.append(client_renders)
            render_hist = self.stage_histograms["render"]
            for _ in range(client_renders):
                # Each client request in the group is charged the group's
                # render duration — the same attribution the latency
                # stamps use.
                render_hist.observe(t_done - t_start)
        for pending, result in zip(group, results):
            if pending.prefetch:
                # Speculative frames fill the cache but are invisible to
                # client-traffic accounting (no latency, no served count,
                # no cache hit/miss counters).
                self.frame_cache.put(pending.key, result)
                self._prefetched_keys.add(pending.key)
                self.prefetch_rendered += 1
                continue
            if self.frame_cache is not None:
                self.frame_cache.misses += 1
                self.frame_cache.put(pending.key, result)
            self._resolve(
                pending,
                result,
                cache_hit=False,
                batch_size=client_renders,
                now=t_done,
            )
            for follower in followers.get(pending.key, []):
                # A coalesced duplicate is a cache hit in every way that
                # matters: it is served from the keyed frame, not rendered.
                if self.frame_cache is not None:
                    self.frame_cache.hits += 1
                self._resolve(
                    follower, result, cache_hit=True, batch_size=0, now=t_done
                )

    def _client_tid(self, client_id: int) -> int:
        """The trace lane of one client's request spans (named lazily)."""
        tid = Tracer.CLIENT_TID_BASE + client_id
        if client_id not in self._traced_clients:
            self._traced_clients.add(client_id)
            if self.tracer is not None:
                self.tracer.name_thread(tid, f"client {client_id}")
        return tid

    def _resolve(
        self,
        pending: _Pending,
        result: FRRenderResult,
        cache_hit: bool,
        batch_size: int,
        now: float,
        degraded: bool = False,
    ) -> FrameResponse:
        latency = now - pending.t_submit
        self.latencies_s.append(latency)
        self.stage_histograms["total"].observe(latency)
        self.requests_served += 1
        missed = pending.t_deadline is not None and now > pending.t_deadline
        if missed:
            self.deadline_misses += 1
        else:
            self.on_time += 1
        if degraded:
            self.degraded_served += 1
        if self.tracer is not None:
            self.tracer.add(
                "request",
                "serve",
                pending.t_submit,
                now,
                tid=self._client_tid(pending.request.client_id),
                args={
                    "hit": cache_hit,
                    "degraded": degraded,
                    "missed": missed,
                    "batch": batch_size,
                    "hashed": int(pending.hashed),
                },
            )
        response = FrameResponse(
            request=pending.request,
            result=result,
            cache_hit=cache_hit,
            batch_size=batch_size,
            latency_s=latency,
            deadline_s=pending.deadline_s,
            deadline_missed=missed,
            degraded=degraded,
        )
        if pending.future is not None and not pending.future.done():
            pending.future.set_result(response)
        return response

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def deadline_stats(self) -> dict:
        """Deadline-policy counters (``on_time + misses == served`` always)."""
        served = self.requests_served
        return {
            "served": served,
            "on_time": self.on_time,
            "deadline_misses": self.deadline_misses,
            "deadline_miss_rate": self.deadline_misses / served if served else 0.0,
            "degraded_served": self.degraded_served,
            "degraded_rate": self.degraded_served / served if served else 0.0,
            "degrade_backfills": self.degrade_backfills,
        }

    def prefetch_stats(self) -> dict:
        """Speculation counters (prefetch traffic is never client traffic)."""
        return {
            "enqueued": self.prefetch_enqueued,
            "rendered": self.prefetch_rendered,
            "dropped": self.prefetch_dropped,
            "failed": self.prefetch_failed,
            "useful": self.prefetch_useful,
            "backlog": len(self._inflight_prefetch),
        }

    def transport_stats(self) -> dict | None:
        """The worker pool's frame-transport accounting (``None`` inline).

        Read it *before* :meth:`close` — a loop that owns its pool drops
        the pool (and its counters) on close.
        """
        return self._pool.transport_stats() if self._pool is not None else None

    def stage_breakdown(self) -> dict[str, dict[str, float]]:
        """Per-stage latency summary from the loop's log-bucket histograms.

        ``queue`` is submit→batch wait (all client requests), ``render``
        the request's pose-group render time (misses only), ``total`` the
        end-to-end latency.  Values in milliseconds; percentiles are
        bucket-resolved (~10%), mergeable across loops via
        :meth:`~repro.obs.Histogram.merge`.
        """
        out = {}
        for stage, hist in self.stage_histograms.items():
            out[stage] = {
                "count": hist.count,
                "mean_ms": hist.mean() * 1e3,
                "p50_ms": hist.percentile(50.0) * 1e3,
                "p90_ms": hist.percentile(90.0) * 1e3,
                "p99_ms": hist.percentile(99.0) * 1e3,
            }
        return out

    def register_metrics(self, registry: MetricsRegistry, **labels: str) -> None:
        """Attach every live counter/gauge/histogram of this loop (and its
        caches and owned pool) onto ``registry``.

        The pre-existing ``stats()`` dicts remain thin views over the same
        objects; the registry adds naming, exposition and delta semantics.
        A shared ``worker_pool`` is registered by its owner, not here.
        """
        if self.frame_cache is not None:
            self.frame_cache.register_metrics(registry, **labels)
        self.view_cache.register_metrics(registry, **labels)
        for name, attr in (
            ("serve_requests_served", "requests_served"),
            ("serve_on_time", "on_time"),
            ("serve_deadline_misses", "deadline_misses"),
            ("serve_degraded_served", "degraded_served"),
            ("serve_degrade_backfills", "degrade_backfills"),
            ("serve_max_queue_depth", "max_queue_depth"),
            ("serve_prefetch_enqueued", "prefetch_enqueued"),
            ("serve_prefetch_rendered", "prefetch_rendered"),
            ("serve_prefetch_dropped", "prefetch_dropped"),
            ("serve_prefetch_failed", "prefetch_failed"),
            ("serve_prefetch_useful", "prefetch_useful"),
        ):
            registry.gauge_fn(name, lambda a=attr: getattr(self, a), **labels)
        for stage, hist in self.stage_histograms.items():
            registry.register(f"serve_stage_{stage}_seconds", hist, **labels)
        if self._pool is not None and self._owns_pool:
            self._pool.register_metrics(registry, **labels)
