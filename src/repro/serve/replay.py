"""Deterministic trace replay: the serve loop vs naive serving.

``replay_trace`` drives a :class:`~repro.serve.workload.ServeTrace`
through a :class:`~repro.serve.scheduler.ServeLoop` — inline or over a
render-worker pool — and reduces the responses to a
:class:`ReplayReport`: throughput, latency percentiles, cache hit rate,
batch-size histogram, and a frame checksum that makes "same trace, same
frames" a one-line assertion.  ``replay_naive`` is the pre-serve
baseline every speedup is measured against: one synchronous
:func:`repro.foveation.render_foveated` call per request, re-running the
pose's projection prefix every time, no cache, no batching.

Replays are deterministic: the workload is seed-generated, requests are
submitted in time order, and frames are bit-exact functions of (model,
camera, gaze, config) — so two replays of one trace produce identical
checksums, and a served checksum differs from the naive one only through
cache hits (frames rendered for an earlier gaze in the same region).
Determinism survives worker pools in the throughput setting
(``time_scale=0``): every client enqueues before the first batch renders,
and per-key request order — the only order cache outcomes depend on — is
preserved.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import time

import numpy as np

from ..foveation import FRRenderResult, render_foveated
from ..foveation.hierarchy import FoveatedModel
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from ..splat.renderer import RenderConfig
from .scheduler import FrameRequest, FrameResponse, ServeConfig, ServeLoop
from .workload import ServeTrace


@dataclasses.dataclass
class ReplayReport:
    """Aggregate serving metrics of one replay (one row of a comparison)."""

    name: str
    n_requests: int
    wall_s: float
    throughput_rps: float
    latency_mean_ms: float
    latency_p50_ms: float
    latency_p90_ms: float
    latency_p99_ms: float
    cache_hit_rate: float
    batch_histogram: dict[int, int]
    frames_checksum: str
    cache_stats: dict | None = None
    # Deadline metrics: None when the trace carried no deadlines (best-effort
    # replay), rates over the deadline-carrying responses otherwise.
    deadline_miss_rate: float | None = None
    degraded_rate: float | None = None
    prefetch_stats: dict | None = None  # ServeLoop.prefetch_stats() when enabled
    # RenderWorkerPool.transport_stats() of a worker-pool replay: bytes
    # moved over the executor pipe vs via the shared-memory arena.
    transport_stats: dict | None = None
    # Per-stage latency breakdown (queue/render/total) from the loop's
    # log-bucket histograms.
    stage_breakdown: dict | None = None
    # repro.obs.MetricsRegistry.snapshot() taken at the end of the replay
    # when a registry was attached (reports ride the registry).
    metrics: dict | None = None

    @property
    def mean_batch_size(self) -> float:
        total = sum(size * count for size, count in self.batch_histogram.items())
        renders = sum(self.batch_histogram.values())
        return total / renders if renders else 0.0

    def lines(self) -> list[str]:
        """Human-readable summary lines (shared by the CLI and benchmarks)."""
        out = [
            f"{self.name}: {self.n_requests} requests in {self.wall_s * 1e3:.1f} ms "
            f"({self.throughput_rps:.1f} req/s)",
            f"  latency ms: mean {self.latency_mean_ms:.2f}  "
            f"p50 {self.latency_p50_ms:.2f}  p90 {self.latency_p90_ms:.2f}  "
            f"p99 {self.latency_p99_ms:.2f}",
        ]
        if self.batch_histogram:
            histogram = "  ".join(
                f"{size}:{count}"
                for size, count in sorted(self.batch_histogram.items())
            )
            out.append(
                f"  batches (size:count): {histogram}  "
                f"(mean {self.mean_batch_size:.2f})"
            )
        if self.stage_breakdown:
            for stage in ("queue", "render", "total"):
                s = self.stage_breakdown.get(stage)
                if s is None or not s["count"]:
                    continue
                out.append(
                    f"  stage {stage:6s} ms: mean {s['mean_ms']:.2f}  "
                    f"p50 {s['p50_ms']:.2f}  p90 {s['p90_ms']:.2f}  "
                    f"p99 {s['p99_ms']:.2f}  (n={s['count']})"
                )
        if self.deadline_miss_rate is not None:
            degraded = (
                f"  degraded {self.degraded_rate:.1%}"
                if self.degraded_rate is not None
                else ""
            )
            out.append(
                f"  deadlines: miss rate {self.deadline_miss_rate:.1%}{degraded}"
            )
        if self.prefetch_stats is not None:
            s = self.prefetch_stats
            out.append(
                f"  prefetch: enqueued={s['enqueued']} rendered={s['rendered']} "
                f"dropped={s['dropped']} useful={s['useful']}"
            )
        if self.transport_stats is not None:
            s = self.transport_stats
            out.append(
                f"  transport ({s['transport']}): "
                f"shm {s['bytes_via_shm'] / 1e6:.1f} MB"
                f"/{s['frames_via_shm']} frames  "
                f"pipe {s['bytes_via_pipe'] / 1e6:.1f} MB"
                f"/{s['frames_via_pipe']} frames  "
                f"fallbacks {s['shm_fallbacks']}"
            )
        if self.cache_stats is not None:
            s = self.cache_stats
            out.append(
                f"  cache-stats: hits={s['hits']} misses={s['misses']} "
                f"evictions={s['evictions']} entries={s['entries']} "
                f"bytes={s['bytes']} (hit rate {self.cache_hit_rate:.0%})"
            )
        return out


def frames_checksum(images) -> str:
    """Order-sensitive digest of a sequence of frames (bit-exactness probe)."""
    digest = hashlib.blake2b(digest_size=16)
    for image in images:
        digest.update(np.ascontiguousarray(image).tobytes())
    return digest.hexdigest()


def _latency_report(
    name: str,
    latencies_s: list[float],
    wall_s: float,
    hit_rate: float,
    batch_histogram: dict[int, int],
    checksum: str,
    cache_stats: dict | None,
) -> ReplayReport:
    latencies_ms = np.asarray(latencies_s) * 1e3
    return ReplayReport(
        name=name,
        n_requests=len(latencies_s),
        wall_s=wall_s,
        throughput_rps=len(latencies_s) / wall_s if wall_s > 0 else float("inf"),
        latency_mean_ms=float(latencies_ms.mean()) if latencies_ms.size else 0.0,
        latency_p50_ms=float(np.percentile(latencies_ms, 50)) if latencies_ms.size else 0.0,
        latency_p90_ms=float(np.percentile(latencies_ms, 90)) if latencies_ms.size else 0.0,
        latency_p99_ms=float(np.percentile(latencies_ms, 99)) if latencies_ms.size else 0.0,
        cache_hit_rate=hit_rate,
        batch_histogram=batch_histogram,
        frames_checksum=checksum,
        cache_stats=cache_stats,
    )


def _deadline_rates(
    responses: list[FrameResponse],
) -> tuple[float | None, float | None]:
    """(deadline-miss rate, degraded rate) over deadline-carrying responses.

    ``(None, None)`` when no response carried a deadline (a best-effort
    replay keeps its report columns empty instead of printing fake zeros).
    """
    with_deadline = [r for r in responses if r.deadline_s is not None]
    if not with_deadline:
        return None, None
    n = len(with_deadline)
    misses = sum(1 for r in with_deadline if r.deadline_missed)
    degraded = sum(1 for r in with_deadline if r.degraded)
    return misses / n, degraded / n


def replay_trace(
    fmodel: FoveatedModel,
    trace: ServeTrace,
    config: RenderConfig | None = None,
    serve_config: ServeConfig | None = None,
    time_scale: float = 0.0,
    tracer: Tracer | None = None,
    clock=None,
    registry: MetricsRegistry | None = None,
) -> tuple[list[FrameResponse], ReplayReport]:
    """Serve a whole trace through a fresh :class:`ServeLoop`.

    Every request is submitted as its own client task in trace order;
    ``time_scale`` stretches the trace's timestamps into real waits (0 —
    the default — replays as fast as the loop can drain, which is the
    throughput-measurement mode).  Responses come back in request order.

    ``tracer`` (or ``serve_config.trace``) records the request lifecycle
    into a Chrome-trace-exportable span buffer; ``clock`` substitutes the
    loop's monotonic clock (deterministic tests); ``registry`` attaches
    the loop's counters/gauges/histograms to a
    :class:`~repro.obs.metrics.MetricsRegistry` and stores its snapshot
    on the report.
    """
    if time_scale < 0:
        raise ValueError("time_scale must be non-negative")

    async def _run() -> None:
        async with ServeLoop(
            fmodel,
            config=config,
            serve_config=serve_config,
            tracer=tracer,
            clock=clock,
        ) as loop:
            if registry is not None:
                loop.register_metrics(registry)
            aio = asyncio.get_running_loop()
            t0 = aio.time()

            async def client(request) -> FrameResponse:
                if time_scale > 0:
                    delay = request.time_s * time_scale - (aio.time() - t0)
                    if delay > 0:
                        await asyncio.sleep(delay)
                return await loop.submit(
                    FrameRequest(
                        client_id=request.client_id,
                        camera=trace.camera_of(request),
                        gaze=request.gaze,
                        deadline_s=request.deadline_s,
                    )
                )

            tasks = [asyncio.create_task(client(r)) for r in trace.requests]
            responses = list(await asyncio.gather(*tasks))
            # Parked in ``out`` instead of returned: on Python 3.11 the
            # asyncio.Runner teardown ends up repr()ing the task result
            # (via the SIGINT-handler uninstall), and repr of a response
            # list renders every frame array — seconds of pure overhead.
            # Transport stats are captured before the context exit: a loop
            # that owns its pool drops the pool (and its counters) on close.
            out["loop"] = loop
            out["responses"] = responses
            out["transport"] = loop.transport_stats()

    out: dict = {}
    t_start = time.perf_counter()
    asyncio.run(_run())
    wall_s = time.perf_counter() - t_start
    loop, responses, transport = out["loop"], out["responses"], out["transport"]

    histogram: dict[int, int] = {}
    for size in loop.batch_sizes:
        histogram[size] = histogram.get(size, 0) + 1
    hits = sum(1 for r in responses if r.cache_hit)
    report = _latency_report(
        name="serve-loop (batched+cached)",
        latencies_s=[r.latency_s for r in responses],
        wall_s=wall_s,
        hit_rate=hits / len(responses) if responses else 0.0,
        batch_histogram=histogram,
        checksum=frames_checksum(r.result.image for r in responses),
        cache_stats=loop.frame_cache.stats() if loop.frame_cache else None,
    )
    report.deadline_miss_rate, report.degraded_rate = _deadline_rates(responses)
    report.transport_stats = transport
    if loop.predictor is not None:
        report.prefetch_stats = loop.prefetch_stats()
    report.stage_breakdown = loop.stage_breakdown()
    if registry is not None:
        report.metrics = registry.snapshot()
    return responses, report


def replay_naive(
    fmodel: FoveatedModel,
    trace: ServeTrace,
    config: RenderConfig | None = None,
) -> tuple[list[FRRenderResult], ReplayReport]:
    """The pre-serve baseline: synchronous per-request ``render_foveated``.

    No view cache, no frame cache, no batching — each request pays the full
    Projection/Tiling/Sorting prefix plus its own rasterization pass, which
    is exactly what a consumer loop over ``render_foveated`` did before the
    serve tier existed.
    """
    results: list[FRRenderResult] = []
    latencies: list[float] = []
    t_start = time.perf_counter()
    for request in trace.requests:
        t0 = time.perf_counter()
        results.append(
            render_foveated(
                fmodel,
                trace.camera_of(request),
                gaze=request.gaze,
                config=config,
            )
        )
        latencies.append(time.perf_counter() - t0)
    wall_s = time.perf_counter() - t_start
    report = _latency_report(
        name="naive per-request",
        latencies_s=latencies,
        wall_s=wall_s,
        hit_rate=0.0,
        batch_histogram={},
        checksum=frames_checksum(r.image for r in results),
        cache_stats=None,
    )
    return results, report
