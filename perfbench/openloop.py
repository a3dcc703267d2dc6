"""The serve workloads: ``serve-paced`` and ``serve-pool``.

A run has two parts.  The *paced* part sends a seeded multi-client trace
(``repro.serve.generate_serve_trace``), stretched to a fixed offered rate,
from one asyncio process through ``ServeLoop.submit`` on schedule
(:mod:`perfbench.loadgen`), whether or not earlier requests have
completed; latency counts from when each request was due.  Its latency,
on-time and degrade figures are printed and recorded.  The *saturation*
part times the miss path the loop and (on ``serve-pool``) the worker pool
determine: a fixed set of requests with distinct cache keys, sent one at
a time (lone-miss latency) and in bursts (frames per second).  Those two
figures are the gated end-to-end metrics.

The traced run replays the first half of the paced schedule untraced,
then the same half on a fresh loop with the existing ``repro.obs`` tracer
on, so the serve lifecycle spans, the backend's spans and the render
workers' spans land in one Perfetto file.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import os
import statistics
import time

import numpy as np

from repro.foveation import render_foveated
from repro.obs.trace import Tracer
from repro.serve import (
    FrameRequest,
    RenderWorkerPool,
    ServeConfig,
    ServeLoop,
    WorkloadSpec,
    generate_serve_trace,
)
from repro.serve.regions import GazeRegionKey, region_center

from . import catalog, layers
from .common import Result, build_model, eval_poses, metric_line, peak_rss_mb, reference_check, timed_setup
from .loadgen import Outcome, open_loop, percentile
from .probe import HostProbe
from .stamp import resolved_knobs

TRACE_FPS = 30.0
REFRESH_HZ = 90.0
# Rendered (non-hit, non-degraded) responses checked bitwise per replay.
VERIFY_SAMPLES = 4
# Shares of --seconds: the paced replay, then lone misses, then bursts.
PACED_SHARE, LONE_SHARE, BURST_SHARE = 0.5, 0.25, 0.25
# The saturation part's request set, sent in bursts of BURST.
SATURATION_REQUESTS = 16
BURST = 8
# Probe samples taken after each saturation round to rescale that round.
ROUND_PROBES = 8


@dataclasses.dataclass(frozen=True)
class ServeWorkload:
    width: int
    height: int
    n_poses: int
    n_clients: int
    zipf_s: float
    dwell: tuple[int, int]
    rate_hz: float
    pool: bool


SERVE_WORKLOADS = {
    "serve-paced": ServeWorkload(64, 48, 8, 6, 1.1, (4, 12), 45.0, pool=False),
    "serve-pool": ServeWorkload(128, 96, 32, 2, 0.0, (1, 2), 10.0, pool=True),
}


def pool_workers() -> int:
    return max(1, (os.cpu_count() or 1) - 1)


def _schedule(spec: ServeWorkload, cameras, seed: int, seconds: float):
    """The trace's requests due within ``seconds``, with their offsets."""
    natural_rate = spec.n_clients * TRACE_FPS
    stretch = natural_rate / spec.rate_hz
    frames_per_client = math.ceil(seconds * spec.rate_hz / spec.n_clients) + 1
    trace = generate_serve_trace(
        cameras,
        WorkloadSpec(
            n_clients=spec.n_clients,
            frames_per_client=frames_per_client,
            fps=TRACE_FPS,
            zipf_s=spec.zipf_s,
            pose_dwell_frames=spec.dwell,
            refresh_hz=REFRESH_HZ,
            seed=seed,
        ),
    )
    kept = [r for r in trace.requests if r.time_s * stretch < seconds]
    return [r.time_s * stretch for r in kept], kept


def _saturation_requests(spec: ServeWorkload, cameras) -> list[FrameRequest]:
    """``SATURATION_REQUESTS`` requests with distinct cache keys.

    Request ``i`` is pose ``i mod n_poses`` gazing at the centre of gaze
    cell ``i // n_poses`` (the foveal disc, then the first ring's sectors),
    so the set is fixed and every request of it misses a fresh loop's
    cache.  No deadline: a request without one is never degraded.
    """
    grid = ServeConfig().grid
    cells = [GazeRegionKey(0, 0)] + [GazeRegionKey(1, s) for s in range(grid.n_sectors)]
    requests = []
    for i in range(SATURATION_REQUESTS):
        camera = cameras[i % spec.n_poses]
        gaze = region_center(camera, grid, cells[i // spec.n_poses])
        requests.append(FrameRequest(i % spec.n_clients, camera, gaze))
    return requests


class _Setup:
    """Model, poses, schedules and (for ``serve-pool``) a warmed worker pool."""

    def __init__(self, spec: ServeWorkload, seed: int, paced_s: float) -> None:
        self.spec = spec
        self.fmodel = build_model()
        self.cameras = eval_poses(spec.n_poses, spec.width, spec.height)
        self.offsets, self.requests = _schedule(spec, self.cameras, seed, paced_s)
        self.saturation = _saturation_requests(spec, self.cameras)
        # Lone requests go in seeded order; bursts are fixed slices of the set.
        self.lone_order = [int(i) for i in np.random.default_rng(seed + 2).permutation(SATURATION_REQUESTS)]
        self.pool = self.start_pool() if spec.pool else None

    def start_pool(self) -> RenderWorkerPool:
        """A pool with its workers spawned and warmed by one off-trace render."""
        pool = RenderWorkerPool(self.fmodel, workers=pool_workers(), shm_bytes=None)
        warm = eval_poses(self.spec.n_poses + 1, self.spec.width, self.spec.height)[-1]

        async def warm_up():
            await asyncio.gather(
                *(pool.render(warm, [(self.spec.width / 2, self.spec.height / 2)]) for _ in range(pool.workers))
            )

        asyncio.run(warm_up())
        return pool

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None


@dataclasses.dataclass
class _Replay:
    outcomes: list[Outcome]
    verified: int
    failures: list[str]
    counts: dict
    stats: dict
    wall_s: float
    rendered: set[int]


def _transport(pool: RenderWorkerPool | None) -> dict:
    if pool is None:
        return {"bytes_via_shm": 0, "bytes_via_pipe": 0, "shm_fallbacks": 0}
    s = pool.transport_stats()
    return {k: s[k] for k in ("bytes_via_shm", "bytes_via_pipe", "shm_fallbacks")}


def _replay(setup: _Setup, offsets, requests, seed: int, tracer: Tracer | None, pool) -> _Replay:
    """Send the schedule through a fresh ServeLoop; reduce responses as they land."""
    fmodel = setup.fmodel
    rng = np.random.default_rng(seed + 1)
    kept: list = []  # seeded reservoir of rendered frames to verify
    rendered: set[int] = set()
    counts = {"raster_pairs": 0, "sort_pairs": 0, "blend_pixels": 0, "level_spans_kept": 0, "visible": 0, "rendered": 0}

    def on_result(o: Outcome) -> None:
        if not o.ok:
            return
        response = o.result
        if response.cache_hit or response.degraded:
            return
        rendered.add(o.index)
        stats = response.result.stats
        counts["rendered"] += 1
        counts["visible"] += stats.num_projected
        counts["raster_pairs"] += stats.total_raster_intersections
        counts["sort_pairs"] += stats.total_sort_intersections
        counts["blend_pixels"] += int(stats.blend_pixels)
        counts["level_spans_kept"] += sum(
            s.num_spans for s in (response.result.level_spans or {}).values()
        )
        # Keep the whole result: a worker frame's pixels live in a shared
        # memory slot that is recycled once its result object is collected.
        entry = (o.index, response.result)
        if len(kept) < VERIFY_SAMPLES:
            kept.append(entry)
        else:
            slot = int(rng.integers(counts["rendered"]))
            if slot < VERIFY_SAMPLES:
                kept[slot] = entry

    transport0 = _transport(pool)

    async def main():
        config = ServeConfig(workers=pool.workers if pool is not None else 0)
        loop = ServeLoop(fmodel, serve_config=config, worker_pool=pool, tracer=tracer)
        async with loop:
            async def submit(r):
                return await loop.submit(
                    FrameRequest(r.client_id, setup.cameras[r.pose_index], r.gaze, r.deadline_s)
                )

            t0 = asyncio.get_running_loop().time()
            outcomes = await open_loop(offsets, requests, submit, on_result=on_result)
            wall = asyncio.get_running_loop().time() - t0
        cache = loop.frame_cache.stats()
        view = loop.view_cache.stats()
        stats = {
            "config": config,
            "stage": loop.stage_breakdown(),
            "queue_p95_ms": loop.stage_histograms["queue"].percentile(95.0) * 1e3,
            "batch_sizes": list(loop.batch_sizes),
            "max_queue_depth": loop.max_queue_depth,
            "frame_cache": cache,
            "view_cache": view,
            "deadline": loop.deadline_stats(),
        }
        return outcomes, stats, wall

    outcomes, stats, wall = asyncio.run(main())
    transport1 = _transport(pool)
    stats["transport"] = {k: transport1[k] - transport0[k] for k in transport0}

    failures = [f"request {o.index}: {type(o.error).__name__}: {o.error}" for o in outcomes if not o.ok]
    for index, result in kept:
        r = requests[index]
        lone = render_foveated(fmodel, setup.cameras[r.pose_index], r.gaze).image
        if not np.array_equal(lone, result.image):
            failures.append(f"request {index}: served frame differs bitwise from a lone render_foveated")
    return _Replay(outcomes, len(kept), failures, counts, stats, wall, rendered)


@dataclasses.dataclass
class _Saturation:
    lone_s: list[float]  # response time of each lone miss, wall-clock
    lone_ref_s: list[float]  # the same, rescaled by its round's probe samples
    burst_frames: int  # frames rendered in the bursts
    burst_walls: list[float]  # wall time of each round of bursts
    burst_fps_ref: list[float]  # frames/s of each round of bursts, rescaled likewise
    attempted: int
    failures: list[str]
    verified: int


def _saturate(setup: _Setup, lone_s: float, burst_s: float, probe: HostProbe) -> _Saturation:
    """Send the saturation request set in rounds, each on a fresh ServeLoop.

    For ``lone_s`` seconds each request is sent once the previous one has
    been answered; for ``burst_s`` seconds they are sent ``BURST`` at a
    time.  Every request must come back rendered (its key is new to the
    loop); the first frame of each part is checked bitwise against a lone
    ``render_foveated``.  The probe is sampled after each round, and the
    round's times are rescaled by those samples.
    """
    pool = setup.pool
    out = _Saturation([], [], 0, [], [], 0, [], 0)
    kept: dict = {}

    def accept(part: str, request: FrameRequest, response) -> bool:
        if isinstance(response, BaseException):
            out.failures.append(f"saturation request: {type(response).__name__}: {response}")
            return False
        if response.cache_hit or response.degraded:
            out.failures.append("saturation request with a new cache key was not rendered")
            return False
        # Keep the whole result: it pins a worker frame's shared-memory slot.
        kept.setdefault(part, (request, response.result))
        return True

    async def rounds(phase_s: float, one_round) -> list[tuple]:
        """``(round's result, wall, probe scale)`` of each round run in ``phase_s``."""
        done: list[tuple] = []
        start = time.perf_counter()
        while True:
            loop = ServeLoop(
                setup.fmodel, serve_config=ServeConfig(workers=pool.workers if pool is not None else 0), worker_pool=pool
            )
            async with loop:
                t0 = time.perf_counter()
                result = await one_round(loop)
                wall = time.perf_counter() - t0
            probe.sample(ROUND_PROBES)
            done.append((result, wall, probe.recent_scale(ROUND_PROBES)))
            if time.perf_counter() - start + statistics.mean(w for _, w, _ in done) / 2 > phase_s:
                return done

    async def lone_round(loop: ServeLoop) -> list[float]:
        latencies = []
        for i in setup.lone_order:
            request = setup.saturation[i]
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                response = await loop.submit(request)
            except Exception as exc:  # a failed request, the run goes on
                response = exc
            dt = time.perf_counter() - t0
            if accept("lone", request, response):
                latencies.append(dt)
        return latencies

    async def burst_round(loop: ServeLoop) -> int:
        requests = setup.saturation
        frames = 0
        for i in range(0, len(requests), BURST):
            burst = requests[i : i + BURST]
            out.attempted += len(burst)
            responses = await asyncio.gather(*(loop.submit(r) for r in burst), return_exceptions=True)
            frames += sum(accept("burst", r, response) for r, response in zip(burst, responses))
        return frames

    async def main() -> None:
        for latencies, _wall, scale in await rounds(lone_s, lone_round):
            out.lone_s += latencies
            out.lone_ref_s += [dt * scale for dt in latencies]
        for frames, wall, scale in await rounds(burst_s, burst_round):
            out.burst_frames += frames
            out.burst_walls.append(wall)
            out.burst_fps_ref.append(frames / wall / scale)

    asyncio.run(main())
    for request, result in kept.values():
        lone = render_foveated(setup.fmodel, request.camera, request.gaze).image
        if not np.array_equal(lone, result.image):
            out.failures.append("saturation frame differs bitwise from a lone render_foveated")
    out.verified = len(kept)
    return out


def _end_to_end(replay: _Replay, budget_s: float) -> dict:
    ok = [o for o in replay.outcomes if o.ok]
    latencies = [o.latency for o in ok]
    return {
        "rendered_p50_ms": percentile([o.latency for o in ok if o.index in replay.rendered], 50) * 1e3,
        "p50_ms": percentile(latencies, 50) * 1e3,
        "p95_ms": percentile(latencies, 95) * 1e3,
        "on_time": sum(1 for o in ok if o.latency <= budget_s),
        "lag_p95_ms": percentile([o.lag for o in replay.outcomes], 95) * 1e3,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, trace_path: str) -> Result:
    spec = SERVE_WORKLOADS[workload]
    probe = HostProbe()
    probe.sample(16)
    # The traced run replays the first half of a full-length schedule twice.
    paced_s = seconds if trace else PACED_SHARE * seconds
    setup, setup_s, setup_samples = timed_setup(lambda: _Setup(spec, seed, paced_s), _Setup.close)
    probe.sample(16)
    budget_s = 1.0 / REFRESH_HZ
    failures = reference_check(setup.fmodel)
    report = [
        f"{workload}: {spec.width}x{spec.height}, {spec.n_poses} poses, {spec.n_clients} clients, "
        f"{'uniform' if spec.zipf_s == 0 else f'Zipf {spec.zipf_s}'} popularity, dwell {spec.dwell}, "
        f"{spec.rate_hz:g} req/s offered, budget {budget_s * 1e3:.1f} ms, "
        f"{'pool of ' + str(pool_workers()) + ' worker(s)' if spec.pool else 'inline'}"
    ]
    record: dict = {"setup_samples_s": setup_samples}
    try:
        if not trace:
            replay = _replay(setup, setup.offsets, setup.requests, seed, None, setup.pool)
            probe.sample(16)
            sat = _saturate(setup, LONE_SHARE * seconds, BURST_SHARE * seconds, probe)
            attempted = len(replay.outcomes) + sat.attempted
            failures += sat.failures
        else:
            half = sum(1 for t in setup.offsets if t < seconds / 2)
            offsets, requests = setup.offsets[:half], setup.requests[:half]
            base = _replay(setup, offsets, requests, seed, None, setup.pool)
            setup.close()
            pool = setup.start_pool() if spec.pool else None
            tracer = Tracer()
            tracer.name_process(tracer.pid, "perfbench serve")
            try:
                replay = _replay(setup, offsets, requests, seed, tracer, pool)
            finally:
                if pool is not None:
                    pool.close()
            tracer.write(trace_path)
            attempted = len(base.outcomes) + len(replay.outcomes)
            failures += base.failures
    finally:
        setup.close()
    failures += replay.failures
    probe.sample(16)

    e2e = _end_to_end(replay, budget_s)
    n = len(replay.outcomes)
    succeeded = sum(1 for o in replay.outcomes if o.ok)
    degraded = replay.stats["deadline"]["degraded_served"]
    cache = replay.stats["frame_cache"]
    lookups = cache["hits"] + cache["misses"]
    report += [
        f"paced: requests sent {n}  succeeded {succeeded}  failed {n - succeeded}  "
        f"verified bitwise {replay.verified}",
        metric_line("serve latency from due", "ms", [o.latency for o in replay.outcomes if o.ok], 1e3),
        f"  {'serve_p50_ms':<24s} {e2e['p50_ms']:12.4f} ms",
        f"  {'rendered_p50_ms':<24s} {e2e['rendered_p50_ms']:12.4f} ms  (responses rendered for the request)",
        f"  {'serve_p95_ms':<24s} {e2e['p95_ms']:12.4f} ms",
        f"  {'serve_on_time_rate':<24s} {e2e['on_time'] / n:12.4f}",
        f"  {'serve_degraded_rate':<24s} {degraded / n:12.4f}",
        f"  {'gen_lag_p95_ms':<24s} {e2e['lag_p95_ms']:12.4f} ms",
        f"  frame cache: hits {cache['hits']} misses {cache['misses']} evictions {cache['evictions']} "
        f"(hit rate {cache['hits'] / lookups if lookups else 0.0:.3f})",
        "  rendered-frame counters: " + "  ".join(f"{k}={v}" for k, v in sorted(replay.counts.items())),
    ]
    explicit = ("workers",) if spec.pool else ()
    record.update(
        knobs=resolved_knobs(replay.stats["config"], explicit=explicit),
        counts=replay.counts,
        frame_cache=cache,
        transport=replay.stats["transport"],
        stage=replay.stats["stage"],
        e2e=e2e,
        latencies_s=[o.latency if o.ok else None for o in replay.outcomes],
        rendered=sorted(replay.rendered),
        probe_s=probe.samples,
        probe_rss_mb=probe.rss_mb,
    )
    probe_line = (
        f"host probe: median {probe.median_s * 1e3:.2f} ms over {len(probe.samples)} samples "
        f"(whole-run factor x {probe.scale:.4f}); the probe added {probe.rss_mb:.1f} MiB to the peak RSS"
    )

    if not trace:
        burst_fps = sat.burst_frames / sum(sat.burst_walls)
        report += [
            f"saturation: {SATURATION_REQUESTS} requests with new cache keys per round, "
            f"verified bitwise {sat.verified}",
            metric_line("lone miss latency", "ms", sat.lone_s, 1e3),
            metric_line("  rescaled per round", "ms", sat.lone_ref_s, 1e3),
            f"  {'burst frames/s':<24s} {burst_fps:12.4f} 1/s  "
            f"({sat.burst_frames} frames in bursts of {BURST}, {len(sat.burst_walls)} round(s))",
            metric_line("  rescaled per round", "1/s", sat.burst_fps_ref),
            probe_line,
            f"the gated figures rescale each saturation round by the {ROUND_PROBES} probe samples taken right after it",
        ]
        record["saturation"] = {
            "lone_s": sat.lone_s,
            "lone_ref_s": sat.lone_ref_s,
            "burst_frames": sat.burst_frames,
            "burst_walls_s": sat.burst_walls,
            "burst_fps_ref": sat.burst_fps_ref,
        }
        metrics = {
            "foveated_frame_ms": (statistics.median(sat.lone_ref_s) * 1e3, "ms"),
            "throughput_fps": (statistics.median(sat.burst_fps_ref), "1/s"),
            "setup_s": (setup_s, "s"),  # wall-clock: the probe did not track it
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
        }
        return Result(workload, metrics, attempted, failures, report, record)

    report.append(probe_line)
    m = _serve_layers(replay, base, tracer, e2e, n, succeeded, degraded)
    m["bench.error_rate"] = len(failures) / attempted
    report += _serve_table(tracer, replay.wall_s, trace_path)
    record["per_layer"] = m
    metrics = {name: (m[name], unit) for name, unit in catalog.PER_LAYER.items()}
    return Result(workload, metrics, attempted, failures, report, record)


def _span_totals(tracer: Tracer) -> dict[str, float]:
    """Total duration per span name over every process, ms."""
    totals: dict[str, float] = {}
    for (_pid, name), (dur, _self, _n) in layers.self_times(tracer.spans()).items():
        totals[name] = totals.get(name, 0.0) + dur * 1e3
    return totals


def _serve_layers(replay: _Replay, base: _Replay, tracer: Tracer, e2e: dict, n, succeeded, degraded) -> dict:
    s = replay.stats
    totals = _span_totals(tracer)
    cache = s["frame_cache"]
    view = s["view_cache"]
    lookups = cache["hits"] + cache["misses"]
    view_lookups = view["hits"] + view["misses"]
    c = replay.counts
    base_render = base.stats["stage"]["render"]["mean_ms"]
    m = catalog.empty_layers()
    m.update({
        "splat.projection.visible": c["visible"],
        "splat.backends.packed.alpha_scan_ms": totals.get(layers.ALPHA_SCAN, 0.0),
        "splat.backends.packed.composite_ms": totals.get(layers.COMPOSITE, 0.0),
        "splat.backends.packed.level_spans_kept": c["level_spans_kept"],
        "splat.backends.packed.raster_pairs": c["raster_pairs"],
        "splat.backends.packed.sort_pairs": c["sort_pairs"],
        "splat.backends.packed.blend_pixels": c["blend_pixels"],
        "splat.renderer.prepare_ms": totals.get("prepare", 0.0),
        "splat.renderer.view_cache_hit_rate": view["hits"] / view_lookups if view_lookups else 0.0,
        "serve.scheduler.queue_wait_p50_ms": s["stage"]["queue"]["p50_ms"],
        "serve.scheduler.queue_wait_p95_ms": s["queue_p95_ms"],
        "serve.scheduler.render_p50_ms": s["stage"]["render"]["p50_ms"],
        "serve.scheduler.batch_size_mean": statistics.mean(s["batch_sizes"]) if s["batch_sizes"] else 0.0,
        "serve.scheduler.max_queue_depth": s["max_queue_depth"],
        "serve.scheduler.requests_sent": n,
        "serve.scheduler.requests_succeeded": succeeded,
        "serve.scheduler.requests_failed": n - succeeded,
        "serve.scheduler.on_time_rate": e2e["on_time"] / n,
        "serve.scheduler.degraded_rate": degraded / n,
        "serve.regions.hit_rate": cache["hits"] / lookups if lookups else 0.0,
        "serve.regions.misses": cache["misses"],
        "serve.regions.evictions": cache["evictions"],
        "serve.workers.render_ms": totals.get("render", 0.0),
        "serve.workers.materialize_ms": totals.get("materialize", 0.0),
        "serve.shm.bytes_via_shm": s["transport"]["bytes_via_shm"],
        "serve.shm.bytes_via_pipe": s["transport"]["bytes_via_pipe"],
        "serve.shm.shm_fallbacks": s["transport"]["shm_fallbacks"],
        "bench.wall_ms": replay.wall_s * 1e3,
        "bench.frames_rendered": c["rendered"],
        "bench.gen_lag_p95_ms": e2e["lag_p95_ms"],
        "bench.trace_overhead": s["stage"]["render"]["mean_ms"] / base_render if base_render else 0.0,
    })
    main_self = sum(
        row[1]
        for (pid, name), row in layers.self_times(tracer.spans()).items()
        if pid == tracer.pid and name not in _WAIT_SPANS
    )
    m["bench.unattributed_ms"] = (replay.wall_s - main_self) * 1e3
    return m


# Spans that measure waiting on a client lane, not work on the loop.
_WAIT_SPANS = ("request", "queue-wait")


def _serve_table(tracer: Tracer, wall_s: float, trace_path: str) -> list[str]:
    st = layers.self_times(tracer.spans())
    wall_ms = wall_s * 1e3
    main = sorted(
        ((name, row[1] * 1e3) for (pid, name), row in st.items() if pid == tracer.pid and name not in _WAIT_SPANS),
        key=lambda r: -r[1],
    )
    busy = sum(ms for _, ms in main)
    lines = [f"per-layer self time on the serving process (trace: {trace_path}):"]
    lines += [f"  {name:<40s} {ms:10.2f} ms  {ms / wall_ms:6.1%}" for name, ms in main]
    lines.append(f"  {'unattributed (idle, generator, hits)':<40s} {wall_ms - busy:10.2f} ms  {(wall_ms - busy) / wall_ms:6.1%}")
    lines.append(f"  {'= wall':<40s} {wall_ms:10.2f} ms")
    workers = sorted(
        ((name, row[1] * 1e3) for (pid, name), row in st.items() if pid != tracer.pid), key=lambda r: -r[1]
    )
    if workers:
        lines.append("render workers (self time, all workers, overlaps the wall above):")
        lines += [f"  {name:<40s} {ms:10.2f} ms" for name, ms in workers]
    for name in _WAIT_SPANS:
        row = st.get((tracer.pid, name))
        if row:
            lines.append(f"  waiting: {name:<31s} {row[0] * 1e3 / row[2]:10.3f} ms mean over {row[2]}")
    return lines
