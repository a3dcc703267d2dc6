"""Serve-tier throughput: batched+cached ServeLoop vs naive per-request.

Replays one seeded multi-client trace (Zipf-skewed pose popularity, human
gaze scanpaths) two ways:

- **naive per-request**: the pre-serve consumer loop — one synchronous
  ``render_foveated`` per request, full projection prefix every time, no
  cache, no batching;
- **serve loop**: ``repro.serve.ServeLoop`` — exact-key frame-cache hits
  served without rendering, misses coalesced into
  ``render_foveated_batch`` calls sharing pose prefixes through a
  ``ViewCache``.

The win is structural (hits skip rendering entirely; misses amortize
projection and ride one concatenated span scan), so the ≥1.3x gate runs in
the ``--quick`` CI smoke step, not just under ``REPRO_BENCH_STRICT``.
Correctness is asserted alongside: every cache-miss response is
bit-identical to its per-request ``render_foveated`` frame, and two
replays of the trace produce identical frame checksums.
"""

from __future__ import annotations

import asyncio
import os
import time

import numpy as np
import pytest

from repro.baselines import make_mini_splatting_d
from repro.foveation import render_foveated, uniform_foveated_model
from repro.harness import (
    EVAL_LEVEL_FRACTIONS,
    EVAL_REGION_LAYOUT,
    quick_l1_model,
    setup_trace,
)
from repro.scenes import trace_cameras
from repro.serve import (
    PredictorConfig,
    RenderWorkerPool,
    ServeConfig,
    WorkloadSpec,
    active_segments,
    frames_checksum,
    generate_serve_trace,
    replay_naive,
    replay_trace,
    shm_available,
)
from repro.splat import random_model

from _report import report

# Acceptance scale: a real serving burst over a handful of hot poses.
SCALE = dict(size=128, points=1200, clients=6, frames=32, poses=8)
QUICK_SCALE = dict(size=64, points=400, clients=4, frames=16, poses=5)

BATCH_BUDGET = 8
ZIPF_S = 1.1

# The inline-vs-pool table's worker count, capped to the cores actually
# available.
CORES = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else (os.cpu_count() or 1)
)
SCALING_WORKERS = max(1, min(4, CORES))


@pytest.fixture(scope="module")
def scale(request):
    if request.config.getoption("--quick"):
        return dict(**QUICK_SCALE, tag=" [quick]")
    return dict(**SCALE, tag="")


@pytest.fixture(scope="module")
def serve_env(scale):
    size = scale["size"]
    setup = setup_trace(
        "kitchen", n_points=scale["points"], width=size, height=int(size * 0.75)
    )
    dense = make_mini_splatting_d(setup.scene, seed=0)
    l1 = quick_l1_model(setup, dense, keep_fraction=0.4)
    fmodel = uniform_foveated_model(l1, EVAL_REGION_LAYOUT, EVAL_LEVEL_FRACTIONS)
    _, poses = trace_cameras(
        "kitchen",
        n_train=4,
        n_eval=scale["poses"],
        width=size,
        height=int(size * 0.75),
    )
    trace = generate_serve_trace(
        poses,
        WorkloadSpec(
            n_clients=scale["clients"],
            frames_per_client=scale["frames"],
            zipf_s=ZIPF_S,
            seed=0,
        ),
    )
    return fmodel, trace


@pytest.fixture(scope="module")
def replay_rows(serve_env, scale):
    fmodel, trace = serve_env
    serve_config = ServeConfig(batch_budget=BATCH_BUDGET)

    # Warm-up: page in the span workspace and model tables for both paths
    # so the comparison measures serving policy, not first-touch faults.
    replay_naive(fmodel, trace)
    replay_trace(fmodel, trace, serve_config=serve_config)

    t0 = time.perf_counter()
    _, naive_report = replay_naive(fmodel, trace)
    naive_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    responses, serve_report = replay_trace(
        fmodel, trace, serve_config=serve_config
    )
    serve_s = time.perf_counter() - t0

    _, serve_report_2 = replay_trace(fmodel, trace, serve_config=serve_config)
    return dict(
        naive_s=naive_s,
        serve_s=serve_s,
        naive_report=naive_report,
        serve_report=serve_report,
        serve_report_2=serve_report_2,
        responses=responses,
        fmodel=fmodel,
        trace=trace,
        tag=scale["tag"],
    )


def test_serve_throughput(replay_rows, quick):
    r = replay_rows
    naive, served = r["naive_report"], r["serve_report"]
    speedup = r["naive_s"] / r["serve_s"]
    report(
        f"Serve throughput{r['tag']}",
        [
            f"{r['trace'].n_requests} requests, "
            f"{len(r['trace'].cameras)} poses, zipf {ZIPF_S}, "
            f"batch budget {BATCH_BUDGET}",
            *naive.lines(),
            *served.lines(),
            f"serve speedup: {speedup:.2f}x",
        ],
    )
    # The cache really served a meaningful share of the skewed trace, and
    # the batcher really coalesced (otherwise the tier is mislabeled).
    assert served.cache_hit_rate > 0.2, f"hit rate {served.cache_hit_rate:.0%}"
    assert served.mean_batch_size > 1.0, f"mean batch {served.mean_batch_size:.2f}"
    # Batched+cached serving must beat the naive per-request loop ≥1.3x —
    # enforced in the CI --quick smoke step (structural win: hits skip
    # rendering, misses amortize projection), and at acceptance scale on a
    # quiet machine via REPRO_BENCH_STRICT.
    if quick or os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert speedup >= 1.3, f"serve speedup: {speedup:.2f}x"


def test_replay_is_deterministic(replay_rows):
    # Same trace, same config → bit-identical frame stream and identical
    # serving decisions, replay after replay.
    r1, r2 = replay_rows["serve_report"], replay_rows["serve_report_2"]
    assert r1.frames_checksum == r2.frames_checksum
    assert r1.cache_hit_rate == r2.cache_hit_rate
    assert r1.batch_histogram == r2.batch_histogram


@pytest.fixture(scope="module")
def scaling_rows(serve_env):
    """Replay one trace through one loop inline, then over a worker pool.

    Both rows go through the loop's one dispatch seam; only the executor
    differs.  Wall time is the replay's own clock and deliberately
    *includes* pool cold start (fork + first-render workspace warm-up).
    Frame checksums are collected per row: the pool must never change the
    served frame stream.
    """
    fmodel, trace = serve_env
    # Warm the span workspace and model tables once so the inline row is
    # not paying first-touch faults the pool row then gets for free.
    replay_trace(
        fmodel, trace, serve_config=ServeConfig(batch_budget=BATCH_BUDGET)
    )
    rows = []
    for label, workers in (
        ("1 loop inline", 0),
        (f"1 loop + {SCALING_WORKERS} workers", SCALING_WORKERS),
    ):
        serve_config = ServeConfig(batch_budget=BATCH_BUDGET, workers=workers)
        _, rep = replay_trace(fmodel, trace, serve_config=serve_config)
        rows.append((label, rep))
    return rows


def test_inline_vs_pool(scaling_rows, scale):
    (_, base), (label, pooled) = scaling_rows
    lines = [
        f"{CORES} cores available",
        f"{'config':<20} {'req/s':>8} {'speedup':>8} {'hit':>5}",
    ]
    for name, rep in scaling_rows:
        lines.append(
            f"{name:<20} {rep.throughput_rps:8.1f} "
            f"{base.wall_s / rep.wall_s:7.2f}x {rep.cache_hit_rate:4.0%}"
        )
    report(f"Serve inline vs pool{scale['tag']}", lines)

    # The pool serves the exact frame stream (and hit pattern) of the
    # inline loop: workers render bit-identically.
    assert pooled.frames_checksum == base.frames_checksum, label
    assert pooled.cache_hit_rate == base.cache_hit_rate, label


# Deadline/prefetch regime: a paced replay (real inter-arrival gaps give
# the speculative tier idle slack to fill) against a refresh budget renders
# cannot make (2 ms at 500 Hz vs ~5 ms renders), with degrade disabled so
# the deadline-miss rate is exactly the miss fraction.  Prefetch hits then
# reduce the miss rate deterministically — no wall-clock luck involved.
PREFETCH_REFRESH_HZ = 500.0


@pytest.fixture(scope="module")
def prefetch_rows():
    fmodel = uniform_foveated_model(
        random_model(80, np.random.default_rng(5)),
        EVAL_REGION_LAYOUT,
        EVAL_LEVEL_FRACTIONS,
    )
    _, poses = trace_cameras("kitchen", n_train=4, n_eval=4, width=64, height=48)
    trace = generate_serve_trace(
        poses,
        WorkloadSpec(
            n_clients=4,
            frames_per_client=24,
            fps=30.0,
            pose_dwell_frames=(8, 16),
            refresh_hz=PREFETCH_REFRESH_HZ,
            seed=3,
        ),
    )

    def paced(prefetch):
        serve_config = ServeConfig(
            refresh_hz=PREFETCH_REFRESH_HZ,
            degrade_on_deadline=False,
            prefetch=prefetch,
        )
        return replay_trace(
            fmodel, trace, serve_config=serve_config, time_scale=1.0
        )

    paced(None)  # warm-up: page in span workspace + model tables
    base_responses, base = paced(None)
    pf_responses, pf = paced(PredictorConfig(horizon=2))
    return dict(
        trace=trace,
        base=base,
        pf=pf,
        base_responses=base_responses,
        pf_responses=pf_responses,
    )


def test_prefetch_lifts_hits_and_cuts_deadline_misses(prefetch_rows, quick):
    base, pf = prefetch_rows["base"], prefetch_rows["pf"]
    report(
        f"Serve prefetch vs no-prefetch (paced replay){' [quick]' if quick else ''}",
        [
            f"{prefetch_rows['trace'].n_requests} requests, "
            f"{PREFETCH_REFRESH_HZ:.0f} Hz refresh "
            f"({1e3 / PREFETCH_REFRESH_HZ:.1f} ms budget), degrade off",
            f"{'config':<12} {'hit':>5} {'miss rate':>9} {'p99 ms':>7}",
            f"{'no prefetch':<12} {base.cache_hit_rate:4.0%} "
            f"{base.deadline_miss_rate:8.1%} {base.latency_p99_ms:7.2f}",
            f"{'prefetch':<12} {pf.cache_hit_rate:4.0%} "
            f"{pf.deadline_miss_rate:8.1%} {pf.latency_p99_ms:7.2f}",
            f"prefetch: {pf.prefetch_stats['enqueued']} enqueued, "
            f"{pf.prefetch_stats['rendered']} rendered, "
            f"{pf.prefetch_stats['useful']} useful",
        ],
    )
    # The prefetch gate runs in CI --quick: speculation must lift the exact
    # cache hit rate and cut the deadline-miss rate on the seeded paced
    # trace.  Both rates are structural (budget < render time, degrade
    # off), so the comparison is deterministic up to scheduler interleave.
    if quick or os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert pf.cache_hit_rate >= base.cache_hit_rate, (
            f"prefetch hit {pf.cache_hit_rate:.0%} < "
            f"baseline {base.cache_hit_rate:.0%}"
        )
        assert pf.deadline_miss_rate <= base.deadline_miss_rate, (
            f"prefetch miss rate {pf.deadline_miss_rate:.1%} > "
            f"baseline {base.deadline_miss_rate:.1%}"
        )


def test_prefetch_preserves_exact_render_path(prefetch_rows):
    # Speculation adds cache contents, never pixels: requests that took the
    # exact render path in both replays produce bit-identical frames.
    compared = 0
    for base, pf in zip(
        prefetch_rows["base_responses"], prefetch_rows["pf_responses"]
    ):
        if base.cache_hit or pf.cache_hit or base.degraded or pf.degraded:
            continue
        assert np.array_equal(base.result.image, pf.result.image)
        compared += 1
    assert compared > 0, "no shared exact-render-path requests to compare"


# Frame transport: pickle-over-pipe vs zero-copy shared memory.  The
# transport only matters once frames are big — at ≥512² the executor
# result pipeline (pickle + pipe + unpickle) moves ~11 MB per frame — so
# this bench keeps 512×384 frames even under --quick and trims the model
# to the render-cost floor instead.  ``workers = cores`` keeps the host
# CPU-saturated, where wall time tracks total CPU work and the transport
# saving (no serialize, no deserialize, no frame copy) shows directly;
# an undersubscribed host hides it behind idle render overlap.  The gate
# degrades to an informational skip on 1-core hosts; checksum identity
# and segment-leak checks run unconditionally.
TRANSPORT_SIZE = 512
TRANSPORT_GAZES = [(5.0, 5.0), (25.0, 18.0), (40.0, 30.0), None]
TRANSPORT_WORKERS = max(1, min(CORES, 4))
TRANSPORT_GATE_MIN_CORES = 2
TRANSPORT_GATE = 1.15


@pytest.fixture(scope="module")
def transport_rows():
    if not shm_available():  # pragma: no cover - POSIX-only CI
        pytest.skip("POSIX shared memory unavailable on this host")
    fmodel = uniform_foveated_model(
        random_model(16, np.random.default_rng(7)),
        EVAL_REGION_LAYOUT,
        EVAL_LEVEL_FRACTIONS,
    )
    _, poses = trace_cameras(
        "kitchen",
        n_train=4,
        n_eval=2,
        width=TRANSPORT_SIZE,
        height=int(TRANSPORT_SIZE * 0.75),
    )
    n_frames = len(poses) * len(TRANSPORT_GAZES)

    def measure(shm_bytes):
        def run_burst(pool, sink):
            # Frames land in ``sink``, not the task result — returning
            # them from asyncio.run repr()s every array on Runner teardown
            # (see replay_trace), which would swamp the transport signal.
            async def burst():
                results = []
                for camera in poses:
                    results.extend(await pool.render(camera, TRANSPORT_GAZES))
                sink["results"] = results

            asyncio.run(burst())

        sink: dict = {}
        with RenderWorkerPool(
            fmodel, workers=TRANSPORT_WORKERS, shm_bytes=shm_bytes
        ) as pool:
            run_burst(pool, sink)  # warm-up: worker init + first-touch
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                run_burst(pool, sink)
                times.append(time.perf_counter() - t0)
            stats = pool.transport_stats()  # counts warm-up + timed bursts
        checksum = frames_checksum(r.image for r in sink["results"])
        return dict(
            wall_s=sorted(times)[1],
            stats=stats,
            checksum=checksum,
            n_frames=n_frames,
        )

    rows = {"pipe": measure(0), "shm": measure(256 << 20)}
    assert active_segments() == [], "transport bench leaked shm segments"
    return rows


def test_transport_shm_vs_pipe(transport_rows, quick):
    pipe, shm = transport_rows["pipe"], transport_rows["shm"]
    speedup = pipe["wall_s"] / shm["wall_s"]
    lines = [
        f"{pipe['n_frames']} frames/burst at "
        f"{TRANSPORT_SIZE}x{int(TRANSPORT_SIZE * 0.75)}, "
        f"{TRANSPORT_WORKERS} workers, {CORES} cores",
        f"{'transport':<10} {'wall ms':>8} {'frames/s':>9} "
        f"{'MB shm':>7} {'MB pipe':>8} {'fallbacks':>9}",
    ]
    for label in ("pipe", "shm"):
        row = transport_rows[label]
        s = row["stats"]
        lines.append(
            f"{label:<10} {row['wall_s'] * 1e3:8.1f} "
            f"{row['n_frames'] / row['wall_s']:9.1f} "
            f"{s['bytes_via_shm'] / 1e6:7.1f} "
            f"{s['bytes_via_pipe'] / 1e6:8.1f} {s['shm_fallbacks']:9d}"
        )
    lines.append(f"shm speedup: {speedup:.2f}x")
    report(f"Serve frame transport{' [quick]' if quick else ''}", lines)

    # Correctness is unconditional: both transports serve the identical
    # frame stream, frames really rode the transport they claim, and no
    # /dev/shm segment survived the pools.
    assert shm["checksum"] == pipe["checksum"]
    # Warm-up + timed bursts all rode the claimed transport end to end.
    assert shm["stats"]["frames_via_shm"] == 4 * shm["n_frames"]
    assert shm["stats"]["shm_fallbacks"] == 0
    assert pipe["stats"]["frames_via_shm"] == 0
    assert pipe["stats"]["bytes_via_pipe"] > 0
    assert active_segments() == []

    if CORES < TRANSPORT_GATE_MIN_CORES:
        pytest.skip(
            f"transport gate needs >= {TRANSPORT_GATE_MIN_CORES} cores "
            f"(host has {CORES}); measured shm speedup {speedup:.2f}x"
        )
    # Enforced in the CI --quick smoke step and under REPRO_BENCH_STRICT:
    # zero-copy transport must beat pickling multi-megabyte frames.
    if quick or os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert speedup >= TRANSPORT_GATE, f"shm speedup: {speedup:.2f}x"


# Tracing overhead: the observability tentpole must be free when off.
# The gate prices the *disabled* path — the null backend_span checks and
# always-on stage-histogram observes every request pays even with tracing
# off — via a primitive microbench, scaled by a generous per-request op
# count, as a fraction of the measured untraced replay wall.  A direct
# traced-off-vs-seed A/B would diff two runs of identical code and gate on
# scheduler noise; this gate is deterministic in what it measures.  The
# traced-on row is informational: span recording is allowed to cost.
TRACE_OPS_PER_REQUEST = 32  # ~3 backend spans + ~6 scheduler probes, x3 slack
TRACE_OVERHEAD_GATE = 0.02


def test_tracing_overhead(replay_rows, quick):
    from repro.obs.metrics import Histogram
    from repro.obs.trace import backend_span

    r = replay_rows
    fmodel, trace = r["fmodel"], r["trace"]
    n_requests = trace.n_requests

    # Off-path primitive cost: a disabled backend_span (one global load +
    # None check, null context manager) plus a log-bucket histogram observe.
    hist = Histogram()
    iters = 100_000
    t0 = time.perf_counter()
    for _ in range(iters):
        with backend_span("x"):
            pass
        hist.observe(1e-3)
    per_op_s = (time.perf_counter() - t0) / iters
    off_frac = per_op_s * TRACE_OPS_PER_REQUEST * n_requests / r["serve_s"]

    # Traced-on replay (informational): full span recording + Chrome export.
    traced_config = ServeConfig(batch_budget=BATCH_BUDGET, trace=True)
    replay_trace(fmodel, trace, serve_config=traced_config)  # warm-up
    t0 = time.perf_counter()
    replay_trace(fmodel, trace, serve_config=traced_config)
    traced_s = time.perf_counter() - t0

    report(
        f"Serve tracing overhead{r['tag']}",
        [
            f"{n_requests} requests; disabled-path primitive "
            f"{per_op_s * 1e9:.0f} ns/op x {TRACE_OPS_PER_REQUEST} ops/req",
            f"tracing off: {off_frac:.3%} of the {r['serve_s'] * 1e3:.1f} ms "
            f"replay wall (gate <= {TRACE_OVERHEAD_GATE:.0%})",
            f"tracing on (informational): {traced_s * 1e3:.1f} ms vs "
            f"{r['serve_s'] * 1e3:.1f} ms off "
            f"({traced_s / r['serve_s']:.2f}x)",
        ],
    )
    # CI-gated: the disabled instrumentation path must stay within 2% of
    # the untraced replay wall.
    if quick or os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert off_frac <= TRACE_OVERHEAD_GATE, (
            f"disabled-path tracing overhead {off_frac:.3%} "
            f"> {TRACE_OVERHEAD_GATE:.0%}"
        )


def test_cache_misses_bit_identical(replay_rows):
    # Every miss the loop rendered matches a per-request render_foveated
    # call at the same (camera, gaze) — the serve tier adds scheduling and
    # caching, never pixels.
    misses = [p for p in replay_rows["responses"] if not p.cache_hit]
    assert misses, "trace produced no cache misses to verify"
    fmodel = replay_rows["fmodel"]
    for response in misses:
        ref = render_foveated(
            fmodel, response.request.camera, gaze=response.request.gaze
        )
        assert np.array_equal(ref.image, response.result.image)
