"""Backend speedup: packed intersection-list engine vs the per-tile loop.

Reports reference-vs-packed wall-clock per frame so the perf trajectory is
tracked from the backend refactor onward.  The headline workload is a
256×256 frame over 2k+ gaussians with realistic splat footprints (a few
pixels mean radius, as in real 3DGS captures); a fat-splat variant — the
synthetic generator's default at this point count, where every splat spans
whole tiles and span pruning cannot remove work — is reported alongside for
honesty about the regime where the engines tie.

A second table tracks the batched multi-view path: ``render_batch`` over a
trajectory's poses (one concatenated segmented scan) against the sequential
per-view loop, both on cached ``PreparedView``s so the comparison isolates
the rasterization work that batching amortizes.

A third table tracks the batched *foveated* path: ``render_foveated_batch``
over a gaze trajectory (the pose's projection prefix and each of its
(tile, level) renders shared by every sample that needs it) against the
pre-PR consumer loop of one ``render_foveated`` per gaze.  This comparison
gates in ``--quick`` mode (≥1.15x) — eliminating the per-frame projection
re-run is a structural win, not a timing coin-flip.

Select a backend for the *other* benchmarks with ``REPRO_BACKEND``; run
with ``--quick`` for a CI-sized smoke pass of the same assertions.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.foveation import (
    render_foveated,
    render_foveated_batch,
    uniform_foveated_model,
)
from repro.harness import EVAL_LEVEL_FRACTIONS, EVAL_REGION_LAYOUT
from repro.scenes import gaze_trajectory, generate_scene, trace_cameras
from repro.splat import RenderConfig, ViewCache, render, render_batch

from _report import report

WIDTH = HEIGHT = 256
N_POINTS = 2048  # acceptance scale: >= 2k gaussians at 256x256
REPS = 5

# Batched-path workload: >= 8 trajectory poses sharing one segmented scan.
BATCH_VIEWS = 8
BATCH_SIZE_PX = 160

# Foveated gaze-trajectory workload: one pose, several gaze samples.
FOV_GAZE_FRAMES = 8

QUICK_SCALE = dict(size=96, points=512, reps=4)


def _scene(footprint_scale: float, n_points: int, size: int):
    scene = generate_scene("kitchen", n_points=n_points)
    # The synthetic generator sizes splats for tiny eval frames; rescale to
    # the few-pixel screen footprints real captures exhibit at full size.
    scene.log_scales += np.log(footprint_scale * size / 256.0)
    return scene


def _cameras(size: int, n: int = 1):
    train, evals = trace_cameras(
        "kitchen", n_train=max(n, 1), n_eval=max(n, 1), width=size, height=size
    )
    return (train + evals)[:n]


def _frame_ms(scene, camera, backend: str, reps: int) -> float:
    config = RenderConfig(backend=backend)
    render(scene, camera, config)  # warm-up
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        render(scene, camera, config)
        times.append(time.perf_counter() - t0)
    return min(times) * 1e3


@pytest.fixture(scope="module")
def scale(request):
    # ``tag`` keeps quick-smoke reports in their own results files so a CI
    # smoke run never overwrites the archived acceptance-scale record.
    if request.config.getoption("--quick"):
        return dict(**QUICK_SCALE, tag=" [quick]")
    return dict(size=WIDTH, points=N_POINTS, reps=REPS, tag="")


@pytest.fixture(scope="module")
def rows(scale):
    camera = _cameras(scale["size"])[0]
    out = []
    for label, footprint in (
        ("realistic", 0.15),
        ("medium", 0.3),
        ("fat (generator default)", 1.0),
    ):
        scene = _scene(footprint, scale["points"], scale["size"])
        ref_ms = _frame_ms(scene, camera, "reference", scale["reps"])
        packed_ms = _frame_ms(scene, camera, "packed", scale["reps"])
        ref_img = render(scene, camera, RenderConfig(backend="reference")).image
        packed_img = render(scene, camera, RenderConfig(backend="packed")).image
        out.append(
            (label, ref_ms, packed_ms, float(np.abs(ref_img - packed_img).max()))
        )
    return out


@pytest.fixture(scope="module")
def batch_rows(scale):
    """Batched-vs-sequential multi-view timings, two comparisons.

    - *raster only*: both sides on cached ``PreparedView``s — isolates the
      batched segmented scan against per-view ``forward`` calls.
    - *pipeline*: the pre-PR consumer loop (``render`` per view, which
      re-runs projection/tiling/sorting on every measurement) against
      ``render_batch`` with the shared view cache — what trajectory
      evaluation, CE and the harness actually gained.
    """
    size = min(scale["size"], BATCH_SIZE_PX)
    scene = _scene(0.15, scale["points"], size)
    cameras = _cameras(size, BATCH_VIEWS)
    config = RenderConfig(backend="packed")
    cache = ViewCache()
    # Pre-warm, and keep a fixed prepared list for the sequential side: the
    # timed raster-only loop then pays zero cache lookups or model hashes,
    # so the comparison is not biased toward the batched side (which
    # amortizes one lookup per call).
    prepared_views = cache.get_batch(scene, cameras, config)

    def sequential_warm():
        return [
            render(scene, c, config, prepared=p)
            for c, p in zip(cameras, prepared_views)
        ]

    def sequential_cold():
        return [render(scene, c, config) for c in cameras]

    def batched():
        return render_batch(scene, cameras, config, cache=cache)

    def best_ms(fn):
        fn(), fn()  # warm-up (incl. the batch workspace)
        times = []
        for _ in range(2 * scale["reps"]):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times) * 1e3

    seq_warm_ms = best_ms(sequential_warm)
    seq_cold_ms = best_ms(sequential_cold)
    bat_ms = best_ms(batched)
    seq_images = [r.image for r in sequential_cold()]
    bat_images = [r.image for r in batched()]
    diff = max(float(np.abs(a - b).max()) for a, b in zip(seq_images, bat_images))
    return dict(
        views=len(cameras),
        size=size,
        seq_warm_ms=seq_warm_ms,
        seq_cold_ms=seq_cold_ms,
        bat_ms=bat_ms,
        diff=diff,
        cache_hits=cache.hits,
        tag=scale["tag"],
    )


def test_backend_speedup(rows, scale, benchmark):
    scene = _scene(0.15, scale["points"], scale["size"])
    camera = _cameras(scale["size"])[0]
    benchmark(lambda: render(scene, camera, RenderConfig(backend="packed")))

    lines = [
        f"{scale['points']} gaussians, {scale['size']}x{scale['size']}, "
        f"wall-clock per frame (min of {scale['reps']})",
        f"{'splat footprint':<24} {'reference':>10} {'packed':>10} "
        f"{'speedup':>8} {'max|diff|':>10}",
    ]
    for label, ref_ms, packed_ms, diff in rows:
        lines.append(
            f"{label:<24} {ref_ms:8.1f}ms {packed_ms:8.1f}ms "
            f"{ref_ms / packed_ms:7.2f}x {diff:10.1e}"
        )
    report(f"Backend speedup (packed vs reference){scale['tag']}", lines)

    for label, ref_ms, packed_ms, diff in rows:
        # Equivalence must hold on every workload.
        assert diff < 1e-10, label

    # Wall-clock ratios on shared CI runners are noisy, so by default the
    # report above is the only timing signal and nothing is asserted about
    # it.  Set REPRO_BENCH_STRICT=1 on a quiet machine to enforce the
    # acceptance targets: >= 2x on the realistic-footprint workload (where
    # the packed engine's work-proportional span lists pay off) and no bad
    # regression in the fat-splat regime where span pruning cannot help.
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        label, ref_ms, packed_ms, _ = rows[0]
        assert ref_ms / packed_ms >= 2.0, f"{label}: {ref_ms / packed_ms:.2f}x"
        label, ref_ms, packed_ms, _ = rows[-1]
        assert packed_ms <= ref_ms * 1.6, f"{label}: {ref_ms / packed_ms:.2f}x"


@pytest.fixture(scope="module")
def foveated_rows(scale):
    """Batched gaze-trajectory foveated rendering vs the pre-PR loop.

    The baseline is exactly what every multi-frame foveated consumer ran
    before ``render_foveated_batch`` existed: one ``render_foveated`` call
    per gaze sample, re-running the pose's Projection/Tiling/Sorting prefix
    every frame.  The batched path prepares the pose once, renders each
    (tile, level) pair the gaze samples need once in band-piece scans, and
    assembles every frame from those tile renders.
    """
    size = min(scale["size"], BATCH_SIZE_PX)
    scene = _scene(0.15, scale["points"], size)
    camera = _cameras(size)[0]
    fmodel = uniform_foveated_model(scene, EVAL_REGION_LAYOUT, EVAL_LEVEL_FRACTIONS)
    gazes = [
        tuple(g) for g in gaze_trajectory(size, size, FOV_GAZE_FRAMES, seed=0)
    ]
    config = RenderConfig(backend="packed")

    def per_frame_loop():
        return [
            render_foveated(fmodel, camera, gaze=gaze, config=config)
            for gaze in gazes
        ]

    def batched():
        return render_foveated_batch(fmodel, camera, gazes=gazes, config=config)

    def seconds(fn):
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    for _ in range(2):  # warm-up (incl. the span workspace)
        per_frame_loop(), batched()
    # Interleaved pairs, alternating which path runs first, so host drift
    # lands on both paths alike; the speedup is the median per-pair ratio.
    pairs = []
    for i in range(2 * scale["reps"]):
        if i % 2:
            bat_s = seconds(batched)
            pairs.append((seconds(per_frame_loop), bat_s))
        else:
            pairs.append((seconds(per_frame_loop), seconds(batched)))
    loop_s, bat_s = np.array(pairs).T
    speedups = loop_s / bat_s
    bitwise = [
        np.array_equal(a.image, b.image) for a, b in zip(per_frame_loop(), batched())
    ]
    return dict(
        frames=len(gazes),
        size=size,
        pairs=len(pairs),
        loop_ms=float(np.median(loop_s)) * 1e3,
        bat_ms=float(np.median(bat_s)) * 1e3,
        speedup=float(np.median(speedups)),
        speedup_min=float(speedups.min()),
        speedup_max=float(speedups.max()),
        bitwise=bitwise,
        tag=scale["tag"],
    )


def test_foveated_batch_speedup(foveated_rows, quick):
    r = foveated_rows
    speedup = r["speedup"]
    report(
        f"Foveated gaze-trajectory batching{r['tag']}",
        [
            f"{r['frames']} gaze samples of one pose at {r['size']}x{r['size']}, "
            f"packed backend, {r['pairs']} interleaved pairs",
            f"{'path':<30} {'median per trajectory':>21}",
            f"{'per-frame loop (pre-PR)':<30} {r['loop_ms']:19.1f}ms",
            f"{'render_foveated_batch':<30} {r['bat_ms']:19.1f}ms",
            f"speedup: {speedup:.2f}x median per pair "
            f"(min {r['speedup_min']:.2f}x, max {r['speedup_max']:.2f}x)",
        ],
    )
    # Every batched frame is bitwise its own per-frame render: each pixel
    # row scans only its own spans, so a shared tile render is the one a
    # lone frame computes.
    assert all(r["bitwise"]), r["bitwise"]
    # The gaze-trajectory throughput gate: the batched path shares one
    # projection prefix across the whole scanpath, so the win is structural
    # and holds on shared CI runners — enforced in the --quick smoke step
    # (and under REPRO_BENCH_STRICT at acceptance scale).
    if quick or os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert speedup >= 1.15, f"foveated batch: {speedup:.2f}x"


def test_batched_speedup(batch_rows):
    r = batch_rows
    raster_speedup = r["seq_warm_ms"] / r["bat_ms"]
    pipeline_speedup = r["seq_cold_ms"] / r["bat_ms"]
    # Title kept short: _report slugs are truncated at 60 chars, and the
    # quick tag must survive so smoke runs never clobber the archived file.
    report(
        f"Batched multi-view speedup{r['tag']}",
        [
            f"{r['views']} views, {r['size']}x{r['size']}, packed backend, "
            f"batched path on the shared view cache ({r['cache_hits']} hits)",
            f"{'comparison':<28} {'sequential':>12} {'batched':>10} {'speedup':>8}",
            f"{'raster only (both cached)':<28} {r['seq_warm_ms']:10.1f}ms "
            f"{r['bat_ms']:8.1f}ms {raster_speedup:7.2f}x",
            f"{'pipeline (pre-PR loop)':<28} {r['seq_cold_ms']:10.1f}ms "
            f"{r['bat_ms']:8.1f}ms {pipeline_speedup:7.2f}x",
            f"max|diff| vs sequential: {r['diff']:.1e}",
        ],
    )
    # Batched output must match the sequential per-view path to within the
    # backend-equivalence tolerance on every frame.
    assert r["diff"] < 1e-10
    # The cache really did serve every repeated (model, pose) pair.
    assert r["cache_hits"] > 0
    # Wall-clock ratios stay report-only on shared runners (same policy as
    # test_backend_speedup); REPRO_BENCH_STRICT=1 enforces the acceptance
    # targets on a quiet machine: the consumer-visible pipeline comparison
    # wins clearly, and the raster-only scan does not badly regress.  The
    # sequential baseline of the raster-only comparison runs each view as a
    # batch of one on the warm workspace, so parity for the batched scan
    # sits around 0.9 of it.
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert pipeline_speedup >= 1.15, f"pipeline: {pipeline_speedup:.2f}x"
        assert raster_speedup >= 0.85, f"raster only: {raster_speedup:.2f}x"
