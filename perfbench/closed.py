"""The closed-loop workloads: ``frames`` and ``trajectory``.

One process makes one call at a time.  A *pass* covers every pose once,
so passes are balanced and a run makes as many whole passes as fit in its
time.  The untraced run calls the public entry points; the traced run
makes one untraced pass, then re-composes the same frames layer by layer
(:mod:`perfbench.layers`) and checks them bitwise against that pass.
"""

from __future__ import annotations

import collections
import gc
import hashlib
import statistics
import time

import numpy as np

from repro.foveation import render_foveated, render_foveated_batch
from repro.obs.trace import Tracer, set_active_tracer
from repro.scenes import gaze_trajectory
from repro.splat import ViewCache, render

from . import catalog, layers
from .common import (
    Result,
    build_model,
    eval_poses,
    metric_line,
    peak_rss_mb,
    reference_check,
    timed_setup,
)
from .probe import HostProbe

WIDTH, HEIGHT = 256, 192
LARGE = (1024, 768)
N_POSES = 4
TRAJECTORY_FRAMES = 16
GAZE_NAMES = ("centre", "mid-periphery", "off-screen")


def _frames_inputs(seed: int) -> dict:
    """Seeded inputs: pose order, call order within a pose, gaze jitter."""
    rng = np.random.default_rng(seed)
    poses = eval_poses(N_POSES, WIDTH, HEIGHT)
    large = eval_poses(N_POSES, *LARGE)
    gazes = []
    for _ in range(N_POSES):
        jitter = rng.uniform(-2.0, 2.0, size=(2, 2))
        gazes.append(
            [
                (WIDTH / 2 + jitter[0, 0], HEIGHT / 2 + jitter[0, 1]),
                (0.8 * WIDTH + jitter[1, 0], 0.3 * HEIGHT + jitter[1, 1]),
                (-0.5 * WIDTH, -0.5 * HEIGHT),
            ]
        )
    kinds = ["full", "large", "fov0", "fov1", "fov2"]
    ops = []
    for p in rng.permutation(N_POSES):
        for k in rng.permutation(len(kinds)):
            ops.append((kinds[k], int(p)))
    return {"poses": poses, "large": large, "gazes": gazes, "ops": ops}


def _trajectory_inputs(seed: int) -> dict:
    """Seeded inputs: pose order and a jitter of each pose's scanpath.

    The 16-sample scanpaths themselves are fixed per pose: where a
    scanpath dwells sets how many spans survive filtering, and a fresh
    scanpath per seed moved the work of a run by up to 50%.
    """
    rng = np.random.default_rng(seed)
    poses = eval_poses(N_POSES, WIDTH, HEIGHT)
    gazes = []
    for p in range(N_POSES):
        path = gaze_trajectory(WIDTH, HEIGHT, TRAJECTORY_FRAMES, seed=1000 + p)
        path = np.clip(path + rng.uniform(-2.0, 2.0, size=2), 0, [WIDTH - 1, HEIGHT - 1])
        gazes.append([tuple(map(float, g)) for g in path])
    order = [int(p) for p in rng.permutation(N_POSES)]
    return {"poses": poses, "gazes": gazes, "order": order}


def _fr_counts(counts: collections.Counter, result) -> None:
    stats = result.stats
    counts["visible"] += stats.num_projected
    counts["raster_pairs"] += stats.total_raster_intersections
    counts["sort_pairs"] += stats.total_sort_intersections
    counts["blend_pixels"] += int(stats.blend_pixels)
    counts["level_spans_kept"] += sum(s.num_spans for s in (result.level_spans or {}).values())
    counts["frames"] += 1


class _FrameDigest:
    """``repro.serve.frames_checksum`` of a pass, taken as its frames are made.

    A pass holds no frames, so its peak memory does not depend on the
    seeded call order (which frame is made last, with the others held).
    """

    def __init__(self) -> None:
        self._hash = hashlib.blake2b(digest_size=16)

    def add(self, *images) -> None:
        for image in images:
            self._hash.update(np.ascontiguousarray(image).tobytes())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


class _Run:
    """Bookkeeping shared by both closed loops."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, label: str, fn):
        """Run one operation; an exception is a failed operation."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # one failed frame must not end the run
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def failed_share(self) -> float:
        return len(self.failures) / self.attempted if self.attempted else 0.0

    def check_repeat(self, what: str, values: list) -> None:
        """Every pass renders the same inputs, so its counters must repeat."""
        for i, value in enumerate(values[1:], start=1):
            if value != values[0]:
                self.failures.append(f"{what} of pass {i} differ from pass 0")


def _passes(seconds: float, run_pass) -> list[float]:
    """Run whole passes until the next one would end nearer past ``seconds``
    than before it; returns each pass's wall time."""
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run_pass()
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.mean(walls) / 2 > seconds:
            return walls


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------
def _frames_public_pass(fmodel, inputs, run: _Run, times: dict, probe: HostProbe) -> tuple[str, dict]:
    """One pass of lone public calls; returns (frame digest, counters)."""
    images = _FrameDigest()
    counts: collections.Counter = collections.Counter()
    for kind, p in inputs["ops"]:
        t0 = time.perf_counter()
        if kind == "full":
            out = run.call(f"render pose {p}", lambda: render(fmodel.base, inputs["poses"][p]))
        elif kind == "large":
            out = run.call(f"render 1024x768 pose {p}", lambda: render(fmodel.base, inputs["large"][p]))
        else:
            g = int(kind[3])
            gaze = inputs["gazes"][p][g]
            out = run.call(
                f"render_foveated pose {p} gaze {GAZE_NAMES[g]}",
                lambda: render_foveated(fmodel, inputs["poses"][p], gaze),
            )
        dt = time.perf_counter() - t0
        probe.sample(4)
        if out is None:
            continue
        times[kind].append(dt)
        images.add(out.image)
        if kind in ("full", "large"):
            counts["visible"] += out.projected.num_visible
            counts["pairs"] += out.assignment.num_intersections
            counts["frames"] += 1
        else:
            _fr_counts(counts, out)
    return images.hexdigest(), dict(counts)


def _frames_recomposed_pass(fmodel, inputs, rec: layers.Recomposer) -> str:
    images = _FrameDigest()
    for kind, p in inputs["ops"]:
        if kind == "full":
            images.add(rec.full(fmodel.base, inputs["poses"][p]))
        elif kind == "large":
            images.add(rec.full(fmodel.base, inputs["large"][p]))
        else:
            gaze = inputs["gazes"][p][int(kind[3])]
            images.add(*rec.foveated(fmodel, inputs["poses"][p], [gaze]))
    return images.hexdigest()


def _frames_summary(times: dict) -> dict:
    gaze_medians = [statistics.median(times[f"fov{g}"]) for g in range(3)]
    fov = statistics.mean(gaze_medians)
    full = statistics.median(times["full"])
    return {
        "frame_ms": full * 1e3,
        "foveated_frame_ms": fov * 1e3,
        "gaze_ms": [m * 1e3 for m in gaze_medians],
        "foveated_speedup": full / fov,
        "large_frame_ms": statistics.median(times["large"]) * 1e3,
    }


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------
def _trajectory_public_pass(fmodel, inputs, run: _Run, times: dict, view_cache: collections.Counter, probe: HostProbe):
    images = _FrameDigest()
    counts: collections.Counter = collections.Counter()
    for p in inputs["order"]:
        cache = ViewCache()
        t0 = time.perf_counter()
        results = run.call(
            f"render_foveated_batch pose {p}",
            lambda: render_foveated_batch(fmodel, inputs["poses"][p], inputs["gazes"][p], cache=cache),
        )
        dt = time.perf_counter() - t0
        probe.sample(16)
        if results is None:
            continue
        times["call"].append(dt)
        view_cache.update(hits=int(cache.hits), misses=int(cache.misses))
        for result in results:
            images.add(result.image)
            _fr_counts(counts, result)
    return images.hexdigest(), dict(counts)


def _trajectory_recomposed_pass(fmodel, inputs, rec: layers.Recomposer) -> str:
    images = _FrameDigest()
    for p in inputs["order"]:
        images.add(*rec.foveated(fmodel, inputs["poses"][p], inputs["gazes"][p]))
    return images.hexdigest()


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------
# Counters both the public and the re-composed passes produce.
_SHARED_COUNTS = ("frames", "raster_pairs", "sort_pairs", "blend_pixels", "level_spans_kept")


def _traced(recomposed_pass, ops_per_pass, seconds, reference, run_, trace_path):
    """Re-composed passes under a tracer; returns (per-layer metrics, table).

    ``reference`` is the untraced pass: its digest, counters and call time.
    """
    ref_digest, ref_counts, untraced_wall = reference
    tracer = Tracer()
    tracer.name_process(tracer.pid, "perfbench")
    tracer.name_thread(0, "closed loop")
    counts: list[dict] = []

    def one_pass():
        rec = layers.Recomposer(tracer)
        run_.attempted += ops_per_pass
        try:
            d = recomposed_pass(rec)
        except Exception as exc:  # recorded as a failed pass, the run goes on
            run_.failures.append(f"re-composed pass: {type(exc).__name__}: {exc}")
            return
        if d != ref_digest:
            run_.failures.append("re-composed frames differ bitwise from the public entry points")
        counts.append(dict(rec.counts))

    prev = set_active_tracer(tracer)
    try:
        walls = _passes(max(seconds - untraced_wall, 0.0), one_pass)
    finally:
        set_active_tracer(prev)
    run_.check_repeat("re-composed work counters", counts)
    if counts and any(counts[0].get(k) != ref_counts.get(k) for k in _SHARED_COUNTS):
        run_.failures.append("re-composed work counters differ from the public entry points")
    tracer.write(trace_path)

    n = len(walls)
    pid = tracer.pid
    st = layers.self_times(tracer.spans())
    busy = lambda name: st.get((pid, name), (0.0, 0.0, 0))[1] * 1e3 / n  # noqa: E731
    dur = lambda name: st.get((pid, name), (0.0, 0.0, 0))[0] * 1e3 / n  # noqa: E731
    wall_ms = statistics.mean(walls) * 1e3
    self_total = sum(row[1] for row in st.values()) * 1e3 / n
    c = counts[0] if counts else {}
    m = catalog.empty_layers()
    for layer in (layers.PROJECTION, layers.TILING, layers.SORTING, layers.SEGMENTS, layers.REGIONS, layers.HIERARCHY):
        m[f"{layer}.busy_ms"] = busy(layer)
    m.update({
        "splat.projection.visible": c.get("visible", 0),
        "splat.tiling.pairs": c.get("pairs", 0),
        "splat.backends.segments.spans": c.get("spans", 0),
        "splat.backends.packed.busy_ms": dur(layers.PACKED),
        "splat.backends.packed.alpha_scan_ms": dur(layers.ALPHA_SCAN),
        "splat.backends.packed.composite_ms": dur(layers.COMPOSITE),
        "splat.backends.packed.unattributed_ms": busy(layers.PACKED),
        "splat.backends.packed.level_spans_kept": c.get("level_spans_kept", 0),
        "splat.backends.packed.span_keep_ratio": (
            c.get("level_spans_kept", 0) / c["foveated_spans"] if c.get("foveated_spans") else 0.0
        ),
        "splat.backends.packed.raster_pairs": c.get("raster_pairs", 0),
        "splat.backends.packed.sort_pairs": c.get("sort_pairs", 0),
        "splat.backends.packed.blend_pixels": c.get("blend_pixels", 0),
        "splat.renderer.prepare_ms": busy(layers.PROJECTION) + busy(layers.TILING) + busy(layers.SORTING),
        "bench.wall_ms": wall_ms,
        "bench.unattributed_ms": wall_ms - self_total,
        "bench.frames_rendered": c.get("frames", 0),
        # The side build of the row spans is work the public pass does not do.
        "bench.trace_overhead": (wall_ms - busy(layers.SEGMENTS)) / (untraced_wall * 1e3),
    })
    rows = [(layer, busy(layer)) for layer in layers.LAYER_SPANS]
    rows += [(f"{layers.PACKED} {layers.ALPHA_SCAN}", busy(layers.ALPHA_SCAN))]
    rows += [(f"{layers.PACKED} {layers.COMPOSITE}", busy(layers.COMPOSITE))]
    rows += [("unattributed", wall_ms - self_total)]
    table = [
        f"per-layer self time, mean of {n} traced pass(es) (trace: {trace_path});",
        f"  the wall includes the {layers.SEGMENTS} side build of the row spans, which the backend repeats:",
    ]
    table += [f"  {name:<40s} {ms:10.2f} ms  {ms / wall_ms:6.1%}" for name, ms in rows]
    table.append(f"  {'= wall':<40s} {sum(ms for _, ms in rows):10.2f} ms  (measured {wall_ms:.2f} ms)")
    return m, table


def run(workload: str, seed: int, seconds: float, trace: bool, trace_path: str) -> Result:
    probe = HostProbe()
    probe.sample(16)
    fmodel, setup_s, setup_samples = timed_setup(build_model)
    probe.sample(16)
    frames = workload == "frames"
    inputs = _frames_inputs(seed) if frames else _trajectory_inputs(seed)
    run_ = _Run()
    report = [f"model: {fmodel.num_points} points, {fmodel.num_levels} levels"]
    record: dict = {"setup_samples_s": setup_samples}

    times: dict = collections.defaultdict(list)  # wall-clock per kind of operation
    view_cache: collections.Counter = collections.Counter()  # hits and misses of the batch calls
    if frames:
        public_pass = lambda: _frames_public_pass(fmodel, inputs, run_, times, probe)  # noqa: E731
        recomposed_pass = lambda rec: _frames_recomposed_pass(fmodel, inputs, rec)  # noqa: E731
        ops_per_pass = len(inputs["ops"])
    else:
        public_pass = lambda: _trajectory_public_pass(fmodel, inputs, run_, times, view_cache, probe)  # noqa: E731
        recomposed_pass = lambda rec: _trajectory_recomposed_pass(fmodel, inputs, rec)  # noqa: E731
        ops_per_pass = len(inputs["order"])

    digests: list[str] = []
    counters: list[dict] = []

    def untraced_pass():
        d, c = public_pass()
        digests.append(d)
        counters.append(c)
        gc.collect()  # between passes, so garbage left at a peak does not vary the peak RSS

    # The traced run makes exactly one untraced pass, as its reference.
    walls = _passes(0.0 if trace else seconds, untraced_pass)
    run_.check_repeat("frame digests", digests)
    run_.check_repeat("work counters", counters)
    run_.failures.extend(reference_check(fmodel))
    n_frames = counters[0].get("frames", 0) * len(walls)
    record.update(
        digest=digests[0],
        counters=counters[0],
        passes=len(walls),
        pass_walls_s=walls,
        samples_s=dict(times),
        probe_s=probe.samples,
        probe_rss_mb=probe.rss_mb,
        order=inputs["ops"] if frames else inputs["order"],
    )
    report.append(f"passes: {len(walls)}  frames digest {digests[0]}")
    report.append("work counters per pass: " + "  ".join(f"{k}={v}" for k, v in sorted(counters[0].items())))

    if frames:
        s = _frames_summary(times)
        record["summary"] = s
        fov_ms = s["foveated_frame_ms"]
        report += [
            metric_line("frame_ms", "ms", times["full"], 1e3),
            *(metric_line(f"foveated[{GAZE_NAMES[g]}]", "ms", times[f"fov{g}"], 1e3) for g in range(3)),
            f"  {'foveated_frame_ms':<24s} {fov_ms:12.4f} ms  (mean of the gaze medians)",
            f"  {'foveated_speedup':<24s} {s['foveated_speedup']:12.4f} x  (frame_ms / foveated_frame_ms)",
            metric_line("large_frame_ms", "ms", times["large"], 1e3),
        ]
    else:
        per_frame = [t / TRAJECTORY_FRAMES for t in times["call"]]
        fov_ms = statistics.median(per_frame) * 1e3
        report += [
            metric_line("ms per frame", "ms", per_frame, 1e3),
            metric_line("ms per 16-frame call", "ms", times["call"], 1e3),
        ]
    busy_s = sum(sum(v) for v in times.values())
    throughput = n_frames / busy_s
    label = "frames/s (all lone calls)" if frames else "trajectory_fps"
    report.append(f"  {label:<24s} {throughput:12.4f} 1/s")
    scale = probe.scale
    report.append(
        f"host probe: median {probe.median_s * 1e3:.2f} ms over {len(probe.samples)} samples; end-to-end "
        f"times above are wall-clock, reported x {scale:.4f}; the probe added {probe.rss_mb:.1f} MiB to the peak RSS"
    )

    if trace:
        reference = (digests[0], counters[0], busy_s)  # one pass, without the probe
        per_layer, table = _traced(recomposed_pass, ops_per_pass, seconds, reference, run_, trace_path)
        if frames:
            per_layer["bench.foveated_speedup"] = record["summary"]["foveated_speedup"]
        else:
            lookups = view_cache["hits"] + view_cache["misses"]
            per_layer["splat.renderer.view_cache_hit_rate"] = view_cache["hits"] / lookups
        per_layer["bench.error_rate"] = run_.failed_share()
        report += table
        record["per_layer"] = per_layer
        metrics = {name: (per_layer[name], unit) for name, unit in catalog.PER_LAYER.items()}
    else:
        metrics = {
            "foveated_frame_ms": (fov_ms * scale, "ms"),
            "throughput_fps": (throughput / scale, "1/s"),
            "setup_s": (setup_s, "s"),  # wall-clock: the probe did not track it
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
        }
    return Result(workload, metrics, run_.attempted, run_.failures, report, record)
