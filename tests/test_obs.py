"""The observability tentpole: repro.obs metrics + tracing contracts.

Covers the metric primitives (int-like counters, callback gauges,
mergeable log-bucket histograms, registry snapshots/exposition), the
span tracer (nesting/ordering, ring eviction, clock injection, Chrome
trace-event schema), cross-process worker-span stitching under both
fork and spawn, the cache counter-neutrality pins (peek/contains/
degraded_alternate vs get), the serve clock seam (deterministic
deadlines under a fake clock), and merged-histogram stage percentiles
in replay reports.
"""

import asyncio
import json
import math
import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.foveation import uniform_foveated_model
from repro.harness import EVAL_LEVEL_FRACTIONS, EVAL_REGION_LAYOUT
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_SPAN,
    Tracer,
    active_tracer,
    backend_span,
    delta,
    set_active_tracer,
)
from repro.scenes import trace_cameras
from repro.serve import (
    FrameCache,
    ServeConfig,
    WorkloadSpec,
    generate_serve_trace,
    replay_trace,
)
from repro.serve.regions import GazeRegionKey
from repro.serve.workers import RenderWorkerPool
from repro.splat import ViewCache, random_model
from repro.splat.renderer import prepare_view

WIDTH, HEIGHT = 64, 48
TIMEOUT_S = 120


@pytest.fixture(autouse=True)
def obs_timeout():
    """Watchdog: a hung worker pool fails fast instead of stalling CI."""
    if not hasattr(signal, "SIGALRM"):  # pragma: no cover - non-POSIX
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(f"obs test exceeded {TIMEOUT_S}s watchdog")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# -- metrics primitives ------------------------------------------------------


class TestCounter:
    def test_int_like_call_sites_unchanged(self):
        # The exact idioms the caches use: +=, comparisons, division,
        # formatting.  The migration must change zero call sites.
        c = Counter()
        before = id(c)
        c += 3
        assert id(c) == before  # identity survives +=: registry stays live
        assert c == 3
        assert c != 2
        assert c < 4 and c <= 3 and c > 2 and c >= 3
        assert c + 1 == 4 and 1 + c == 4
        assert c - 1 == 2 and 10 - c == 7
        assert c / 2 == 1.5 and 6 / c == 2.0
        assert c * 2 == 6 and c // 2 == 1 and c % 2 == 1
        assert int(c) == 3 and float(c) == 3.0 and -c == -3
        assert f"{c:4d}" == "   3" and f"{c}" == "3"
        assert bool(c) and not bool(Counter())
        assert list(range(5))[c] == 3  # __index__

    def test_inc_and_reset(self):
        c = Counter(5)
        c.inc()
        c.inc(4)
        assert c.value == 10
        c.reset()
        assert c == 0


class TestGauge:
    def test_set_and_value(self):
        g = Gauge()
        g.set(2.5)
        assert g.value == 2.5

    def test_callback_gauge_reads_live_state(self):
        state = {"n": 1}
        g = Gauge(fn=lambda: state["n"])
        assert g.value == 1
        state["n"] = 7
        assert g.value == 7
        with pytest.raises(ValueError):
            g.set(3.0)


class TestHistogram:
    def test_basic_moments(self):
        h = Histogram()
        for v in (0.001, 0.002, 0.004):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(0.007)
        assert h.mean() == pytest.approx(0.007 / 3)
        assert h.min == pytest.approx(0.001)
        assert h.max == pytest.approx(0.004)

    def test_empty_histogram_is_all_zero(self):
        h = Histogram()
        assert h.count == 0 and h.sum == 0.0
        assert h.mean() == 0.0 and h.min == 0.0 and h.max == 0.0
        assert h.percentile(50.0) == 0.0

    def test_percentile_within_bucket_resolution(self):
        # growth=1.2 buckets bound the relative error at ~10%: the
        # geometric midpoint of the rank bucket is within sqrt(growth)
        # of any sample inside it.
        rng = np.random.default_rng(0)
        samples = rng.lognormal(mean=-5.0, sigma=1.0, size=4000)
        h = Histogram()
        for v in samples:
            h.observe(float(v))
        for q in (50.0, 90.0, 99.0):
            true = float(np.percentile(samples, q))
            got = h.percentile(q)
            assert abs(got - true) / true < 0.12, (q, got, true)

    def test_underflow_bucket(self):
        h = Histogram()
        h.observe(0.0)
        h.observe(1e-9)
        assert h.buckets() == {-1: 2}
        assert h.percentile(50.0) <= h.v0

    def test_merge_equals_histogram_of_concatenation(self):
        rng = np.random.default_rng(1)
        a, b = rng.exponential(0.01, 300), rng.exponential(0.05, 700)
        ha, hb, hall = Histogram(), Histogram(), Histogram()
        for v in a:
            ha.observe(float(v))
            hall.observe(float(v))
        for v in b:
            hb.observe(float(v))
            hall.observe(float(v))
        merged = Histogram.merged([ha, hb])
        assert merged.buckets() == hall.buckets()
        assert merged.count == 1000
        assert merged.sum == pytest.approx(hall.sum)
        assert merged.min == pytest.approx(hall.min)
        assert merged.max == pytest.approx(hall.max)
        for q in (50.0, 90.0, 99.0):
            assert merged.percentile(q) == hall.percentile(q)

    def test_merged_percentile_beats_mean_of_shard_percentiles(self):
        # The bug class satellite 3 removes: averaging per-shard p90s.
        # One idle-ish shard (fast) + one loaded shard (slow): the true
        # p90 of the union sits in the slow population, while the mean of
        # per-shard p90s lands nowhere meaningful.
        fast, slow = Histogram(), Histogram()
        fast_samples = [0.001] * 90 + [0.002] * 10
        slow_samples = [0.100] * 900 + [0.200] * 100
        for v in fast_samples:
            fast.observe(v)
        for v in slow_samples:
            slow.observe(v)
        merged = Histogram.merged([fast, slow])
        true_p90 = float(np.percentile(fast_samples + slow_samples, 90))
        mean_of_p90 = (fast.percentile(90.0) + slow.percentile(90.0)) / 2
        merged_err = abs(merged.percentile(90.0) - true_p90) / true_p90
        naive_err = abs(mean_of_p90 - true_p90) / true_p90
        assert merged_err < 0.12
        assert naive_err > 0.4  # the naive estimate is catastrophically off

    def test_pending_values_fold_like_single_observes(self):
        # ``observe`` defers bucketing to a pending list; across the fold
        # threshold, with values still pending at read time, every
        # statistic must equal folding each value as it arrives.
        rng = np.random.default_rng(2)
        n = 2 * Histogram.FOLD_AT + 123
        values = [float(v) for v in rng.lognormal(-5.0, 2.0, n)]
        values[::97] = [0.0] * len(values[::97])  # underflow bucket

        def observed(vals, eager):
            h = Histogram()
            for v in vals:
                h.observe(v)
                if eager:
                    h.buckets()  # a read folds the value on its own
            return h

        # The per-value loop the histogram used to run is the reference.
        ref_buckets, ref_sum = {}, 0.0
        v0, log_growth = Histogram().v0, math.log(Histogram().growth)
        for v in values:
            idx = -1 if v <= v0 else int(math.log(v / v0) / log_growth)
            ref_buckets[idx] = ref_buckets.get(idx, 0) + 1
            ref_sum += v

        deferred, eager = observed(values, False), observed(values, True)
        assert deferred.buckets() == eager.buckets() == ref_buckets
        assert deferred.count == eager.count == n
        assert deferred.sum == eager.sum == ref_sum
        assert (deferred.min, deferred.max) == (min(values), max(values))
        assert (eager.min, eager.max) == (min(values), max(values))
        for q in (0.0, 50.0, 90.0, 99.0, 100.0):
            assert deferred.percentile(q) == eager.percentile(q)

        cut = Histogram.FOLD_AT + 7  # both halves end with pending values
        merged = Histogram.merged(
            [observed(values[:cut], False), observed(values[cut:], False)]
        )
        eager_merged = Histogram.merged(
            [observed(values[:cut], True), observed(values[cut:], True)]
        )
        assert merged.buckets() == eager_merged.buckets() == eager.buckets()
        assert merged.count == n
        assert merged.sum == eager_merged.sum
        for q in (50.0, 90.0, 99.0):
            assert merged.percentile(q) == eager_merged.percentile(q)

    def test_merge_rejects_mismatched_geometry(self):
        with pytest.raises(ValueError, match="geometry"):
            Histogram().merge(Histogram(growth=2.0))


class TestRegistry:
    def test_register_attaches_live_objects(self):
        reg = MetricsRegistry()
        c = reg.counter("hits")
        c += 2
        assert reg.snapshot() == {"hits": 2}
        c.inc()
        assert reg.snapshot() == {"hits": 3}

    def test_labels_render_and_key_separately(self):
        reg = MetricsRegistry()
        reg.counter("req", shard="0").inc(1)
        reg.counter("req", shard="1").inc(5)
        snap = reg.snapshot()
        assert snap == {'req{shard="0"}': 1, 'req{shard="1"}': 5}
        assert reg.get("req", shard="1").value == 5
        assert len(reg) == 2 and reg.names() == ["req"]

    def test_reregistration_replaces(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(9)
        fresh = Counter()
        reg.register("n", fresh)
        assert reg.snapshot() == {"n": 0}

    def test_unregister(self):
        reg = MetricsRegistry()
        reg.counter("n")
        reg.unregister("n")
        assert len(reg) == 0

    def test_rejects_non_metrics(self):
        with pytest.raises(TypeError):
            MetricsRegistry().register("x", 42)

    def test_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.counter("hits", help="cache hits", shard="0").inc(3)
        reg.gauge_fn("depth", lambda: 4.0)
        h = reg.histogram("lat_seconds")
        h.observe(0.01)
        h.observe(0.02)
        text = reg.render_prometheus()
        assert "# HELP hits cache hits" in text
        assert "# TYPE hits counter" in text
        assert 'hits{shard="0"} 3' in text
        assert "# TYPE depth gauge" in text
        assert "depth 4" in text
        assert "# TYPE lat_seconds histogram" in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_count 2" in text
        assert "lat_seconds_sum 0.03" in text
        # Bucket counts are cumulative and end at the total.
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("lat_seconds_bucket")
        ]
        assert counts == sorted(counts) and counts[-1] == 2

    def test_delta_meters_an_interval(self):
        reg = MetricsRegistry()
        c = reg.counter("n")
        h = reg.histogram("lat")
        c.inc(2)
        h.observe(0.5)
        prev = reg.snapshot()
        c.inc(3)
        h.observe(1.5)
        d = delta(prev, reg.snapshot())
        assert d["n"] == 3
        assert d["lat"]["count"] == 1
        assert d["lat"]["sum"] == pytest.approx(1.5)


# -- tracer ------------------------------------------------------------------


class FakeClock:
    """Deterministic clock: advances ``step`` seconds per call."""

    def __init__(self, start: float = 0.0, step: float = 1.0):
        self.now = start
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class TestTracer:
    def test_span_nesting_and_ordering(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        spans = tracer.spans()
        # Inner closes first (post-order append); outer encloses inner.
        assert [s[0] for s in spans] == ["inner", "outer"]
        (_, _, i0, i1, _, _, _), (_, _, o0, o1, _, _, _) = spans
        assert o0 < i0 < i1 < o1

    def test_add_records_existing_stamps(self):
        tracer = Tracer()
        tracer.add("queue-wait", "serve", 1.0, 2.5, tid=101, args={"n": 1})
        (name, cat, t0, t1, pid, tid, args) = tracer.spans()[0]
        assert (name, cat, t0, t1, tid) == ("queue-wait", "serve", 1.0, 2.5, 101)
        assert pid == os.getpid()
        assert args == {"n": 1}

    def test_ring_eviction_counts_drops(self):
        tracer = Tracer(capacity=4)
        for i in range(6):
            tracer.add(f"s{i}", "t", float(i), float(i) + 0.5)
        assert len(tracer) == 4
        assert tracer.dropped == 2
        assert [s[0] for s in tracer.spans()] == ["s2", "s3", "s4", "s5"]
        assert tracer.to_chrome_trace()["otherData"]["dropped_spans"] == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_chrome_trace_schema(self):
        tracer = Tracer(pid=1234)
        tracer.add("a", "serve", 2.0, 2.001, tid=0)
        tracer.add("b", "backend", 2.0005, 2.0007, tid=100, args={"n": 3})
        tracer.name_thread(0, "batcher")
        tracer.name_process(999, "render-worker 999")
        doc = tracer.to_chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        ms = [e for e in events if e["ph"] == "M"]
        for e in xs:
            assert set(("name", "cat", "ph", "ts", "dur", "pid", "tid")) <= set(e)
        # Timestamps rebase to the earliest span and convert to µs.
        assert min(e["ts"] for e in xs) == 0.0
        b = next(e for e in xs if e["name"] == "b")
        assert b["ts"] == pytest.approx(500.0)
        assert b["dur"] == pytest.approx(200.0)
        assert b["args"] == {"n": 3}
        assert {(e["name"], e["args"]["name"]) for e in ms} == {
            ("thread_name", "batcher"),
            ("process_name", "render-worker 999"),
        }

    def test_adopt_stitches_foreign_pid(self):
        parent = Tracer(clock=FakeClock())
        worker = Tracer(clock=FakeClock(start=10.0), pid=4321)
        with worker.span("render", args={"gazes": 2}):
            pass
        compact = worker.drain_compact()
        assert len(worker) == 0  # drained
        parent.adopt(compact, pid=4321, process_label="render-worker 4321")
        (name, _, _, _, pid, _, args) = parent.spans()[0]
        assert (name, pid, args) == ("render", 4321, {"gazes": 2})
        doc = parent.to_chrome_trace()
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert any(
            e["pid"] == 4321 and e["args"]["name"] == "render-worker 4321"
            for e in meta
        )

    def test_write_round_trips_json(self, tmp_path):
        tracer = Tracer()
        tracer.add("a", "t", 0.0, 0.1)
        path = tmp_path / "trace.json"
        assert tracer.write(path) == 1
        doc = json.loads(path.read_text())
        assert [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"] == ["a"]


class TestActiveTracerSeam:
    def test_backend_span_is_null_when_inactive(self):
        assert active_tracer() is None
        assert backend_span("prepare") is NULL_SPAN

    def test_activation_scopes_and_restores(self):
        tracer = Tracer(clock=FakeClock())
        prev = set_active_tracer(tracer)
        try:
            assert prev is None
            with backend_span("prepare", args={"w": 64}):
                pass
        finally:
            restored = set_active_tracer(prev)
        assert restored is tracer
        assert active_tracer() is None
        (name, cat, _, _, _, _, args) = tracer.spans()[0]
        assert (name, cat, args) == ("prepare", "backend", {"w": 64})

    def test_prepare_view_records_backend_span(self):
        from repro.splat.renderer import RenderConfig

        model = random_model(30, np.random.default_rng(0))
        _, cams = trace_cameras(
            "kitchen", n_train=4, n_eval=1, width=WIDTH, height=HEIGHT
        )
        tracer = Tracer()
        prev = set_active_tracer(tracer)
        try:
            prepare_view(model, cams[0], RenderConfig())
        finally:
            set_active_tracer(prev)
        names = [s[0] for s in tracer.spans()]
        assert "prepare" in names

    def test_band_pieces_trace_nests_on_lane_zero(self, monkeypatch):
        # Pool threads record nothing: every span is the calling thread's,
        # so spans nest on lane 0 and no self time goes negative (a worker
        # span on that lane would be counted twice by a per-lane breakdown).
        from concurrent.futures import ThreadPoolExecutor

        from repro.foveation import render_foveated
        from repro.splat import RenderConfig, render
        from repro.splat.backends import packed

        fmodel = uniform_foveated_model(
            random_model(120, np.random.default_rng(1)),
            EVAL_REGION_LAYOUT,
            EVAL_LEVEL_FRACTIONS,
        )
        _, cams = trace_cameras(
            "kitchen", n_train=4, n_eval=1, width=WIDTH, height=HEIGHT
        )
        pool = ThreadPoolExecutor(2)
        monkeypatch.setattr(packed, "_pool", pool)
        monkeypatch.setenv(packed.SPAN_BUDGET_ENV, "1")  # a piece per band
        tracer = Tracer()
        prev = set_active_tracer(tracer)
        try:
            # Band pieces and their spans are the packed engine's.
            config = RenderConfig(backend="packed")
            with tracer.span("frame"):
                render(fmodel.base, cams[0], config)
            with tracer.span("frame"):
                render_foveated(
                    fmodel, cams[0], gaze=(WIDTH / 3, HEIGHT / 2), config=config
                )
        finally:
            set_active_tracer(prev)
            pool.shutdown()
        spans = tracer.spans()
        assert {(pid, tid) for *_, pid, tid, _ in spans} == {(os.getpid(), 0)}
        scans = [s[6] for s in spans if s[0] == "alpha-scan"]
        assert len(scans) == 2
        for args in scans:
            assert args["pieces"] > 1 and args["threads"] == 2
            assert 0 < args["max_piece_spans"] <= args["spans"]
        ordered = sorted(spans, key=lambda s: (s[2], -s[3]))
        stack: list[list] = []  # [t1, time covered by children]
        self_times = []

        def close():
            t1, child, t0 = stack.pop()
            self_times.append((t1 - t0) - child)
            if stack:
                stack[-1][1] += t1 - t0

        for _, _, t0, t1, *_ in ordered:
            while stack and t0 >= stack[-1][0]:
                close()
            # Properly nested: a span starting inside its parent ends there.
            assert not stack or t1 <= stack[-1][0]
            stack.append([t1, 0.0, t0])
        while stack:
            close()
        assert len(self_times) == len(spans)
        assert min(self_times) >= 0.0

    def test_multi_model_frame_is_one_scan(self):
        # Every level model rides one band-piece scan: one alpha-scan span
        # over all of the frame's level views, not one per level.
        from repro.foveation import render_multi_model
        from repro.splat import RenderConfig

        layout = EVAL_REGION_LAYOUT
        levels = [
            random_model(30 * (layout.num_levels - t), np.random.default_rng(t))
            for t in range(layout.num_levels)
        ]
        _, cams = trace_cameras(
            "kitchen", n_train=4, n_eval=1, width=WIDTH, height=HEIGHT
        )
        tracer = Tracer()
        prev = set_active_tracer(tracer)
        try:
            render_multi_model(
                levels, layout, cams[0], gaze=(WIDTH / 3, HEIGHT / 2),
                config=RenderConfig(backend="packed"),
            )
        finally:
            set_active_tracer(prev)
        scans = [s[6] for s in tracer.spans() if s[0] == "alpha-scan"]
        assert len(scans) == 1
        assert scans[0]["views"] == layout.num_levels
        assert scans[0]["spans"] > 0


# -- cache counter pins ------------------------------------------------------


def _fake_frame(nbytes: int = 1024):
    return np.zeros(nbytes, dtype=np.uint8)


def _key(region: GazeRegionKey, camera_fp: str = "cam0") -> tuple:
    return ("model0", camera_fp, region, "cfg0")


class TestFrameCacheCounters:
    def test_get_counts_peek_does_not(self):
        cache = FrameCache(max_bytes=1 << 20)
        key = _key(GazeRegionKey(0, 0))
        assert cache.get(key) is None  # miss
        cache.put(key, _fake_frame())
        assert cache.get(key) is not None  # hit
        assert cache.peek(key) is not None  # counter-neutral
        assert cache.peek(_key(GazeRegionKey(1, 0))) is None  # neutral miss
        assert cache.contains(key)  # neutral both ways
        assert not cache.contains(_key(GazeRegionKey(1, 1)))
        assert (int(cache.hits), int(cache.misses)) == (1, 1)

    def test_degraded_alternate_is_counter_neutral(self):
        cache = FrameCache(max_bytes=1 << 20)
        cache.put(_key(GazeRegionKey(1, 0)), _fake_frame())
        # Same pose, different region: a degrade candidate exists, and
        # finding it moves no counter.
        assert cache.degraded_alternate(_key(GazeRegionKey(0, 0))) is not None
        assert cache.degraded_alternate(_key(GazeRegionKey(0, 0), "cam1")) is None
        assert (int(cache.hits), int(cache.misses)) == (0, 0)

    def test_peek_refreshes_recency_like_get(self):
        cache = FrameCache(max_bytes=2048 + 256)
        a, b = _key(GazeRegionKey(0, 0)), _key(GazeRegionKey(1, 0))
        cache.put(a, _fake_frame(1024))
        cache.put(b, _fake_frame(1024))
        cache.peek(a)  # refresh a: b becomes LRU
        cache.put(_key(GazeRegionKey(2, 0)), _fake_frame(1024))  # evicts b
        assert cache.contains(a) and not cache.contains(b)
        assert int(cache.evictions) == 1

    def test_contains_is_recency_neutral(self):
        cache = FrameCache(max_bytes=2048 + 256)
        a, b = _key(GazeRegionKey(0, 0)), _key(GazeRegionKey(1, 0))
        cache.put(a, _fake_frame(1024))
        cache.put(b, _fake_frame(1024))
        cache.contains(a)  # must NOT refresh a: a stays LRU
        cache.put(_key(GazeRegionKey(2, 0)), _fake_frame(1024))  # evicts a
        assert not cache.contains(a) and cache.contains(b)

    def test_stats_is_thin_view_and_registry_stays_live(self):
        cache = FrameCache(max_bytes=1 << 20)
        reg = MetricsRegistry()
        cache.register_metrics(reg)
        key = _key(GazeRegionKey(0, 0))
        cache.get(key)
        cache.put(key, _fake_frame())
        cache.get(key)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert isinstance(stats["hits"], int)  # plain data, JSON-safe
        snap = reg.snapshot()
        assert snap["frame_cache_hits"] == 1
        assert snap["frame_cache_misses"] == 1
        assert snap["frame_cache_entries"] == 1
        assert snap["frame_cache_bytes"] == cache.current_bytes


class TestViewCacheCounters:
    def test_hits_misses_evictions_and_registry(self):
        model = random_model(30, np.random.default_rng(0))
        _, cams = trace_cameras(
            "kitchen", n_train=4, n_eval=3, width=WIDTH, height=HEIGHT
        )
        cache = ViewCache(maxsize=2)
        reg = MetricsRegistry()
        cache.register_metrics(reg)
        cache.get(model, cams[0])
        cache.get(model, cams[0])  # hit
        cache.get(model, cams[1])
        cache.get(model, cams[2])  # evicts cams[0]
        cache.get(model, cams[0])  # miss again after eviction
        stats = cache.stats()
        assert stats == {"hits": 1, "misses": 4, "evictions": 2, "entries": 2}
        snap = reg.snapshot()
        assert snap["view_cache_hits"] == 1
        assert snap["view_cache_misses"] == 4
        assert snap["view_cache_evictions"] == 2
        assert snap["view_cache_entries"] == 2


# -- serve integration -------------------------------------------------------


@pytest.fixture(scope="module")
def serve_env():
    fmodel = uniform_foveated_model(
        random_model(60, np.random.default_rng(2)),
        EVAL_REGION_LAYOUT,
        EVAL_LEVEL_FRACTIONS,
    )
    _, poses = trace_cameras(
        "kitchen", n_train=4, n_eval=3, width=WIDTH, height=HEIGHT
    )
    trace = generate_serve_trace(
        poses, WorkloadSpec(n_clients=3, frames_per_client=6, seed=0)
    )
    return fmodel, trace


class TestTracedReplay:
    def test_single_loop_trace_covers_the_lifecycle(self, serve_env):
        fmodel, trace = serve_env
        tracer = Tracer()
        _, report = replay_trace(fmodel, trace, tracer=tracer)
        names = {s[0] for s in tracer.spans()}
        assert {
            "batch-form",
            "queue-wait",
            "dedup",
            "render-group",
            "request",
            "prepare",
        } <= names
        # Client request lanes live above CLIENT_TID_BASE, batcher on 0.
        tids = {s[5] for s in tracer.spans() if s[0] == "request"}
        assert tids and all(t >= Tracer.CLIENT_TID_BASE for t in tids)
        batcher_tids = {
            s[5]
            for s in tracer.spans()
            if s[0] in ("batch-form", "dedup", "render-group")
        }
        assert batcher_tids == {0}
        # Every request got a queue-wait and a request span.
        n = trace.n_requests
        assert sum(1 for s in tracer.spans() if s[0] == "request") == n
        assert sum(1 for s in tracer.spans() if s[0] == "queue-wait") == n

    def test_serve_config_trace_auto_enables(self, serve_env):
        fmodel, trace = serve_env
        _, report = replay_trace(
            fmodel, trace, serve_config=ServeConfig(trace=True)
        )
        assert report.stage_breakdown["total"]["count"] == trace.n_requests

    def test_stage_breakdown_in_report_and_lines(self, serve_env):
        fmodel, trace = serve_env
        _, report = replay_trace(fmodel, trace)
        bd = report.stage_breakdown
        assert set(bd) == {"queue", "render", "total"}
        assert bd["queue"]["count"] == trace.n_requests
        assert bd["total"]["count"] == trace.n_requests
        assert 0 < bd["render"]["count"] <= trace.n_requests
        for stage in bd.values():
            assert stage["p50_ms"] <= stage["p90_ms"] <= stage["p99_ms"]
        text = "\n".join(report.lines())
        assert "stage queue" in text and "stage render" in text

    def test_registry_attached_replay_reports_metrics(self, serve_env):
        fmodel, trace = serve_env
        reg = MetricsRegistry()
        responses, report = replay_trace(fmodel, trace, registry=reg)
        assert report.metrics is not None
        hits = sum(1 for r in responses if r.cache_hit)
        assert report.metrics["frame_cache_hits"] == hits
        assert report.metrics["serve_requests_served"] == trace.n_requests
        assert (
            report.metrics["serve_stage_total_seconds"]["count"]
            == trace.n_requests
        )

    def test_untraced_replay_records_no_spans(self, serve_env):
        # Tracing off must leave the process-global seam untouched.
        fmodel, trace = serve_env
        replay_trace(fmodel, trace)
        assert active_tracer() is None


class TestClockSeam:
    def test_frozen_clock_serves_every_deadline(self, serve_env):
        # With a clock that never advances, zero time elapses between
        # submit and resolve: every deadline-carrying request is on time.
        fmodel, trace = serve_env
        frozen = lambda: 100.0  # noqa: E731
        _, report = replay_trace(
            fmodel,
            trace,
            serve_config=ServeConfig(refresh_hz=60.0, degrade_on_deadline=False),
            clock=frozen,
        )
        assert report.deadline_miss_rate == 0.0
        assert report.stage_breakdown["total"]["count"] == trace.n_requests
        assert report.stage_breakdown["total"]["p99_ms"] == 0.0

    def test_giant_step_clock_misses_every_deadline(self, serve_env):
        # Each clock() call advances 1000 s: every render lands aeons
        # past its 16 ms budget, deterministically.
        fmodel, trace = serve_env
        _, report = replay_trace(
            fmodel,
            trace,
            serve_config=ServeConfig(refresh_hz=60.0, degrade_on_deadline=False),
            clock=FakeClock(step=1000.0),
        )
        assert report.deadline_miss_rate == 1.0

    def test_fake_clock_threads_through_tracer(self, serve_env):
        fmodel, trace = serve_env
        tracer = Tracer(clock=FakeClock(step=0.5))
        replay_trace(fmodel, trace, tracer=tracer, clock=tracer.clock)
        spans = tracer.spans()
        assert spans
        # Every stamp came from the fake clock: multiples of 0.5 s.
        for (_, _, t0, t1, _, _, _) in spans:
            assert math.isclose(t0 % 0.5, 0.0, abs_tol=1e-9) or math.isclose(
                t0 % 0.5, 0.5, abs_tol=1e-9
            )
            assert t1 >= t0


def _start_methods():
    methods = multiprocessing.get_all_start_methods()
    return [m for m in ("fork", "spawn") if m in methods]


class TestWorkerSpanStitching:
    @pytest.mark.parametrize("mp_start", _start_methods())
    def test_worker_spans_stitch_across_the_pipe(self, serve_env, mp_start):
        fmodel, _ = serve_env
        _, cams = trace_cameras(
            "kitchen", n_train=4, n_eval=1, width=WIDTH, height=HEIGHT
        )
        tracer = Tracer()
        sink: dict = {}

        async def burst(pool):
            sink["results"] = await pool.render(
                cams[0], [(5.0, 5.0), None], tracer=tracer
            )

        with RenderWorkerPool(fmodel, workers=1, mp_start=mp_start) as pool:
            asyncio.run(burst(pool))

        assert len(sink["results"]) == 2
        spans = tracer.spans()
        parent_pid = os.getpid()
        worker_pids = {s[4] for s in spans} - {parent_pid}
        assert len(worker_pids) == 1  # one worker, its own process row
        worker_names = {s[0] for s in spans if s[4] != parent_pid}
        assert "render" in worker_names
        assert "prepare" in worker_names  # backend spans rode the seam too
        # The parent recorded its receive side in the same timeline.
        assert "materialize" in {s[0] for s in spans if s[4] == parent_pid}
        # Same clock domain: worker spans interleave sensibly (all spans
        # fall inside the parent's observed window, no translation).
        meta = [
            e
            for e in tracer.to_chrome_trace()["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert any(e["pid"] in worker_pids for e in meta)

    @pytest.mark.parametrize("mp_start", _start_methods())
    def test_untraced_pool_ships_no_spans(self, serve_env, mp_start):
        fmodel, _ = serve_env
        _, cams = trace_cameras(
            "kitchen", n_train=4, n_eval=1, width=WIDTH, height=HEIGHT
        )
        sink: dict = {}

        async def burst(pool):
            sink["results"] = await pool.render(cams[0], [None])

        with RenderWorkerPool(fmodel, workers=1, mp_start=mp_start) as pool:
            asyncio.run(burst(pool))
        assert len(sink["results"]) == 1


class TestCLI:
    def test_serve_sim_trace_flag_writes_chrome_json(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "trace.json"
        code = main(
            [
                "serve-sim", "bonsai", "--points", "150", "--width", "48",
                "--height", "36", "--clients", "2", "--frames", "4",
                "--poses", "3", "--workers", "0",
                "--trace", str(path),
            ]
        )
        assert code == 0
        assert "trace:" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert events
        for e in events:
            assert set(("name", "cat", "ph", "ts", "dur", "pid", "tid")) <= set(e)
        assert {"batch-form", "request"} <= {e["name"] for e in events}

    def test_metrics_command_prints_exposition(self, capsys):
        from repro.cli import main

        code = main(
            [
                "metrics", "bonsai", "--points", "150", "--width", "48",
                "--height", "36", "--clients", "2", "--frames", "4",
                "--poses", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE frame_cache_hits counter" in out
        assert "# TYPE serve_stage_total_seconds histogram" in out
        assert "serve_requests_served" in out
