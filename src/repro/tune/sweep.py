"""Seeded micro-benchmark sweeps: measure each knob's knee on *this* host.

MILC-style per-machine tuning (PAPERS.md, hep-lat/0112038): short,
deterministic workloads sweep one knob at a time, a knee fit
(:mod:`repro.tune.fit`) picks the leanest setting within tolerance of peak
throughput, and :func:`autotune` persists the selections as the host's
:class:`~repro.tune.profile.HostProfile` — which the render and serve
paths then consult at startup (env vars and explicit args still win).

Swept knobs and their representative workloads:

- ``span_budget`` — multi-view ``render_batch`` over a synthetic trace
  (the PR 2 chunking workload), budget forced per candidate through
  ``REPRO_BATCH_SPAN_BUDGET``.
- ``batch_size`` — ``render_batch``'s views-per-scan cap (informational:
  it is an explicit API argument, so the selection lands in the profile's
  ``meta``, not in a resolved knob).
- ``batch_budget`` / ``batch_deadline_s`` — cache-disabled serve replay of
  a seeded Zipf multi-client trace (batching is the only lever, so the
  knee is the batching knee, not the cache's).
- ``cache_max_bytes`` — the same replay with the cache enabled, byte
  budget per candidate.
- ``shm_bytes`` — the transport sweep: a cache-disabled *worker-pool*
  replay at frames large enough that moving them dominates (candidate
  ``0`` is the pickle path, so "pickle wins on this host" persists as a
  tuned ``shm_bytes = 0``).

Every sweep is seeded and sized for seconds, not minutes (``quick=True``
shrinks further for CI); measurements use best-of-``reps`` wall clock,
the same discipline as ``benchmarks/``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import datetime
import os
import time
from typing import Callable, Sequence

from .fit import DEFAULT_TOLERANCE, KneeFit, fit_knee
from .model import SpanCostModel, span_cost_model
from .profile import HostProfile, host_fingerprint, save_host_profile

__all__ = [
    "SweepResult",
    "TuneReport",
    "autotune",
    "sweep_batch_budget",
    "sweep_batch_deadline",
    "sweep_batch_size",
    "sweep_cache_bytes",
    "sweep_shm_bytes",
    "sweep_span_budget",
]


@contextlib.contextmanager
def _env(name: str, value: object):
    """Temporarily pin an env knob (the sweep's per-candidate override)."""
    old = os.environ.get(name)
    os.environ[name] = str(value)
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = old


def _best_of(fn: Callable[[], object], reps: int) -> float:
    """Best wall-clock seconds of ``reps`` runs (the bench idiom: the
    minimum estimates the noise floor, not the scheduler)."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@dataclasses.dataclass(frozen=True)
class SweepResult:
    """One knob's sweep: samples, knee fit, optional model prediction."""

    knob: str
    unit: str
    settings: tuple[float, ...]
    metrics: tuple[float, ...]  # throughput in ``unit``/s terms, higher = better
    fit: KneeFit
    predicted: int | None = None  # cost-model prediction, where one exists

    @property
    def selected(self) -> float:
        return self.fit.selected

    @property
    def prediction_gap(self) -> float | None:
        """``predicted / measured`` knee ratio (1.0 = perfect prediction)."""
        if self.predicted is None or not self.fit.selected:
            return None
        return self.predicted / self.fit.selected

    def lines(self) -> list[str]:
        fmt = "{:>12} {:>12.2f} {}"
        out = [f"{self.knob} ({self.unit}; knee tolerance {self.fit.tolerance:.0%}):"]
        for setting, metric in zip(self.settings, self.metrics):
            marks = []
            if setting == self.fit.selected:
                marks.append("<- selected")
            if setting == self.fit.best:
                marks.append("(peak)")
            out.append(fmt.format(_fmt_setting(setting), metric, " ".join(marks)))
        if self.predicted is not None:
            gap = self.prediction_gap
            out.append(
                f"{'model':>12} predicts {self.predicted} "
                f"({gap:.2f}x the measured knee)"
            )
        return out


def _fmt_setting(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:g}"


def _run_sweep(
    knob: str,
    unit: str,
    candidates: Sequence[float],
    measure: Callable[[float], float],
    tolerance: float,
    predicted: int | None = None,
) -> SweepResult:
    """Measure throughput per candidate (after one warmup at the first
    candidate, so arena/cache warmup is not charged to it) and fit the knee."""
    measure(candidates[0])
    metrics = [measure(c) for c in candidates]
    return SweepResult(
        knob=knob,
        unit=unit,
        settings=tuple(float(c) for c in candidates),
        metrics=tuple(metrics),
        fit=fit_knee(candidates, metrics, tolerance),
        predicted=predicted,
    )


# ----------------------------------------------------------------------
# Render-side sweeps
# ----------------------------------------------------------------------


def _render_workload(n_points: int, size: int, n_views: int, seed: int):
    """A deterministic multi-view workload with realistic splat footprints."""
    import numpy as np

    from ..scenes import generate_scene, trace_cameras
    from ..splat import ViewCache, render_batch

    scene = generate_scene("kitchen", n_points=n_points, seed=seed)
    # The synthetic generator sizes splats for tiny eval frames; rescale to
    # the few-pixel screen footprints real captures exhibit at this size.
    scene.log_scales += np.log(0.15 * size / 256.0)
    train, evals = trace_cameras(
        "kitchen", n_train=n_views, n_eval=n_views, width=size,
        height=int(size * 0.75), seed=seed,
    )
    cameras = (train + evals)[:n_views]
    cache = ViewCache()
    render_batch(scene, cameras, cache=cache)  # warm the prepared views
    return scene, cameras, cache


def sweep_span_budget(
    quick: bool = False,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    candidates: Sequence[int] | None = None,
) -> SweepResult:
    """Sweep ``REPRO_BATCH_SPAN_BUDGET`` over a multi-view batched render."""
    from ..splat import render_batch
    from ..splat.backends.packed import SPAN_BUDGET_ENV

    if candidates is None:
        candidates = (
            [2048, 8192, 32768]
            if quick
            else [1024, 2048, 4096, 8192, 16384, 32768, 65536]
        )
    n_views = 6 if quick else 8
    scene, cameras, cache = _render_workload(
        n_points=400 if quick else 1000,
        size=160 if quick else 256,
        n_views=n_views,
        seed=seed,
    )
    reps = 2 if quick else 3

    def measure(budget: float) -> float:
        with _env(SPAN_BUDGET_ENV, int(budget)):
            secs = _best_of(
                lambda: render_batch(scene, cameras, cache=cache), reps
            )
        return n_views / secs

    model = span_cost_model()
    return _run_sweep(
        "span_budget", "views/s", candidates, measure, tolerance,
        predicted=model.predicted_span_budget if model else None,
    )


def sweep_batch_size(
    quick: bool = False,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    candidates: Sequence[int] | None = None,
) -> SweepResult:
    """Sweep ``render_batch``'s views-per-scan cap (informational knob)."""
    from ..splat import render_batch

    if candidates is None:
        candidates = [1, 4, 8] if quick else [1, 2, 4, 8, 16]
    n_views = 8 if quick else 16
    scene, cameras, cache = _render_workload(
        n_points=400 if quick else 800,
        size=128 if quick else 192,
        n_views=n_views,
        seed=seed,
    )
    reps = 2 if quick else 3

    def measure(batch_size: float) -> float:
        secs = _best_of(
            lambda: render_batch(
                scene, cameras, batch_size=int(batch_size), cache=cache
            ),
            reps,
        )
        return n_views / secs

    return _run_sweep("batch_size", "views/s", candidates, measure, tolerance)


# ----------------------------------------------------------------------
# Serve-side sweeps
# ----------------------------------------------------------------------


def _serve_workload(quick: bool, seed: int):
    """A small foveated model plus a seeded Zipf multi-client trace."""
    from ..baselines import make_mini_splatting_d
    from ..foveation import uniform_foveated_model
    from ..harness import (
        EVAL_LEVEL_FRACTIONS,
        EVAL_REGION_LAYOUT,
        quick_l1_model,
        setup_trace,
    )
    from ..scenes import trace_cameras
    from ..serve import WorkloadSpec, generate_serve_trace

    setup = setup_trace(
        "kitchen", n_points=400 if quick else 800, width=96, height=72,
        n_train=4, n_eval=2, seed=seed,
    )
    dense = make_mini_splatting_d(setup.scene, seed=seed)
    l1 = quick_l1_model(setup, dense, keep_fraction=0.4)
    fmodel = uniform_foveated_model(l1, EVAL_REGION_LAYOUT, EVAL_LEVEL_FRACTIONS)
    _, poses = trace_cameras(
        "kitchen", n_train=4, n_eval=4 if quick else 6, width=96, height=72,
        seed=seed,
    )
    spec = WorkloadSpec(
        n_clients=3 if quick else 4,
        frames_per_client=8 if quick else 16,
        zipf_s=1.1,
        seed=seed,
    )
    return fmodel, generate_serve_trace(poses, spec)


def _replay_throughput(fmodel, trace, serve_config) -> float:
    from ..serve import replay_trace

    _, report = replay_trace(fmodel, trace, serve_config=serve_config)
    return trace.n_requests / report.wall_s if report.wall_s > 0 else float("inf")


def sweep_batch_budget(
    quick: bool = False,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    candidates: Sequence[int] | None = None,
    workload=None,
) -> SweepResult:
    """Sweep ``ServeConfig.batch_budget`` on a cache-disabled serve replay."""
    from ..serve import ServeConfig

    if candidates is None:
        candidates = [1, 4, 16] if quick else [1, 2, 4, 8, 16, 32]
    fmodel, trace = workload or _serve_workload(quick, seed)

    def measure(budget: float) -> float:
        return _replay_throughput(
            fmodel, trace,
            ServeConfig(batch_budget=int(budget), cache_max_bytes=None),
        )

    return _run_sweep(
        "batch_budget", "requests/s", candidates, measure, tolerance
    )


def sweep_batch_deadline(
    quick: bool = False,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    candidates: Sequence[float] | None = None,
    workload=None,
) -> SweepResult:
    """Sweep the batcher's fill deadline on a cache-disabled serve replay.

    On a drain-as-fast-as-possible replay, waiting can only trade latency
    for batch size; the knee fit keeps the smallest deadline on the
    throughput plateau (usually 0 — the deterministic-replay setting).
    """
    from ..serve import ServeConfig

    if candidates is None:
        candidates = [0.0, 0.0005, 0.002] if quick else [0.0, 0.0005, 0.002, 0.008]
    fmodel, trace = workload or _serve_workload(quick, seed)

    def measure(deadline: float) -> float:
        return _replay_throughput(
            fmodel, trace,
            ServeConfig(batch_deadline_s=float(deadline), cache_max_bytes=None),
        )

    return _run_sweep(
        "batch_deadline_s", "requests/s", candidates, measure, tolerance
    )


def sweep_cache_bytes(
    quick: bool = False,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    candidates: Sequence[int] | None = None,
    workload=None,
) -> SweepResult:
    """Sweep the frame cache's byte budget on the Zipf serve replay.

    The knee is where the hot set fits: bigger budgets stop adding hits,
    and the fit keeps the smallest budget on the plateau — bytes a
    multi-tenant host can hand to another tenant.
    """
    from ..serve import ServeConfig

    if candidates is None:
        mb = 1 << 20
        candidates = (
            [mb // 4, mb, 16 * mb] if quick else [mb // 4, mb, 4 * mb, 16 * mb, 64 * mb]
        )
    fmodel, trace = workload or _serve_workload(quick, seed)

    def measure(max_bytes: float) -> float:
        return _replay_throughput(
            fmodel, trace, ServeConfig(cache_max_bytes=int(max_bytes))
        )

    return _run_sweep(
        "cache_max_bytes", "requests/s", candidates, measure, tolerance
    )


def _transport_workload(quick: bool, seed: int):
    """A *large-frame* serve workload where frame transport is the lever.

    Unlike :func:`_serve_workload` (sized so batching/caching dominate),
    this one renders few splats at a big viewport: per-frame compute stays
    small while each result carries megabytes of planes — the regime the
    ``shm_bytes`` knob exists for.
    """
    import numpy as np

    from ..foveation import uniform_foveated_model
    from ..harness import EVAL_LEVEL_FRACTIONS, EVAL_REGION_LAYOUT
    from ..scenes import trace_cameras
    from ..serve import WorkloadSpec, generate_serve_trace
    from ..splat import random_model

    size = 256 if quick else 512
    fmodel = uniform_foveated_model(
        random_model(64, np.random.default_rng(seed)),
        EVAL_REGION_LAYOUT,
        EVAL_LEVEL_FRACTIONS,
    )
    _, poses = trace_cameras(
        "kitchen", n_train=2, n_eval=2, width=size,
        height=int(size * 0.75), seed=seed,
    )
    spec = WorkloadSpec(
        n_clients=2 if quick else 3,
        frames_per_client=4 if quick else 8,
        zipf_s=1.1,
        seed=seed,
    )
    return fmodel, generate_serve_trace(poses, spec)


def sweep_shm_bytes(
    quick: bool = False,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    candidates: Sequence[int] | None = None,
    workload=None,
) -> SweepResult:
    """Sweep the worker-pool transport arena on a large-frame replay.

    Candidate ``0`` disables the arena (every frame pickles through the
    executor pipe); the knee fit keeps the smallest arena on the
    throughput plateau, so a host where pickle is within tolerance of the
    arena peak tunes to ``shm_bytes = 0`` and skips the segment entirely.
    """
    from ..serve import ServeConfig

    if candidates is None:
        mb = 1 << 20
        candidates = (
            [0, 64 * mb] if quick else [0, 32 * mb, 128 * mb, 256 * mb]
        )
    fmodel, trace = workload or _transport_workload(quick, seed)

    def measure(shm_bytes: float) -> float:
        return _replay_throughput(
            fmodel, trace,
            ServeConfig(
                workers=1, cache_max_bytes=None, shm_bytes=int(shm_bytes)
            ),
        )

    return _run_sweep("shm_bytes", "requests/s", candidates, measure, tolerance)


# ----------------------------------------------------------------------
# The orchestrator
# ----------------------------------------------------------------------


@dataclasses.dataclass
class TuneReport:
    """Everything one ``autotune`` run measured, plus the profile it built."""

    results: dict[str, SweepResult]
    profile: HostProfile
    path: str | None = None  # where the profile was saved (None = not saved)
    cost_model: SpanCostModel | None = None

    def lines(self) -> list[str]:
        out = [f"host: {self.profile.host}"]
        if self.cost_model is not None:
            out.append(
                f"cost model: LLC {self.cost_model.llc_bytes >> 20} MiB, "
                f"{self.cost_model.bytes_per_span} B/span -> "
                f"predicted span knee {self.cost_model.predicted_span_budget}"
            )
        else:
            out.append("cost model: cache geometry not detectable on this host")
        for result in self.results.values():
            out.extend(result.lines())
        knobs = self.profile.knobs()
        out.append(
            "selected: "
            + ", ".join(f"{k}={_fmt_setting(v)}" for k, v in sorted(knobs.items()))
        )
        if self.path is not None:
            out.append(f"profile: {self.path}")
        return out


def autotune(
    quick: bool = False,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    save: bool = True,
    path: str | None = None,
    include_serve: bool = True,
) -> TuneReport:
    """Run every sweep, fit the knees, and persist the host profile.

    ``quick=True`` is the CI-sized run (seconds); ``include_serve=False``
    restricts to the render-side knobs (span budget, batch size).  ``save=False`` measures and reports without touching disk.
    """
    results: dict[str, SweepResult] = {}
    results["span_budget"] = sweep_span_budget(quick, seed, tolerance)
    results["batch_size"] = sweep_batch_size(quick, seed, tolerance)
    if include_serve:
        workload = _serve_workload(quick, seed)
        results["batch_budget"] = sweep_batch_budget(
            quick, seed, tolerance, workload=workload
        )
        results["batch_deadline_s"] = sweep_batch_deadline(
            quick, seed, tolerance, workload=workload
        )
        results["cache_max_bytes"] = sweep_cache_bytes(
            quick, seed, tolerance, workload=workload
        )
        results["shm_bytes"] = sweep_shm_bytes(quick, seed, tolerance)

    def selected(knob: str) -> float | None:
        return results[knob].fit.selected if knob in results else None

    meta = {
        "quick": quick,
        "seed": seed,
        "tolerance": tolerance,
        "batch_size": selected("batch_size"),
        "sweeps": {
            name: {
                "settings": list(r.settings),
                "metrics": [round(m, 3) for m in r.metrics],
                "predicted": r.predicted,
            }
            for name, r in results.items()
        },
    }
    profile = HostProfile(
        span_budget=int(selected("span_budget")),
        batch_budget=(
            int(selected("batch_budget")) if "batch_budget" in results else None
        ),
        batch_deadline_s=selected("batch_deadline_s"),
        cache_max_bytes=(
            int(selected("cache_max_bytes"))
            if "cache_max_bytes" in results
            else None
        ),
        shm_bytes=(
            int(selected("shm_bytes")) if "shm_bytes" in results else None
        ),
        host=host_fingerprint(),
        created=datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        source=f"repro.cli tune{' --quick' if quick else ''} (seed {seed})",
        meta=meta,
    )
    saved_path = save_host_profile(profile, path) if save else None
    return TuneReport(
        results=results,
        profile=profile,
        path=saved_path,
        cost_model=span_cost_model(),
    )
