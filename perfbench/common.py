"""Pieces every workload shares: the model, set-up timing, result records."""

from __future__ import annotations

import dataclasses
import resource
import statistics
import time
from typing import Any, Callable

import numpy as np

from repro.baselines.dense import make_mini_splatting_d
from repro.foveation import render_foveated
from repro.foveation.hierarchy import FoveatedModel, uniform_foveated_model
from repro.harness import (
    EVAL_LEVEL_FRACTIONS,
    EVAL_REGION_LAYOUT,
    quick_l1_model,
    setup_trace,
)
from repro.scenes import trace_cameras
from repro.splat import Camera, RenderConfig, render

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3
# Reference-oracle tolerance of the packed engine.
REFERENCE_TOL = 1e-10


def build_model() -> FoveatedModel:
    """The one model every workload renders: a 2373-point kitchen L1 hierarchy."""
    setup = setup_trace("kitchen", n_points=3000)
    dense = make_mini_splatting_d(setup.scene)
    l1 = quick_l1_model(setup, dense, keep_fraction=0.4)
    return uniform_foveated_model(l1, EVAL_REGION_LAYOUT, EVAL_LEVEL_FRACTIONS)


def eval_poses(n: int, width: int, height: int) -> list[Camera]:
    """``n`` kitchen evaluation poses at ``width`` x ``height``."""
    return trace_cameras("kitchen", n_train=4, n_eval=n, width=width, height=height)[1]


def timed_setup(make: Callable[[], Any], teardown: Callable[[Any], None] | None = None):
    """Run ``make`` ``SETUP_REPEATS`` times; keep the last product.

    Returns ``(product, median seconds, samples)``.  Earlier products are
    torn down before the next repeat starts.
    """
    samples: list[float] = []
    product = None
    for _ in range(SETUP_REPEATS):
        if product is not None and teardown is not None:
            teardown(product)
        t0 = time.perf_counter()
        product = make()
        samples.append(time.perf_counter() - t0)
    return product, statistics.median(samples), samples


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def summary(values) -> tuple[float, float, float, int]:
    """``(median, q1, q3, n)`` of a sample (quartiles as ``statistics`` gives them)."""
    values = list(values)
    if not values:
        nan = float("nan")
        return nan, nan, nan, 0
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)


def reference_check(fmodel: FoveatedModel) -> list[str]:
    """Compare one full and one foveated 256x192 frame with the reference oracle."""
    camera = eval_poses(4, 256, 192)[0]
    reference = RenderConfig(backend="reference")
    gaze = (128.0, 96.0)
    failures = []
    pairs = (
        ("full", render(fmodel.base, camera).image, render(fmodel.base, camera, reference).image),
        (
            "foveated",
            render_foveated(fmodel, camera, gaze).image,
            render_foveated(fmodel, camera, gaze, reference).image,
        ),
    )
    for kind, image, oracle in pairs:
        err = float(np.abs(image - oracle).max())
        if not err <= REFERENCE_TOL:
            failures.append(f"{kind} frame differs from the reference backend by {err:.3g}")
    return failures


@dataclasses.dataclass
class Result:
    """What one workload run hands back to ``run.py``."""

    workload: str
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failures: list[str]
    report: list[str]
    record: dict

    @property
    def failed(self) -> int:
        return len(self.failures)


def metric_line(name: str, unit: str, values, scale: float = 1.0) -> str:
    """``name  median [q1, q3] unit (n=..)`` for the printed report."""
    med, q1, q3, n = summary([v * scale for v in values])
    return f"  {name:<24s} {med:12.4f} [{q1:.4f}, {q3:.4f}] {unit}  (n={n})"
