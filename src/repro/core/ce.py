"""Computational Efficiency (CE) metric — Sec 3.2, Eqn 3.

    CE_i = Val_i / Comp_i

- ``Val_i``: the number of pixels *dominated* by point ``i`` — pixels where
  ``i`` has the highest numerical contribution ``T_i α_i`` during
  rasterization.
- ``Comp_i``: the number of tiles that intersect and use point ``i`` (the
  quantity that actually drives rendering latency, per Sec 3.1).

A point's CE is frame-specific; following the paper we aggregate with the
**maximum** over the training poses (the average is susceptible to dataset
bias, and a point outside every frustum gets CE = 0 and is pruned first).
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from ..splat.camera import Camera
from ..splat.gaussians import GaussianModel
from ..splat.renderer import RenderConfig, ViewCache, render_batch


@dataclasses.dataclass
class CEResult:
    """Per-point CE plus the raw Val/Comp aggregates it was built from."""

    ce: np.ndarray  # (N,) max over poses of Val/Comp
    max_val: np.ndarray  # (N,) max dominated pixels over poses
    max_comp: np.ndarray  # (N,) max tile usage over poses
    total_intersections: float  # mean per-frame tile-ellipse intersections


def frame_ce(
    dominated_pixels: np.ndarray,
    tiles_per_point: np.ndarray,
) -> np.ndarray:
    """Single-frame CE: Val/Comp with unused points pinned to zero."""
    comp = np.asarray(tiles_per_point, dtype=np.float64)
    val = np.asarray(dominated_pixels, dtype=np.float64)
    return np.where(comp > 0, val / np.maximum(comp, 1.0), 0.0)


def compute_ce(
    model: GaussianModel,
    cameras: Sequence[Camera],
    config: RenderConfig | None = None,
    aggregate: str = "max",
    batch_size: int | None = None,
    cache: ViewCache | None = None,
) -> CEResult:
    """Compute CE for every point across the given training poses.

    ``aggregate`` is "max" (paper default) or "mean" (for the ablation that
    motivates the max choice).  Poses render through the batched
    rasterization path in chunks of ``batch_size`` (default 16), with each
    chunk's frames released before the next renders, so peak memory stays
    bounded on large pose sets; a :class:`repro.splat.ViewCache` shares view
    preparation with other consumers of the same (model, pose) pairs.  The
    renders ask for Val_i (``collect_stats=True``) whatever ``config`` says.
    """
    if not cameras:
        raise ValueError("need at least one camera")
    if aggregate not in ("max", "mean"):
        raise ValueError(f"aggregate must be 'max' or 'mean', got {aggregate!r}")
    if batch_size is not None and batch_size <= 0:
        raise ValueError("batch_size must be positive")

    config = dataclasses.replace(config or RenderConfig(), collect_stats=True)
    n = model.num_points
    agg_ce = np.zeros(n)
    max_val = np.zeros(n)
    max_comp = np.zeros(n)
    intersections = 0.0

    cameras = list(cameras)
    step = batch_size or 16
    for i in range(0, len(cameras), step):
        chunk = render_batch(model, cameras[i : i + step], config, cache=cache)
        for result in chunk:
            stats = result.stats
            ce = frame_ce(stats.dominated_pixels, stats.tiles_per_point)
            if aggregate == "max":
                agg_ce = np.maximum(agg_ce, ce)
            else:
                agg_ce += ce / len(cameras)
            max_val = np.maximum(max_val, stats.dominated_pixels)
            max_comp = np.maximum(max_comp, stats.tiles_per_point)
            intersections += stats.total_intersections / len(cameras)

    return CEResult(
        ce=agg_ce,
        max_val=max_val,
        max_comp=max_comp,
        total_intersections=intersections,
    )
