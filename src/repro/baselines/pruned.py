"""Pruned PBNR baselines: LightGS, CompactGS, Mini-Splatting.

Each implements the pruning criterion of the corresponding paper — all of
them *point-count-oriented* (they score points by visual contribution but
ignore per-point compute cost), which is exactly the deficiency the
MetaSapiens CE metric addresses (Sec 3.1):

- **LightGS** (LightGaussian): global significance = accumulated hit count
  weighted by opacity and a volume term; prune the lowest-scoring points.
- **CompactGS**: a learned removal mask, in practice dominated by opacity —
  modelled as opacity-threshold pruning.
- **Mini-Splatting**: importance *sampling* — points are kept with
  probability proportional to their rendering contribution.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from ..splat.camera import Camera
from ..splat.gaussians import GaussianModel
from ..splat.renderer import RenderConfig, render
from .dense import BaselineModel


def _accumulate_stats(
    model: GaussianModel,
    cameras: Sequence[Camera],
    config: RenderConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(total tile usage, total dominated pixels) across poses."""
    config = dataclasses.replace(config or RenderConfig(), collect_stats=True)
    usage = np.zeros(model.num_points)
    dominated = np.zeros(model.num_points)
    for camera in cameras:
        stats = render(model, camera, config).stats
        usage += stats.tiles_per_point
        dominated += stats.dominated_pixels
    return usage, dominated


def lightgs_scores(
    model: GaussianModel,
    cameras: Sequence[Camera],
    config: RenderConfig | None = None,
    volume_power: float = 0.5,
) -> np.ndarray:
    """LightGaussian's global significance score per point."""
    usage, _ = _accumulate_stats(model, cameras, config)
    volume = np.prod(model.scales, axis=1)
    volume_norm = (volume / max(volume.max(), 1e-12)) ** volume_power
    return usage * model.opacities * volume_norm


def make_lightgs(
    dense: BaselineModel,
    cameras: Sequence[Camera],
    prune_fraction: float = 0.66,
    seed: int = 0,
) -> BaselineModel:
    """LightGS: prune the lowest-significance fraction of a 3DGS model."""
    scores = lightgs_scores(dense.model, cameras, dense.render_config)
    order = np.argsort(scores, kind="stable")
    n_remove = min(int(dense.model.num_points * prune_fraction), dense.model.num_points - 1)
    kept = np.sort(order[n_remove:])
    return BaselineModel(
        name="LightGS",
        model=dense.model.subset(kept),
        render_config=dense.render_config,
        dense=False,
        flicker_fraction=dense.flicker_fraction * 0.6,
    )


def make_compactgs(
    dense: BaselineModel,
    cameras: Sequence[Camera],
    prune_fraction: float = 0.6,
    seed: int = 0,
) -> BaselineModel:
    """CompactGS: learned-mask pruning, modelled as opacity-ordered removal."""
    opacities = dense.model.opacities
    order = np.argsort(opacities, kind="stable")
    n_remove = min(int(dense.model.num_points * prune_fraction), dense.model.num_points - 1)
    kept = np.sort(order[n_remove:])
    return BaselineModel(
        name="CompactGS",
        model=dense.model.subset(kept),
        render_config=dense.render_config,
        dense=False,
        flicker_fraction=dense.flicker_fraction * 0.7,
    )


def make_mini_splatting(
    dense: BaselineModel,
    cameras: Sequence[Camera],
    keep_fraction: float = 0.3,
    seed: int = 0,
) -> BaselineModel:
    """Mini-Splatting: importance sampling by rendering contribution."""
    rng = np.random.default_rng(seed)
    _, dominated = _accumulate_stats(dense.model, cameras, dense.render_config)
    importance = dominated + 1e-3  # every point keeps a small chance
    prob = importance / importance.sum()
    n_keep = max(1, int(dense.model.num_points * keep_fraction))
    kept = np.sort(
        rng.choice(dense.model.num_points, size=n_keep, replace=False, p=prob)
    )
    return BaselineModel(
        name="Mini-Splatting",
        model=dense.model.subset(kept),
        render_config=dense.render_config,
        dense=False,
        flicker_fraction=dense.flicker_fraction * 0.5,
    )
