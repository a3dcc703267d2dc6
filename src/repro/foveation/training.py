"""HVS-guided training of the foveated hierarchy (Sec 4.3).

Levels are built top-down: the L1 model (itself produced by efficiency-aware
pruning, Sec 3) is CE-pruned to give L2's subset, L2 to L3, and so on.  After
each subsetting step, the new level's **multi-versioned parameters only**
(opacity + SH DC) are fine-tuned against the reference, with the photometric
gradient restricted to the level's eccentricity region; scale decay is *not*
applied (scales are shared, not multi-versioned).  Quality is controlled with
the region-restricted HVSQ metric: the goal is HVSQ(level k, region k) ≈
HVSQ(L1, region 1), i.e. uniform perceived quality across the visual field.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from ..core.ce import compute_ce
from ..hvs.hvsq import hvsq
from ..splat.camera import Camera
from ..splat.gaussians import GaussianModel, sigmoid
from ..splat.rasterizer import rasterize, rasterize_backward
from ..splat.renderer import RenderConfig, prepare_view
from ..splat.sh import SH_C0
from ..train.optimizer import Adam
from .hierarchy import FoveatedModel
from .regions import RegionLayout, region_masks


@dataclasses.dataclass
class FRTrainConfig:
    """Hyper-parameters of foveated level construction."""

    level_fractions: tuple[float, ...] = (1.0, 0.55, 0.3, 0.17)
    finetune_iterations: int = 10
    lr_opacity: float = 0.05
    lr_sh_dc: float = 0.01
    render: RenderConfig = dataclasses.field(default_factory=RenderConfig)


@dataclasses.dataclass
class FRTrainResult:
    """The trained foveated model plus per-level quality bookkeeping."""

    model: FoveatedModel
    hvsq_per_level: list[float]  # HVSQ of level k measured on region k
    level_counts: np.ndarray


def _level_region_grad_mask(
    camera: Camera,
    layout: RegionLayout,
    level: int,
    gaze: tuple[float, float] | None,
) -> np.ndarray:
    """Pixel mask where level ``level``'s quality loss is evaluated."""
    masks = region_masks(camera, layout, gaze)
    return masks[level - 1]


def finetune_level(
    fmodel: FoveatedModel,
    level: int,
    cameras: Sequence[Camera],
    targets: Sequence[np.ndarray],
    config: FRTrainConfig,
    gaze: tuple[float, float] | None = None,
) -> None:
    """Fine-tune one level's multi-versioned opacity + DC in place.

    Renders the level's subset model, restricts the photometric gradient to
    the level's eccentricity region, and backpropagates through the
    rasterizer into the level's parameter versions only.
    """
    mask = fmodel.level_mask(level)
    sub_idx = np.flatnonzero(mask)
    if sub_idx.size == 0:
        raise ValueError(f"level {level} has no points")

    # Working copies of this level's versions, restricted to the subset.
    opacity_logits = fmodel.mv_opacity_logits[sub_idx, level - 1].copy()
    sh_dc = fmodel.mv_sh_dc[sub_idx, level - 1, :].copy()
    base_subset = fmodel.base.subset(sub_idx)

    optimizer = Adam({"opacity_logits": config.lr_opacity, "sh_dc": config.lr_sh_dc})
    background = np.asarray(config.render.background, dtype=np.float64)

    for _ in range(config.finetune_iterations):
        grad_op = np.zeros_like(opacity_logits)
        grad_dc = np.zeros_like(sh_dc)
        for camera, target in zip(cameras, targets):
            model = base_subset.copy()
            model.opacity_logits[:] = opacity_logits
            model.sh[:, 0, :] = sh_dc
            projected, assignment = prepare_view(model, camera, config.render)
            image, _ = rasterize(
                projected,
                assignment,
                num_points=model.num_points,
                background=background,
                backend=config.render.backend,
            )
            region = _level_region_grad_mask(camera, fmodel.layout, level, gaze)
            diff = image - target
            grad_image = np.where(region[:, :, None], np.sign(diff), 0.0) / max(
                region.sum() * 3, 1
            )
            grads = rasterize_backward(
                projected,
                assignment,
                num_points=model.num_points,
                grad_image=grad_image,
                background=background,
                backend=config.render.backend,
            )
            opac = model.opacities
            grad_op += grads.opacity * opac * (1.0 - opac) / len(cameras)
            grad_dc += grads.color * SH_C0 / len(cameras)

        params = {"opacity_logits": opacity_logits, "sh_dc": sh_dc}
        optimizer.step(params, {"opacity_logits": grad_op, "sh_dc": grad_dc})

    fmodel.mv_opacity_logits[sub_idx, level - 1] = opacity_logits
    fmodel.mv_sh_dc[sub_idx, level - 1, :] = sh_dc


def measure_level_hvsq(
    fmodel: FoveatedModel,
    level: int,
    cameras: Sequence[Camera],
    targets: Sequence[np.ndarray],
    config: RenderConfig | None = None,
    gaze: tuple[float, float] | None = None,
) -> float:
    """Mean HVSQ of level ``level``'s rendering over its own region."""
    from ..splat.renderer import render

    model = fmodel.level_model(level)
    values = []
    for camera, target in zip(cameras, targets):
        image = render(model, camera, config).image
        masks = region_masks(camera, fmodel.layout, gaze)
        result = hvsq(target, image, camera, gaze=gaze, region_mask=masks[level - 1])
        values.append(result.value)
    return float(np.mean(values))


def build_foveated_model(
    l1_model: GaussianModel,
    cameras: Sequence[Camera],
    targets: Sequence[np.ndarray],
    layout: RegionLayout | None = None,
    config: FRTrainConfig | None = None,
    gaze: tuple[float, float] | None = None,
    finetune: bool = True,
) -> FRTrainResult:
    """Construct and train a full foveated hierarchy from an L1 model.

    Subsets are built level by level with CE pruning (each level's CE is
    measured on its parent level's model, so scale/occlusion changes
    propagate), then each level's multi-versioned parameters are fine-tuned
    on its own region.
    """
    layout = layout or RegionLayout()
    config = config or FRTrainConfig()
    fractions = config.level_fractions
    if len(fractions) != layout.num_levels:
        raise ValueError(
            f"need {layout.num_levels} level fractions, got {len(fractions)}"
        )

    n = l1_model.num_points
    bounds = np.ones(n, dtype=np.int64)
    current_idx = np.arange(n)  # indices (into l1) of the current level's subset
    current_model = l1_model

    for level in range(2, layout.num_levels + 1):
        budget = max(1, int(round(n * fractions[level - 1])))
        ce = compute_ce(current_model, cameras, config.render)
        order = np.argsort(-ce.ce, kind="stable")  # best first
        keep_local = np.sort(order[:budget])
        current_idx = current_idx[keep_local]
        bounds[current_idx] = level
        current_model = l1_model.subset(current_idx)

    mv_opacity = np.repeat(l1_model.opacity_logits[:, None], layout.num_levels, axis=1)
    mv_dc = np.repeat(l1_model.sh_dc[:, None, :], layout.num_levels, axis=1)
    fmodel = FoveatedModel(
        base=l1_model.copy(),
        quality_bounds=bounds,
        mv_opacity_logits=mv_opacity,
        mv_sh_dc=mv_dc,
        layout=layout,
    )

    hvsq_per_level = []
    for level in range(1, layout.num_levels + 1):
        if finetune and level >= 2:
            finetune_level(fmodel, level, cameras, targets, config, gaze)
        hvsq_per_level.append(
            measure_level_hvsq(fmodel, level, cameras, targets, config.render, gaze)
        )

    return FRTrainResult(
        model=fmodel,
        hvsq_per_level=hvsq_per_level,
        level_counts=fmodel.level_counts(),
    )
