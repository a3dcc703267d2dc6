"""Fine-tuning loop used after each pruning round (Fig 6's "re-training").

Trains exactly the parameters the paper's procedure touches:

- opacity logits,
- the SH DC colour component,
- per-point isotropic log-scale (the scale-decay knob).

Gradients of the photometric loss come from the rasterizer's analytic
backward pass; an optional regularizer callback injects extra loss terms
(scale decay's γ·WS from :mod:`repro.core.scale_decay`) without this module
depending on :mod:`repro.core`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

import numpy as np

from ..splat.camera import Camera
from ..splat.gaussians import GaussianModel
from ..splat.rasterizer import rasterize, rasterize_backward
from ..splat.renderer import RenderConfig, prepare_view
from ..splat.sh import SH_C0
from .losses import image_loss
from .optimizer import Adam

# A regularizer maps the model to (loss, gradient dict); gradient keys must
# be parameter names understood by the trainer.
Regularizer = Callable[[GaussianModel], tuple[float, dict[str, np.ndarray]]]


@dataclasses.dataclass
class TrainConfig:
    """Hyper-parameters of the fine-tuning loop."""

    iterations: int = 20
    lr_opacity: float = 0.05
    lr_sh_dc: float = 0.01
    lr_log_scale: float = 0.005
    l1_weight: float = 0.8
    render: RenderConfig = dataclasses.field(default_factory=RenderConfig)


@dataclasses.dataclass
class TrainResult:
    """Loss history of a fine-tuning run."""

    photometric: list[float]
    regularizer: list[float]

    @property
    def total(self) -> list[float]:
        return [p + r for p, r in zip(self.photometric, self.regularizer)]


def _model_step_grads(
    model: GaussianModel,
    camera: Camera,
    target: np.ndarray,
    config: TrainConfig,
) -> tuple[float, dict[str, np.ndarray]]:
    """One view's photometric loss and parameter gradients."""
    projected, assignment = prepare_view(model, camera, config.render)
    image, _ = rasterize(
        projected,
        assignment,
        num_points=model.num_points,
        background=np.asarray(config.render.background),
        backend=config.render.backend,
    )
    loss, grad_image = image_loss(image, target, l1_weight=config.l1_weight)
    raster_grads = rasterize_backward(
        projected,
        assignment,
        num_points=model.num_points,
        grad_image=grad_image,
        background=np.asarray(config.render.background),
        backend=config.render.backend,
    )

    opacities = model.opacities
    grads = {
        # Chain rule: colour → DC coefficient (d rgb / d dc = SH_C0),
        # opacity → logit (d o / d logit = o (1 − o)).
        "sh_dc": raster_grads.color * SH_C0,
        "opacity_logits": raster_grads.opacity * opacities * (1.0 - opacities),
        "log_scales": raster_grads.log_scale,
    }
    return loss, grads


def finetune(
    model: GaussianModel,
    cameras: Sequence[Camera],
    targets: Sequence[np.ndarray],
    config: TrainConfig | None = None,
    regularizer: Regularizer | None = None,
) -> TrainResult:
    """Fine-tune ``model`` in place against per-view target images.

    Each iteration accumulates gradients over all views (full-batch — view
    counts here are small), adds the regularizer's gradient, and applies one
    Adam step.
    """
    if len(cameras) != len(targets):
        raise ValueError("need one target image per camera")
    if not cameras:
        raise ValueError("need at least one training view")
    config = config or TrainConfig()

    optimizer = Adam(
        {
            "sh_dc": config.lr_sh_dc,
            "opacity_logits": config.lr_opacity,
            "log_scales": config.lr_log_scale,
        }
    )

    photometric_history: list[float] = []
    regularizer_history: list[float] = []

    for _ in range(config.iterations):
        total_photo = 0.0
        acc = {
            "sh_dc": np.zeros((model.num_points, 3)),
            "opacity_logits": np.zeros(model.num_points),
            "log_scales": np.zeros(model.num_points),
        }
        for camera, target in zip(cameras, targets):
            loss, grads = _model_step_grads(model, camera, target, config)
            total_photo += loss / len(cameras)
            for name in acc:
                acc[name] += grads[name] / len(cameras)

        reg_loss = 0.0
        if regularizer is not None:
            reg_loss, reg_grads = regularizer(model)
            for name, grad in reg_grads.items():
                if name not in acc:
                    raise KeyError(f"regularizer produced unknown parameter {name!r}")
                acc[name] = acc[name] + grad

        params = {
            "sh_dc": model.sh[:, 0, :],
            "opacity_logits": model.opacity_logits,
            # Isotropic scale update: broadcast the scalar per-point gradient
            # to all three axes of log_scales.
            "log_scales": model.log_scales,
        }
        optimizer.step(
            params,
            {
                "sh_dc": acc["sh_dc"],
                "opacity_logits": acc["opacity_logits"],
                "log_scales": np.repeat(acc["log_scales"][:, None], 3, axis=1),
            },
        )

        photometric_history.append(total_photo)
        regularizer_history.append(reg_loss)

    return TrainResult(photometric=photometric_history, regularizer=regularizer_history)
