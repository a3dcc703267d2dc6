"""The Gaussian point-cloud model at the heart of PBNR.

A :class:`GaussianModel` holds the trainable parameters of a splatting scene:

- ``positions``       ``(N, 3)`` world-space means,
- ``log_scales``      ``(N, 3)`` per-axis ellipsoid scales (stored in log
  space so optimization stays positive),
- ``rotations``       ``(N, 4)`` unit quaternions (w, x, y, z),
- ``opacity_logits``  ``(N,)`` opacities through a sigmoid,
- ``sh``              ``(N, K, 3)`` spherical-harmonics colour coefficients.

Parameter counts follow the 3DGS layout, so the storage model used for the
paper's Table 1 (bytes per point = 4 bytes × parameter count) matches the
sizes reported for real checkpoints to first order.
"""

from __future__ import annotations

import dataclasses
import io
from typing import Iterable

import numpy as np

from .cachekey import ContentMemo, frozen
from .sh import MAX_SH_DEGREE, num_sh_coeffs

BYTES_PER_FLOAT = 4


def normalize_quaternions(quats: np.ndarray) -> np.ndarray:
    """Return unit-norm copies of ``(N, 4)`` quaternions.

    Components are pre-scaled by their largest magnitude so that squaring
    cannot underflow to denormals (which would destroy the unit norm for
    very small quaternions).
    """
    quats = np.asarray(quats, dtype=np.float64)
    scale = np.max(np.abs(quats), axis=1, keepdims=True)
    scale = np.where(scale == 0.0, 1.0, scale)
    scaled = quats / scale
    norms = np.linalg.norm(scaled, axis=1, keepdims=True)
    norms = np.where(norms == 0.0, 1.0, norms)
    return scaled / norms


def quaternions_to_matrices(quats: np.ndarray) -> np.ndarray:
    """Convert ``(N, 4)`` unit quaternions (w, x, y, z) to rotation matrices."""
    q = normalize_quaternions(quats)
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    n = q.shape[0]
    rot = np.empty((n, 3, 3), dtype=np.float64)
    rot[:, 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    rot[:, 0, 1] = 2.0 * (x * y - w * z)
    rot[:, 0, 2] = 2.0 * (x * z + w * y)
    rot[:, 1, 0] = 2.0 * (x * y + w * z)
    rot[:, 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    rot[:, 1, 2] = 2.0 * (y * z - w * x)
    rot[:, 2, 0] = 2.0 * (x * z - w * y)
    rot[:, 2, 1] = 2.0 * (y * z + w * x)
    rot[:, 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return rot


def _covariances(rotations: np.ndarray, log_scales: np.ndarray) -> np.ndarray:
    rot = quaternions_to_matrices(rotations)
    scaled = rot * np.exp(log_scales)[:, None, :]  # R @ diag(S)
    return frozen(scaled @ scaled.transpose(0, 2, 1))


# Covariances depend on no pose: one build per (rotations, log_scales)
# version serves every frame of it.
_COVARIANCES = ContentMemo()


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def inverse_sigmoid(p: np.ndarray) -> np.ndarray:
    """Logit; clips input away from {0, 1} for stability."""
    p = np.clip(np.asarray(p, dtype=np.float64), 1e-7, 1.0 - 1e-7)
    return np.log(p / (1.0 - p))


@dataclasses.dataclass
class GaussianModel:
    """A splatting scene: a set of anisotropic 3D Gaussians with SH colour."""

    positions: np.ndarray
    log_scales: np.ndarray
    rotations: np.ndarray
    opacity_logits: np.ndarray
    sh: np.ndarray

    def __post_init__(self) -> None:
        self.positions = np.ascontiguousarray(self.positions, dtype=np.float64)
        self.log_scales = np.ascontiguousarray(self.log_scales, dtype=np.float64)
        self.rotations = np.ascontiguousarray(self.rotations, dtype=np.float64)
        self.opacity_logits = np.ascontiguousarray(self.opacity_logits, dtype=np.float64)
        self.sh = np.ascontiguousarray(self.sh, dtype=np.float64)
        n = self.positions.shape[0]
        if self.positions.shape != (n, 3):
            raise ValueError(f"positions must be (N, 3), got {self.positions.shape}")
        if self.log_scales.shape != (n, 3):
            raise ValueError(f"log_scales must be (N, 3), got {self.log_scales.shape}")
        if self.rotations.shape != (n, 4):
            raise ValueError(f"rotations must be (N, 4), got {self.rotations.shape}")
        if self.opacity_logits.shape != (n,):
            raise ValueError(f"opacity_logits must be (N,), got {self.opacity_logits.shape}")
        if self.sh.ndim != 3 or self.sh.shape[0] != n or self.sh.shape[2] != 3:
            raise ValueError(f"sh must be (N, K, 3), got {self.sh.shape}")
        k = self.sh.shape[1]
        degree = int(np.sqrt(k)) - 1
        if num_sh_coeffs(min(degree, MAX_SH_DEGREE)) != k:
            raise ValueError(f"sh coefficient count {k} is not (d+1)^2 for d<=3")

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_points(self) -> int:
        return self.positions.shape[0]

    @property
    def sh_degree(self) -> int:
        return int(np.sqrt(self.sh.shape[1])) - 1

    @property
    def scales(self) -> np.ndarray:
        """Per-axis ellipsoid scales, ``(N, 3)``, strictly positive."""
        return np.exp(self.log_scales)

    @property
    def opacities(self) -> np.ndarray:
        """Opacities in (0, 1), ``(N,)``."""
        return sigmoid(self.opacity_logits)

    @property
    def sh_dc(self) -> np.ndarray:
        """View into the DC SH coefficients, ``(N, 3)``."""
        return self.sh[:, 0, :]

    @property
    def max_scales(self) -> np.ndarray:
        """Maximum span of each ellipsoid in any direction (paper's S_i)."""
        return self.scales.max(axis=1)

    def params_per_point(self) -> int:
        """Trainable scalar parameters per point (3DGS layout)."""
        return 3 + 3 + 4 + 1 + self.sh.shape[1] * 3

    def storage_bytes(self) -> int:
        """Model size under a float32-per-parameter storage model."""
        return self.num_points * self.params_per_point() * BYTES_PER_FLOAT

    def covariances(self) -> np.ndarray:
        """World-space 3D covariances ``Σ = R S Sᵀ Rᵀ``, ``(N, 3, 3)``.

        Memoized on the exact bytes of ``rotations`` and ``log_scales``
        (rebuilt after any change to either) and returned read-only.
        """
        return _COVARIANCES.get((self.rotations, self.log_scales), _covariances)

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------
    def copy(self) -> "GaussianModel":
        return GaussianModel(
            positions=self.positions.copy(),
            log_scales=self.log_scales.copy(),
            rotations=self.rotations.copy(),
            opacity_logits=self.opacity_logits.copy(),
            sh=self.sh.copy(),
        )

    def subset(self, indices: np.ndarray) -> "GaussianModel":
        """New model containing only ``indices`` (bool mask or int index)."""
        indices = np.asarray(indices)
        return GaussianModel(
            positions=self.positions[indices],
            log_scales=self.log_scales[indices],
            rotations=self.rotations[indices],
            opacity_logits=self.opacity_logits[indices],
            sh=self.sh[indices],
        )

    @staticmethod
    def concatenate(models: Iterable["GaussianModel"]) -> "GaussianModel":
        models = list(models)
        if not models:
            raise ValueError("cannot concatenate zero models")
        degrees = {m.sh.shape[1] for m in models}
        if len(degrees) > 1:
            raise ValueError(
                f"cannot concatenate models with different SH degrees: "
                f"coefficient counts {sorted(degrees)}"
            )
        return GaussianModel(
            positions=np.concatenate([m.positions for m in models]),
            log_scales=np.concatenate([m.log_scales for m in models]),
            rotations=np.concatenate([m.rotations for m in models]),
            opacity_logits=np.concatenate([m.opacity_logits for m in models]),
            sh=np.concatenate([m.sh for m in models]),
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_npz_bytes(self) -> bytes:
        buf = io.BytesIO()
        np.savez(
            buf,
            positions=self.positions.astype(np.float32),
            log_scales=self.log_scales.astype(np.float32),
            rotations=self.rotations.astype(np.float32),
            opacity_logits=self.opacity_logits.astype(np.float32),
            sh=self.sh.astype(np.float32),
        )
        return buf.getvalue()

    @staticmethod
    def from_npz_bytes(data: bytes) -> "GaussianModel":
        with np.load(io.BytesIO(data)) as arrays:
            return GaussianModel(
                positions=arrays["positions"],
                log_scales=arrays["log_scales"],
                rotations=arrays["rotations"],
                opacity_logits=arrays["opacity_logits"],
                sh=arrays["sh"],
            )

    def save(self, path: str) -> None:
        with open(path, "wb") as f:
            f.write(self.to_npz_bytes())

    @staticmethod
    def load(path: str) -> "GaussianModel":
        with open(path, "rb") as f:
            return GaussianModel.from_npz_bytes(f.read())


def random_model(
    n_points: int,
    rng: np.random.Generator,
    extent: float = 5.0,
    sh_degree: int = 1,
    scale_range: tuple[float, float] = (0.02, 0.3),
    opacity_range: tuple[float, float] = (0.3, 0.95),
) -> GaussianModel:
    """Draw a random but well-formed model — the workhorse of the test suite."""
    k = num_sh_coeffs(sh_degree)
    positions = rng.uniform(-extent, extent, size=(n_points, 3))
    log_scales = np.log(rng.uniform(*scale_range, size=(n_points, 3)))
    rotations = normalize_quaternions(rng.normal(size=(n_points, 4)))
    opacity_logits = inverse_sigmoid(rng.uniform(*opacity_range, size=n_points))
    sh = rng.normal(scale=0.3, size=(n_points, k, 3))
    return GaussianModel(positions, log_scales, rotations, opacity_logits, sh)
