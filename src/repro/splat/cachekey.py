"""Content-fingerprint cache keys shared by every render cache.

:class:`~repro.splat.renderer.ViewCache` (the view-preparation cache) and
:class:`repro.serve.FrameCache` (the serve tier's rendered-frame cache) key
their entries on *content*, not object identity: the model's parameter
arrays, the camera's geometry, and the config fields the cached stage
depends on.  Both caches build their keys from the helpers here, so the two
can never drift on fingerprint semantics — a model mutation invalidates
entries in every cache the same way.

Fingerprints are cheap relative to the work they memoize (one BLAKE2 pass
over the parameter bytes vs a full projection or render), and robust to
copies: two models with equal parameters share a fingerprint even when they
are distinct objects.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .camera import Camera
from .gaussians import GaussianModel


def content_fingerprint(*arrays: np.ndarray) -> bytes:
    """16-byte BLAKE2 digest of the given arrays' contents (order-sensitive)."""
    digest = hashlib.blake2b(digest_size=16)
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.digest()


def model_fingerprint(model: GaussianModel) -> bytes:
    """Content fingerprint of a model's parameters (robust to mutation)."""
    return content_fingerprint(
        model.positions,
        model.log_scales,
        model.rotations,
        model.opacity_logits,
        model.sh,
    )


def camera_fingerprint(camera: Camera) -> tuple:
    """Hashable key of everything that defines a camera's geometry."""
    return (
        camera.width,
        camera.height,
        camera.fx,
        camera.fy,
        camera.cx,
        camera.cy,
        camera.near,
        camera.far,
        camera.world_to_cam_rotation.tobytes(),
        camera.world_to_cam_translation.tobytes(),
    )


def prepare_config_fingerprint(config) -> tuple:
    """The config fields the view-preparation prefix depends on.

    Projection/tiling/sorting only see the tile size and the 3D smoothing
    filter; rasterization-only options (background, per-pixel sort, backend)
    deliberately do not invalidate prepared views.
    """
    return (config.tile_size, config.smoothing_3d)


def render_config_fingerprint(config) -> tuple:
    """The config fields a *rendered frame* depends on.

    Every field that can change output pixels participates, including the
    backend: engines agree only to the equivalence tolerance (1e-10), so a
    frame cache promising exact-key bit-identity must not serve one
    backend's pixels for another's.  ``backend=None`` is resolved to the
    effective process default at key time — flipping the default via
    ``set_default_backend`` / ``REPRO_BACKEND`` starts a fresh key space
    instead of serving stale cross-backend frames.
    """
    from .backends import resolve_backend_name

    return (
        config.tile_size,
        tuple(float(c) for c in config.background),
        config.smoothing_3d,
        config.per_pixel_sort,
        resolve_backend_name(config.backend),
    )
