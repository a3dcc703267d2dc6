"""Pinhole camera model with the display geometry needed for foveation.

Beyond the usual world→camera→screen mapping, foveated rendering needs to
know the *visual angle* of every pixel: in a VR headset the display spans the
field of view directly, so the eccentricity of a pixel relative to the gaze
point is the angle between the pixel's viewing ray and the gaze ray.
:meth:`Camera.pixel_eccentricity` provides exactly that map.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np


_DEGREES_PER_RADIAN = 180.0 / np.pi


# Few entries: a process renders a handful of image sizes, and one
# 1024×768 ray map is 18 MiB.
@functools.lru_cache(maxsize=4)
def _pixel_rays(width: int, height: int, fx: float, fy: float, cx: float, cy: float) -> np.ndarray:
    """The read-only ray map of :meth:`Camera.pixel_rays`, one per intrinsics."""
    xs = (np.arange(width) + 0.5 - cx) / fx
    ys = (np.arange(height) + 0.5 - cy) / fy
    norm = (xs * xs)[None, :] + (ys * ys)[:, None]
    norm += 1.0
    np.sqrt(norm, out=norm)
    rays = np.empty((height, width, 3))
    np.divide(xs[None, :], norm, out=rays[:, :, 0])
    np.divide(ys[:, None], norm, out=rays[:, :, 1])
    np.divide(1.0, norm, out=rays[:, :, 2])
    rays.setflags(write=False)
    return rays


def pixel_eccentricity(
    intrinsics: tuple[int, int, float, float, float, float],
    gaze: tuple[float, float] | None = None,
) -> np.ndarray:
    """:meth:`Camera.pixel_eccentricity` of any camera with ``intrinsics``
    (:attr:`Camera.intrinsics`): the map depends on no pose."""
    _, _, fx, fy, cx, cy = intrinsics
    if gaze is None:
        gaze = (cx, cy)
    gaze_ray = np.array([(gaze[0] - cx) / fx, (gaze[1] - cy) / fy, 1.0])
    gaze_ray = gaze_ray / np.linalg.norm(gaze_ray)
    # clip → arccos → degrees, in place on the fresh dot products.
    # ``np.rad2deg`` is ``x * (180 / π)`` in a scalar loop; the same
    # product through ``np.multiply`` is vectorized and bitwise equal.
    ecc = _pixel_rays(*intrinsics) @ gaze_ray
    np.clip(ecc, -1.0, 1.0, out=ecc)
    np.arccos(ecc, out=ecc)
    return np.multiply(ecc, _DEGREES_PER_RADIAN, out=ecc)


@dataclasses.dataclass(frozen=True)
class Camera:
    """A pinhole camera with a world-to-camera rigid transform.

    Camera convention: +z looks forward, +x right, +y down (image rows grow
    downward), matching the 3DGS rasterizer.
    """

    width: int
    height: int
    fx: float
    fy: float
    cx: float
    cy: float
    world_to_cam_rotation: np.ndarray  # (3, 3)
    world_to_cam_translation: np.ndarray  # (3,)
    near: float = 0.05
    far: float = 1000.0

    def __post_init__(self) -> None:
        rot = np.asarray(self.world_to_cam_rotation, dtype=np.float64)
        trans = np.asarray(self.world_to_cam_translation, dtype=np.float64)
        if rot.shape != (3, 3):
            raise ValueError(f"rotation must be (3, 3), got {rot.shape}")
        if trans.shape != (3,):
            raise ValueError(f"translation must be (3,), got {trans.shape}")
        object.__setattr__(self, "world_to_cam_rotation", rot)
        object.__setattr__(self, "world_to_cam_translation", trans)
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def from_fov(
        width: int,
        height: int,
        fov_x_deg: float,
        position: np.ndarray,
        look_at: np.ndarray,
        up: np.ndarray | None = None,
        near: float = 0.05,
        far: float = 1000.0,
    ) -> "Camera":
        """Build a look-at camera from a horizontal field of view."""
        position = np.asarray(position, dtype=np.float64)
        look_at = np.asarray(look_at, dtype=np.float64)
        up = np.asarray([0.0, -1.0, 0.0] if up is None else up, dtype=np.float64)

        forward = look_at - position
        norm = np.linalg.norm(forward)
        if norm < 1e-12:
            raise ValueError("camera position and look_at coincide")
        forward = forward / norm
        right = np.cross(up, forward)
        right_norm = np.linalg.norm(right)
        if right_norm < 1e-12:
            # ``up`` parallel to viewing direction; pick an arbitrary right.
            right = np.cross(np.array([1.0, 0.0, 0.0]), forward)
            right_norm = np.linalg.norm(right)
            if right_norm < 1e-12:
                right = np.cross(np.array([0.0, 0.0, 1.0]), forward)
                right_norm = np.linalg.norm(right)
        right = right / right_norm
        down = np.cross(forward, right)

        rotation = np.stack([right, down, forward])  # rows: camera axes in world
        translation = -rotation @ position

        fov_x = np.deg2rad(fov_x_deg)
        fx = (width / 2.0) / np.tan(fov_x / 2.0)
        return Camera(
            width=width,
            height=height,
            fx=fx,
            fy=fx,
            cx=width / 2.0,
            cy=height / 2.0,
            world_to_cam_rotation=rotation,
            world_to_cam_translation=translation,
            near=near,
            far=far,
        )

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def position(self) -> np.ndarray:
        """Camera centre in world coordinates."""
        return -self.world_to_cam_rotation.T @ self.world_to_cam_translation

    @property
    def fov_x_deg(self) -> float:
        return float(np.rad2deg(2.0 * np.arctan(self.width / (2.0 * self.fx))))

    @property
    def fov_y_deg(self) -> float:
        return float(np.rad2deg(2.0 * np.arctan(self.height / (2.0 * self.fy))))

    def world_to_camera(self, points: np.ndarray) -> np.ndarray:
        """Transform ``(N, 3)`` world points into camera space."""
        points = np.asarray(points, dtype=np.float64)
        return points @ self.world_to_cam_rotation.T + self.world_to_cam_translation

    def camera_to_screen(self, cam_points: np.ndarray) -> np.ndarray:
        """Perspective-project camera-space points to pixel coordinates."""
        cam_points = np.asarray(cam_points, dtype=np.float64)
        z = cam_points[:, 2]
        z_safe = np.where(np.abs(z) < 1e-9, 1e-9, z)
        u = cam_points[:, 0] / z_safe * self.fx + self.cx
        v = cam_points[:, 1] / z_safe * self.fy + self.cy
        return np.stack([u, v], axis=1)

    def project(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """World points → (pixel coordinates ``(N, 2)``, depths ``(N,)``)."""
        cam = self.world_to_camera(points)
        return self.camera_to_screen(cam), cam[:, 2]

    def view_directions(self, points: np.ndarray) -> np.ndarray:
        """Unit directions from the camera centre to each world point."""
        diff = np.asarray(points, dtype=np.float64) - self.position
        norms = np.linalg.norm(diff, axis=1, keepdims=True)
        norms = np.where(norms == 0.0, 1.0, norms)
        return diff / norms

    # ------------------------------------------------------------------
    # Visual-angle geometry for foveation
    # ------------------------------------------------------------------
    def pixel_rays(self) -> np.ndarray:
        """Camera-space unit viewing ray of every pixel, ``(H, W, 3)``.

        Built separably: the ray of pixel ``(y, x)`` is ``(xs[x], ys[y], 1)``
        over its norm ``sqrt((xs² + ys²) + 1)`` — the summation order of
        ``np.linalg.norm`` over the stacked rays, so the result is the same
        to the bit without materializing the unnormalized rays.

        The rays depend only on the intrinsics: they are memoized per
        ``(width, height, fx, fy, cx, cy)`` in a small module-level cache
        (not on the camera, which is pickled to serve workers), so every
        pose and gaze of one image size shares one build.  The returned
        array is shared and read-only.
        """
        return _pixel_rays(*self.intrinsics)

    @property
    def intrinsics(self) -> tuple[int, int, float, float, float, float]:
        """``(width, height, fx, fy, cx, cy)``: all the visual-angle
        geometry depends on."""
        return (self.width, self.height, self.fx, self.fy, self.cx, self.cy)

    def pixel_eccentricity(self, gaze: tuple[float, float] | None = None) -> np.ndarray:
        """Per-pixel eccentricity in degrees relative to a gaze point.

        Parameters
        ----------
        gaze:
            ``(x, y)`` pixel coordinates of the gaze; defaults to the image
            centre (the principal point).
        """
        return pixel_eccentricity(self.intrinsics, gaze)

    def degrees_per_pixel(self) -> float:
        """Approximate visual angle subtended by one pixel at the centre."""
        return float(np.rad2deg(np.arctan(1.0 / self.fx)))
