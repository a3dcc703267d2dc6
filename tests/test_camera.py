"""Camera model: look-at construction, projection, visual-angle geometry."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.foveation.regions import RegionLayout, compute_region_maps
from repro.splat import camera as camera_module
from repro.splat.camera import Camera
from repro.splat.tiling import TileGrid


@pytest.fixture()
def cam():
    return Camera.from_fov(
        width=128,
        height=96,
        fov_x_deg=90.0,
        position=np.array([0.0, 0.0, -4.0]),
        look_at=np.zeros(3),
    )


class TestConstruction:
    def test_position_round_trip(self, cam):
        assert np.allclose(cam.position, [0.0, 0.0, -4.0])

    def test_fov_round_trip(self, cam):
        assert cam.fov_x_deg == pytest.approx(90.0)

    def test_rotation_is_orthonormal(self, cam):
        rot = cam.world_to_cam_rotation
        assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)

    def test_look_at_point_is_on_axis(self, cam):
        screen, depth = cam.project(np.zeros((1, 3)))
        assert depth[0] == pytest.approx(4.0)
        assert screen[0, 0] == pytest.approx(cam.cx)
        assert screen[0, 1] == pytest.approx(cam.cy)

    def test_coincident_position_target_rejected(self):
        with pytest.raises(ValueError):
            Camera.from_fov(64, 48, 60.0, np.zeros(3), np.zeros(3))

    def test_degenerate_up_vector_handled(self):
        # up parallel to the viewing direction must not crash.
        cam = Camera.from_fov(
            64, 48, 60.0, np.array([0.0, -3.0, 0.0]), np.zeros(3),
            up=np.array([0.0, -1.0, 0.0]),
        )
        assert np.all(np.isfinite(cam.world_to_cam_rotation))

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Camera(
                width=0, height=48, fx=10, fy=10, cx=0, cy=0,
                world_to_cam_rotation=np.eye(3),
                world_to_cam_translation=np.zeros(3),
            )


class TestProjection:
    def test_right_of_center_projects_right(self, cam):
        # +x (camera right) must land at larger pixel u.
        right_world = cam.world_to_cam_rotation[0]
        screen, _ = cam.project((right_world * 1.0 + np.array([0.0, 0.0, 0.0]))[None])
        assert screen[0, 0] > cam.cx

    def test_projection_scales_with_depth(self, cam):
        p_near = np.array([[1.0, 0.0, -2.0]])
        p_far = np.array([[1.0, 0.0, 2.0]])
        s_near, d_near = cam.project(p_near)
        s_far, d_far = cam.project(p_far)
        assert d_far[0] > d_near[0]
        assert abs(s_far[0, 0] - cam.cx) < abs(s_near[0, 0] - cam.cx)

    def test_view_directions_unit(self, cam):
        points = np.random.default_rng(0).normal(size=(40, 3)) * 5
        dirs = cam.view_directions(points)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)


class TestVisualAngle:
    def test_pixel_rays_unit(self, cam):
        rays = cam.pixel_rays()
        assert rays.shape == (96, 128, 3)
        assert np.allclose(np.linalg.norm(rays, axis=-1), 1.0)

    def test_eccentricity_zero_at_gaze(self, cam):
        ecc = cam.pixel_eccentricity()
        cy, cx = int(cam.cy), int(cam.cx)
        # Minimum sits at the principal point (within half-pixel accuracy).
        assert ecc[cy, cx] < cam.degrees_per_pixel()

    def test_eccentricity_increases_toward_corner(self, cam):
        ecc = cam.pixel_eccentricity()
        assert ecc[0, 0] > ecc[48, 64]
        # Corner of a 90-degree-FOV image is ~48 degrees off-axis.
        assert 40.0 < ecc[0, 0] < 56.0

    def test_gaze_shifts_eccentricity(self, cam):
        gaze = (20.0, 20.0)
        ecc = cam.pixel_eccentricity(gaze)
        assert ecc[20, 20] < 1.5
        assert ecc[20, 20] < ecc[90, 120]

    def test_degrees_per_pixel_matches_fov(self, cam):
        # Central pixels subtend the largest angle; for a 90-degree FOV the
        # flat-projection overestimate (deg/px × width) is ~27% above fov.
        approx_fov = cam.degrees_per_pixel() * cam.width
        assert cam.fov_x_deg < approx_fov < 1.35 * cam.fov_x_deg


class TestSeparableRays:
    """``pixel_rays`` equals the stacked-ray formula bit for bit."""

    @staticmethod
    def _stacked(camera):
        xs = (np.arange(camera.width) + 0.5 - camera.cx) / camera.fx
        ys = (np.arange(camera.height) + 0.5 - camera.cy) / camera.fy
        grid_x, grid_y = np.meshgrid(xs, ys)
        rays = np.stack([grid_x, grid_y, np.ones_like(grid_x)], axis=-1)
        return rays / np.linalg.norm(rays, axis=-1, keepdims=True)

    @pytest.mark.parametrize("size", [(64, 48), (333, 177), (1024, 768)])
    @pytest.mark.parametrize("gaze", [None, (10.0, 7.0), (-50.0, 900.0)])
    def test_rays_and_eccentricity_bitwise(self, size, gaze):
        camera = Camera.from_fov(
            size[0], size[1], 90.0, np.array([0.0, 0.0, -4.0]), np.zeros(3)
        )
        rays = self._stacked(camera)
        assert np.array_equal(camera.pixel_rays(), rays)
        g = (camera.cx, camera.cy) if gaze is None else gaze
        gaze_ray = np.array(
            [(g[0] - camera.cx) / camera.fx, (g[1] - camera.cy) / camera.fy, 1.0]
        )
        gaze_ray = gaze_ray / np.linalg.norm(gaze_ray)
        ecc = np.rad2deg(np.arccos(np.clip(rays @ gaze_ray, -1.0, 1.0)))
        assert np.array_equal(camera.pixel_eccentricity(gaze), ecc)


class TestRayMemo:
    """``pixel_rays`` is memoized per intrinsics, shared and read-only."""

    @staticmethod
    def _camera(width=96, height=64, fov=70.0, position=(0.0, 0.0, -4.0)):
        return Camera.from_fov(width, height, fov, np.array(position), np.zeros(3))

    @staticmethod
    def _fresh(camera):
        # The memoized function's own body, called past its cache.
        return camera_module._pixel_rays.__wrapped__(
            camera.width, camera.height, camera.fx, camera.fy, camera.cx, camera.cy
        )

    def test_cached_rays_equal_a_fresh_build(self):
        camera = self._camera()
        camera.pixel_rays()  # warm the memo
        cached = camera.pixel_rays()
        assert cached.tobytes() == self._fresh(camera).tobytes()
        assert np.array_equal(cached, TestSeparableRays._stacked(camera))

    def test_equal_intrinsics_share_one_read_only_array(self):
        a = self._camera(position=(0.0, 0.0, -4.0))
        b = self._camera(position=(1.0, -2.0, -6.0))
        assert a.world_to_cam_translation.tolist() != b.world_to_cam_translation.tolist()
        rays = a.pixel_rays()
        assert b.pixel_rays() is rays
        assert not rays.flags.writeable
        with pytest.raises(ValueError):
            rays[0, 0, 0] = 1.0
        # The memo lives beside the camera, not on it: a pickled camera (as
        # shipped to serve workers) carries no rays.
        assert len(pickle.dumps(a)) < rays.nbytes // 10

    @pytest.mark.parametrize(
        "other", [dict(fov=71.0), dict(width=97), dict(height=65)]
    )
    def test_other_intrinsics_get_their_own_rays(self, other):
        base = self._camera()
        changed = self._camera(**other)
        rays = changed.pixel_rays()
        assert rays is not base.pixel_rays()
        assert rays.shape == (changed.height, changed.width, 3)
        assert rays.tobytes() == self._fresh(changed).tobytes()

    def test_region_maps_shared_across_poses(self):
        layout = RegionLayout((0.0, 8.0, 14.0, 20.0), blend_band_deg=1.5)
        a = self._camera(position=(0.0, 0.0, -4.0))
        b = self._camera(position=(2.0, 1.0, -5.0))
        grid = TileGrid(width=a.width, height=a.height, tile_size=16)
        derived = ["eccentricity", "pixel_level", "band_level", "needs_blend", "weight_next"]
        camera_module._pixel_rays.cache_clear()
        for gaze in (None, (70.0, 20.0), (-96.0, -64.0)):
            fresh = compute_region_maps(a, grid, layout, gaze)
            shared = compute_region_maps(b, grid, layout, gaze)  # reads a's rays
            for name in [f.name for f in dataclasses.fields(fresh)] + derived:
                x, y = getattr(fresh, name), getattr(shared, name)
                if isinstance(x, np.ndarray):
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
                else:
                    assert x == y, name
