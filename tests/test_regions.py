"""Foveation quality regions: level maps, blending bands, tile assignment."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.foveation.regions import (
    PAPER_REGION_BOUNDARIES_DEG,
    RegionLayout,
    RegionMaps,
    compute_region_maps,
    region_masks,
    region_pixel_fractions,
)
from repro.harness import EVAL_REGION_LAYOUT
from repro.splat.camera import Camera
from repro.splat.tiling import TileGrid


@pytest.fixture()
def layout():
    return RegionLayout(boundaries_deg=(0.0, 12.0, 20.0, 28.0), blend_band_deg=1.5)


class TestLayout:
    def test_paper_boundaries(self):
        assert PAPER_REGION_BOUNDARIES_DEG == (0.0, 18.0, 27.0, 33.0)
        assert RegionLayout().num_levels == 4

    def test_level_of_scalar_bands(self, layout):
        ecc = np.array([0.0, 5.0, 12.0, 19.9, 20.0, 27.9, 28.0, 60.0])
        levels = layout.level_of(ecc)
        assert list(levels) == [1, 1, 2, 2, 3, 3, 4, 4]

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            RegionLayout(boundaries_deg=(5.0, 10.0))

    def test_boundaries_must_increase(self):
        with pytest.raises(ValueError):
            RegionLayout(boundaries_deg=(0.0, 10.0, 10.0))

    def test_negative_band_rejected(self):
        with pytest.raises(ValueError):
            RegionLayout(blend_band_deg=-1.0)

    def test_blend_weights_ramp(self, layout):
        ecc = np.array([10.5, 12.0, 13.5])  # across the first boundary band
        needs, weight = layout.blend_weights(ecc)
        assert list(needs) == [True, True, False]
        assert weight[0] == pytest.approx(0.0)
        assert weight[1] == pytest.approx(0.5)

    def test_zero_band_disables_blending(self):
        layout = RegionLayout(boundaries_deg=(0.0, 10.0), blend_band_deg=0.0)
        needs, weight = layout.blend_weights(np.array([9.9, 10.0, 10.1]))
        assert not needs.any()


class TestRegionMaps:
    @pytest.fixture()
    def maps(self, front_camera, layout):
        grid = TileGrid(front_camera.width, front_camera.height)
        return compute_region_maps(front_camera, grid, layout)

    def test_pixel_levels_radially_monotone(self, maps, front_camera):
        cy, cx = front_camera.height // 2, front_camera.width // 2
        assert maps.pixel_level[cy, cx] == 1
        assert maps.pixel_level[0, 0] >= maps.pixel_level[cy, cx]

    def test_tile_level_matches_center_pixel(self, maps, front_camera, layout):
        grid = TileGrid(front_camera.width, front_camera.height)
        centers = grid.tile_centers()
        for tid in range(grid.num_tiles):
            cx_, cy_ = int(centers[tid, 0]), int(centers[tid, 1])
            assert maps.tile_level[tid] == maps.pixel_level[cy_, cx_]

    def test_second_level_adjacent(self, maps):
        for tid in range(maps.tile_level.shape[0]):
            second = maps.tile_second_level[tid]
            if second:
                assert abs(second - maps.tile_level[tid]) == 1

    def test_band_level_only_on_blend_pixels(self, maps):
        assert np.all((maps.band_level > 0) == maps.needs_blend)

    def test_blend_fraction_reasonable(self, maps):
        # The paper reports ~25% of pixels blended; at our scale it should
        # at least be a minority but non-trivial fraction.
        assert 0.0 < maps.blend_fraction < 0.6


class TestRegionMasks:
    def test_masks_partition_image(self, front_camera, layout):
        masks = region_masks(front_camera, layout)
        total = sum(m.astype(int) for m in masks)
        assert np.all(total == 1)

    def test_fractions_sum_to_one(self, front_camera, layout):
        fractions = region_pixel_fractions(front_camera, layout)
        assert fractions.sum() == pytest.approx(1.0)
        assert fractions[0] > 0  # fovea non-empty

    def test_gaze_moves_fovea(self, front_camera, layout):
        fractions_center = region_pixel_fractions(front_camera, layout)
        fractions_corner = region_pixel_fractions(front_camera, layout, gaze=(0.0, 0.0))
        assert fractions_center[0] != pytest.approx(fractions_corner[0])


def _stacked_rays(camera):
    """Pixel rays by the meshgrid / ``stack`` / ``np.linalg.norm`` formula."""
    xs = (np.arange(camera.width) + 0.5 - camera.cx) / camera.fx
    ys = (np.arange(camera.height) + 0.5 - camera.cy) / camera.fy
    grid_x, grid_y = np.meshgrid(xs, ys)
    rays = np.stack([grid_x, grid_y, np.ones_like(grid_x)], axis=-1)
    return rays / np.linalg.norm(rays, axis=-1, keepdims=True)


def _looped_region_maps(camera, grid, layout, gaze=None):
    """Oracle: every region-map field, eager and derived, built map by map
    with a loop over tiles."""
    if gaze is None:
        gaze = (camera.cx, camera.cy)
    gaze_ray = np.array(
        [(gaze[0] - camera.cx) / camera.fx, (gaze[1] - camera.cy) / camera.fy, 1.0]
    )
    gaze_ray = gaze_ray / np.linalg.norm(gaze_ray)
    ecc = np.rad2deg(np.arccos(np.clip(_stacked_rays(camera) @ gaze_ray, -1.0, 1.0)))
    pixel_level = layout.level_of(ecc)
    needs_blend, weight_next = layout.blend_weights(ecc)

    band_level = np.zeros(ecc.shape, dtype=np.int64)
    h = layout.blend_band_deg
    for k, boundary in enumerate(layout.boundaries_deg[1:], start=1):
        in_band = (ecc >= boundary - h) & (ecc < boundary + h)
        band_level[in_band] = k

    centers = grid.tile_centers()
    cx = np.clip(centers[:, 0].astype(np.int64), 0, grid.width - 1)
    cy = np.clip(centers[:, 1].astype(np.int64), 0, grid.height - 1)
    tile_level = pixel_level[cy, cx]

    tile_second_level = np.zeros(grid.num_tiles, dtype=np.int64)
    for tile_id in range(grid.num_tiles):
        x0, y0, x1, y1 = grid.tile_pixel_bounds(tile_id)
        bands = band_level[y0:y1, x0:x1]
        bands = bands[bands > 0]
        if bands.size == 0:
            continue
        k = int(np.bincount(bands).argmax())
        primary = int(tile_level[tile_id])
        if primary <= k:
            tile_second_level[tile_id] = min(k + 1, layout.num_levels)
        else:
            tile_second_level[tile_id] = k
        if tile_second_level[tile_id] == primary:
            tile_second_level[tile_id] = 0

    band_pixels = np.flatnonzero(band_level)
    ts = grid.tile_size
    ys, xs = np.divmod(band_pixels, grid.width)
    return {
        "tile_level": tile_level,
        "tile_second_level": tile_second_level,
        "band_pixels": band_pixels,
        "band_tiles": (ys // ts) * grid.tiles_x + xs // ts,
        # Inner levels fit the narrowest unsigned type of the level count.
        "band_inner": band_level.reshape(-1)[band_pixels].astype(
            np.min_scalar_type(layout.num_levels)
        ),
        "band_weight": weight_next.reshape(-1)[band_pixels],
        "eccentricity": ecc,
        "pixel_level": pixel_level,
        "band_level": band_level,
        "needs_blend": needs_blend,
        "weight_next": weight_next,
    }


# The full-resolution maps derived on first read (not dataclass fields).
DERIVED_FIELDS = ("eccentricity", "pixel_level", "band_level", "needs_blend", "weight_next")


ORACLE_LAYOUTS = {
    "paper": RegionLayout(),
    "eval": EVAL_REGION_LAYOUT,
    "no-band": RegionLayout(boundaries_deg=(0.0, 12.0, 20.0, 28.0), blend_band_deg=0.0),
    # Boundaries closer than 2h: neighbouring bands overlap.
    "overlap": RegionLayout(boundaries_deg=(0.0, 6.0, 8.0, 9.5, 30.0), blend_band_deg=2.0),
}


def _assert_fields_equal(got, want: dict, names) -> None:
    for name in names:
        a, b = getattr(got, name), want[name]
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


class TestRegionMapsOracle:
    """Every eager and derived field equals the map-by-map, tile-loop
    build, bit for bit and dtype for dtype."""

    @pytest.mark.parametrize("size", [(64, 48), (70, 45), (256, 192)])
    @pytest.mark.parametrize("layout_name", sorted(ORACLE_LAYOUTS))
    @pytest.mark.parametrize(
        "gaze", [None, (0.3, 0.2), (0.9, 0.75), (-0.6, 1.5), (3.0, -2.0)]
    )
    def test_fields_equal_looped_build(self, size, layout_name, gaze):
        width, height = size
        camera = Camera.from_fov(
            width, height, 90.0, np.array([0.0, 0.0, -4.0]), np.zeros(3)
        )
        grid = TileGrid(width, height)
        layout = ORACLE_LAYOUTS[layout_name]
        # Gazes are image fractions; the last two lie off screen.
        pixel_gaze = None if gaze is None else (gaze[0] * width, gaze[1] * height)
        got = compute_region_maps(camera, grid, layout, pixel_gaze)
        want = _looped_region_maps(camera, grid, layout, pixel_gaze)
        arrays = [
            f.name for f in dataclasses.fields(RegionMaps)
            if isinstance(getattr(got, f.name), np.ndarray)
        ]
        assert set(arrays) | set(DERIVED_FIELDS) == set(want)
        _assert_fields_equal(got, want, want)

    @pytest.mark.parametrize("copy", ["pickle", "replace"])
    def test_copies_carry_no_derived_array(self, copy):
        camera = Camera.from_fov(70, 45, 90.0, np.array([0.0, 0.0, -4.0]), np.zeros(3))
        grid = TileGrid(70, 45)
        layout = ORACLE_LAYOUTS["overlap"]
        maps = compute_region_maps(camera, grid, layout, (20.0, 30.0))
        size = len(pickle.dumps(maps))
        derived = {name: getattr(maps, name) for name in DERIVED_FIELDS}
        assert set(DERIVED_FIELDS) <= set(vars(maps))  # cached on first read
        assert len(pickle.dumps(maps)) == size
        clone = (
            pickle.loads(pickle.dumps(maps))
            if copy == "pickle"
            else dataclasses.replace(maps)
        )
        assert not set(DERIVED_FIELDS) & set(vars(clone))
        _assert_fields_equal(clone, derived, DERIVED_FIELDS)
        want = _looped_region_maps(camera, grid, layout, (20.0, 30.0))
        _assert_fields_equal(clone, want, want)
