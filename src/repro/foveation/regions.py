"""Quality regions for foveated rendering (Sec 4.1 / Sec 6).

The image is divided into N eccentricity annuli around the gaze; region k is
rendered by quality level k (1 = foveal, highest quality).  The paper uses
four regions starting at 0°, 18°, 27° and 33° of eccentricity, covering
roughly 13% / 17% / 21% / 49% of pixels on their headset.

Blending: each region renders slightly past its outer boundary, and pixels
inside the transition band are rendered by *both* adjacent levels and
interpolated, eliminating the visible seam (a form of anti-aliasing across
quality levels).  A tile renders one level (its centre pixel's) plus, when
it holds band pixels, the other level of its dominant band — the band with
the most of its pixels, ties going to the inner-most (see
:func:`compute_region_maps`).

:class:`RegionMaps` holds what a render reads, in O(tiles + band pixels):
each tile's levels and each band pixel's index, tile, inner level and
weight.  The full-resolution maps (eccentricity, per-pixel level, band
level, blend mask and weight) are derived from those on first read, for
the ``reference`` oracle, analyses and tests.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from ..splat.camera import Camera, pixel_eccentricity
from ..splat.tiling import TileGrid, pixel_tiles, tile_center_pixels

PAPER_REGION_BOUNDARIES_DEG = (0.0, 18.0, 27.0, 33.0)


@dataclasses.dataclass(frozen=True)
class RegionLayout:
    """Eccentricity region division plus the blending band width."""

    boundaries_deg: tuple[float, ...] = PAPER_REGION_BOUNDARIES_DEG
    blend_band_deg: float = 1.5

    def __post_init__(self) -> None:
        b = self.boundaries_deg
        if len(b) < 1 or b[0] != 0.0:
            raise ValueError("boundaries must start at 0 degrees")
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ValueError("boundaries must be strictly increasing")
        if self.blend_band_deg < 0:
            raise ValueError("blend band must be non-negative")

    @property
    def num_levels(self) -> int:
        return len(self.boundaries_deg)

    def level_of(self, eccentricity_deg: np.ndarray) -> np.ndarray:
        """Quality level (1-based) of each eccentricity value."""
        ecc = np.asarray(eccentricity_deg, dtype=np.float64)
        level = np.ones(ecc.shape, dtype=np.int64)
        for boundary in self.boundaries_deg[1:]:
            level += (ecc >= boundary).astype(np.int64)
        return level

    def blend_weights(self, eccentricity_deg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Blend factor toward the *next* level inside transition bands.

        Returns ``(needs_blend (bool), weight_next (float in [0, 1]))``:
        pixels in the band ``[b_k − h, b_k + h]`` around boundary ``b_k`` mix
        level k and level k+1, with ``weight_next`` ramping 0 → 1 across the
        band (each region renders slightly beyond its boundary, and the
        doubly-rendered pixels are interpolated — Sec 4.1).
        """
        ecc = np.asarray(eccentricity_deg, dtype=np.float64)
        needs_blend = np.zeros(ecc.shape, dtype=bool)
        weight_next = np.zeros(ecc.shape, dtype=np.float64)
        h = self.blend_band_deg
        if h == 0:
            return needs_blend, weight_next
        for boundary in self.boundaries_deg[1:]:
            in_band = (ecc >= boundary - h) & (ecc < boundary + h)
            needs_blend |= in_band
            w = (ecc - (boundary - h)) / (2.0 * h)  # 0 → 1 across the band
            weight_next = np.where(in_band, np.clip(w, 0.0, 1.0), weight_next)
        return needs_blend, weight_next


@dataclasses.dataclass
class RegionMaps:
    """Foveation maps for one view: per tile, and per band pixel.

    Following the paper, a tile is assigned **one** quality level from its
    eccentricity (we use the tile centre); only tiles containing blend-band
    pixels are rendered at a second level, and only their band pixels blend
    the two renders (~25% of pixels at headset scale).

    The fields are what a render reads: the two tile fields and, for each
    band pixel (in row-major order), its flat image index, tile, inner
    band level ``k`` and blend weight toward level ``k + 1``, clipped to
    [0, 1].  The full-resolution maps — ``eccentricity``, ``pixel_level``,
    ``band_level``, ``needs_blend`` and ``weight_next`` — are derived on
    first read from the band arrays and from the camera ``intrinsics``,
    ``layout`` and ``gaze`` the maps were computed for, and cached on the
    object.  They are not fields: pickling, :func:`dataclasses.replace`
    and the serve tier's shared-memory walk carry the eager arrays only.
    """

    tile_level: np.ndarray  # (T,) the level each tile is rendered at
    tile_second_level: np.ndarray  # (T,) extra level for blending (0 = none)
    band_pixels: np.ndarray  # (M,) flat image index of each band pixel
    band_tiles: np.ndarray  # (M,) its tile
    band_inner: np.ndarray  # (M,) inner level k of its band (narrow unsigned)
    band_weight: np.ndarray  # (M,) blend factor toward level k + 1, in [0, 1]
    intrinsics: tuple  # the camera's (width, height, fx, fy, cx, cy)
    layout: RegionLayout
    gaze: tuple[float, float] | None = None

    def __getstate__(self) -> dict:
        # Pickle the fields, not the derived maps cached in ``__dict__``.
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def _plane(self, dtype, values) -> np.ndarray:
        """An ``(H, W)`` map, zero except ``values`` at the band pixels."""
        width, height = self.intrinsics[:2]
        plane = np.zeros((height, width), dtype=dtype)
        plane.reshape(-1)[self.band_pixels] = values
        return plane

    @functools.cached_property
    def eccentricity(self) -> np.ndarray:
        """(H, W) degrees from the gaze."""
        return pixel_eccentricity(self.intrinsics, self.gaze)

    @functools.cached_property
    def pixel_level(self) -> np.ndarray:
        """(H, W) 1-based quality level of each pixel."""
        return self.layout.level_of(self.eccentricity)

    @functools.cached_property
    def band_level(self) -> np.ndarray:
        """(H, W) inner level k of the band a pixel is in (0 = none)."""
        return self._plane(np.int64, self.band_inner)

    @functools.cached_property
    def needs_blend(self) -> np.ndarray:
        """(H, W) pixels in a blend band."""
        return self._plane(bool, True)

    @functools.cached_property
    def weight_next(self) -> np.ndarray:
        """(H, W) blend factor toward the outer level (0 off the bands)."""
        return self._plane(np.float64, self.band_weight)

    @property
    def blend_fraction(self) -> float:
        """Fraction of pixels rendered twice (the paper reports ≈ 25%)."""
        width, height = self.intrinsics[:2]
        return self.band_pixels.shape[0] / (width * height)


def compute_region_maps(
    camera: Camera,
    grid: TileGrid,
    layout: RegionLayout,
    gaze: tuple[float, float] | None = None,
) -> RegionMaps:
    """Per-tile render levels and the band pixels' levels and weights.

    A tile's level is :meth:`RegionLayout.level_of` its centre pixel's
    eccentricity.  One pass over the boundaries finds each band pixel's
    inner level ``k`` (the band ``[b_k − h, b_k + h)`` it lies in; where
    two bands overlap, the later boundary wins) and its weight, the
    arithmetic of :meth:`RegionLayout.blend_weights` pixel for pixel.

    **Dominant-band rule.**  A tile with band pixels is rendered at a second
    level picked by its *dominant* band — the inner level ``k`` holding the
    most of the tile's band pixels, ties going to the smallest ``k``.  The
    band mixes levels ``(k, k + 1)``; the tile's primary level covers one
    of them and the second level is the other (``min(k + 1, L)`` when the
    primary is at or inside ``k``, else ``k``), or none when that equals
    the primary.
    """
    ecc = camera.pixel_eccentricity(gaze)
    n_levels = layout.num_levels
    boundaries = layout.boundaries_deg[1:]
    h = layout.blend_band_deg
    flat = ecc.reshape(-1)
    # Tile level from the tile-centre eccentricity (one level per tile).
    tile_level = layout.level_of(flat.take(tile_center_pixels(grid)))

    # Which boundary's band each pixel belongs to (inner level k, 0 =
    # none), in a narrow map (a byte for any sane layout) with each band
    # test's mask read as 0/1 bytes: k grows with the boundary, so a
    # running maximum lets the later win.
    small = np.min_scalar_type(n_levels)
    band = np.zeros(ecc.shape, dtype=small)
    if h > 0:
        mask = np.empty(ecc.shape, dtype=bool)
        bits = mask.view(np.uint8)
        for k, boundary in enumerate(boundaries, start=1):
            np.greater_equal(ecc, boundary - h, out=mask)
            mask &= ecc < boundary + h
            np.maximum(band, bits * small.type(k), out=band)
    band_px = np.flatnonzero(band > 0)  # a bool scan is ~3x a byte scan's speed
    band_k = band.reshape(-1).take(band_px)
    lower = np.array([0.0] + [boundary - h for boundary in boundaries])
    w = (flat.take(band_px) - lower.take(band_k)) / (2.0 * h)  # 0 → 1
    np.clip(w, 0.0, 1.0, out=w)

    # Band pixels per (tile, inner level): the dominant band is the first
    # maximum over levels 1..L (the argmax tie-break).
    tiles = pixel_tiles(grid).reshape(-1).take(band_px)
    counts = np.bincount(
        tiles * (n_levels + 1) + band_k,
        minlength=grid.num_tiles * (n_levels + 1),
    ).reshape(grid.num_tiles, n_levels + 1)[:, 1:]
    k = counts.argmax(axis=1) + 1
    second = np.where(tile_level <= k, np.minimum(k + 1, n_levels), k)
    has_band = counts.any(axis=1)
    tile_second_level = np.where(has_band & (second != tile_level), second, 0)

    return RegionMaps(
        tile_level=tile_level,
        tile_second_level=tile_second_level,
        band_pixels=band_px,
        band_tiles=tiles,
        band_inner=band_k,
        band_weight=w,
        intrinsics=camera.intrinsics,
        layout=layout,
        gaze=gaze,
    )


def region_masks(
    camera: Camera,
    layout: RegionLayout,
    gaze: tuple[float, float] | None = None,
) -> list[np.ndarray]:
    """Boolean pixel mask of each quality region (for per-region HVSQ)."""
    ecc = camera.pixel_eccentricity(gaze)
    level = layout.level_of(ecc)
    return [level == k for k in range(1, layout.num_levels + 1)]


def region_pixel_fractions(
    camera: Camera,
    layout: RegionLayout,
    gaze: tuple[float, float] | None = None,
) -> np.ndarray:
    """Fraction of image pixels in each region (paper: 13/17/21/49%)."""
    masks = region_masks(camera, layout, gaze)
    return np.asarray([m.mean() for m in masks])
