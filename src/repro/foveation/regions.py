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
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..splat.camera import Camera
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
    """Precomputed per-pixel and per-tile foveation maps for one view.

    Following the paper, a tile is assigned **one** quality level from its
    eccentricity (we use the tile centre); only tiles containing blend-band
    pixels are rendered at a second level, and only their band pixels blend
    the two renders (~25% of pixels at headset scale).
    """

    pixel_level: np.ndarray  # (H, W) 1-based quality level of each pixel
    needs_blend: np.ndarray  # (H, W) pixels rendered twice
    weight_next: np.ndarray  # (H, W) blend factor toward the outer level
    band_level: np.ndarray  # (H, W) inner level k of the band a pixel is in (0 = none)
    tile_level: np.ndarray  # (T,) the level each tile is rendered at
    tile_second_level: np.ndarray  # (T,) extra level for blending (0 = none)
    eccentricity: np.ndarray  # (H, W) degrees

    @property
    def blend_fraction(self) -> float:
        """Fraction of pixels rendered twice (the paper reports ≈ 25%)."""
        return float(self.needs_blend.mean())


def compute_region_maps(
    camera: Camera,
    grid: TileGrid,
    layout: RegionLayout,
    gaze: tuple[float, float] | None = None,
) -> RegionMaps:
    """Per-pixel levels / blend weights and per-tile render levels.

    One pass over the boundaries fills every per-pixel map (the arithmetic
    of :meth:`RegionLayout.level_of` and :meth:`RegionLayout.blend_weights`,
    pixel for pixel); where two bands overlap, the later boundary wins.

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
    # Levels and bands are counted in narrow per-pixel maps (a byte for any
    # sane layout), with each comparison's mask read as 0/1 bytes, and
    # widened to the int64 maps once.
    small = np.min_scalar_type(n_levels)
    level = np.ones(ecc.shape, dtype=small)
    # Which boundary's band each blend pixel belongs to (inner level k):
    # k grows with the boundary, so a running maximum lets the later win.
    band = np.zeros(ecc.shape, dtype=small)
    mask = np.empty(ecc.shape, dtype=bool)
    bits = mask.view(np.uint8)
    for k, boundary in enumerate(boundaries, start=1):
        np.greater_equal(ecc, boundary, out=mask)
        level += bits
        if h > 0:
            np.greater_equal(ecc, boundary - h, out=mask)
            mask &= ecc < boundary + h
            np.maximum(band, bits * small.type(k), out=band)
    pixel_level = level.astype(np.int64)
    band_level = band.astype(np.int64)
    needs_blend = band > 0
    band_px = np.flatnonzero(needs_blend)
    band_k = band_level.reshape(-1).take(band_px)
    weight_next = np.zeros(ecc.shape, dtype=np.float64)
    lower = np.array([0.0] + [boundary - h for boundary in boundaries])
    w = (ecc.reshape(-1).take(band_px) - lower.take(band_k)) / (2.0 * h)  # 0 → 1
    weight_next.reshape(-1)[band_px] = np.clip(w, 0.0, 1.0, out=w)

    # Tile level from the tile-centre eccentricity (one level per tile).
    tile_level = pixel_level.reshape(-1).take(tile_center_pixels(grid))

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
        pixel_level=pixel_level,
        needs_blend=needs_blend,
        weight_next=weight_next,
        band_level=band_level,
        tile_level=tile_level,
        tile_second_level=tile_second_level,
        eccentricity=ecc,
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
