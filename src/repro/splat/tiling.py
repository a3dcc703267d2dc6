"""Tiling stage: assign projected splats to screen tiles.

Tiles are the scheduling unit of the whole paper: the rasterizer processes
one tile at a time, latency is driven by the number of *tile–ellipse
intersections* (Sec 3.1), and the accelerator pipelines work tile by tile
(Sec 5).  This module produces, for each tile, the list of splats whose
conservative radius overlaps it, plus the global intersection statistics the
pruning metric and the load-imbalance study are built on.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .projection import ProjectedGaussians

DEFAULT_TILE_SIZE = 16

# numpy's stable sort radix-sorts integer keys of 16 bits or fewer, about an
# order of magnitude faster than it merge-sorts int64 keys.
RADIX_KEY_RANGE = 1 << 16


def stable_key_order(keys: np.ndarray, key_range: int) -> np.ndarray:
    """Stable argsort of integer ``keys`` that all lie in ``[0, key_range)``.

    Keys narrow to ``uint16`` when the range allows, so numpy radix-sorts
    them; narrowing preserves their order, so the permutation is the one the
    wide keys give.
    """
    if key_range <= RADIX_KEY_RANGE:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


@dataclasses.dataclass(frozen=True)
class TileGrid:
    """Rectangular decomposition of the image plane into square tiles."""

    width: int
    height: int
    tile_size: int = DEFAULT_TILE_SIZE

    def __post_init__(self) -> None:
        if self.tile_size <= 0:
            raise ValueError("tile_size must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")

    @property
    def tiles_x(self) -> int:
        return (self.width + self.tile_size - 1) // self.tile_size

    @property
    def tiles_y(self) -> int:
        return (self.height + self.tile_size - 1) // self.tile_size

    @property
    def num_tiles(self) -> int:
        return self.tiles_x * self.tiles_y

    def tile_id(self, tx: int, ty: int) -> int:
        return ty * self.tiles_x + tx

    def tile_coords(self, tile_id: int) -> tuple[int, int]:
        return tile_id % self.tiles_x, tile_id // self.tiles_x

    def tile_pixel_bounds(self, tile_id: int) -> tuple[int, int, int, int]:
        """Pixel bounds ``(x0, y0, x1, y1)`` (exclusive upper) of a tile."""
        tx, ty = self.tile_coords(tile_id)
        x0 = tx * self.tile_size
        y0 = ty * self.tile_size
        return x0, y0, min(x0 + self.tile_size, self.width), min(y0 + self.tile_size, self.height)

    def tile_centers(self) -> np.ndarray:
        """Pixel-space centres of all tiles, ``(num_tiles, 2)``."""
        ids = np.arange(self.num_tiles)
        txs = ids % self.tiles_x
        tys = ids // self.tiles_x
        cx = np.minimum(txs * self.tile_size + self.tile_size / 2.0, self.width - 0.5)
        cy = np.minimum(tys * self.tile_size + self.tile_size / 2.0, self.height - 0.5)
        return np.stack([cx, cy], axis=1)


@functools.lru_cache(maxsize=16)
def pixel_tiles(grid: TileGrid) -> np.ndarray:
    """Tile id of every pixel, ``(H, W)`` (cached per grid, read-only)."""
    ts = grid.tile_size
    ys = np.arange(grid.height, dtype=np.int64) // ts
    xs = np.arange(grid.width, dtype=np.int64) // ts
    tiles = ys[:, None] * grid.tiles_x + xs[None, :]
    tiles.setflags(write=False)
    return tiles


@functools.lru_cache(maxsize=16)
def tile_center_pixels(grid: TileGrid) -> np.ndarray:
    """Flat index of the pixel under each tile centre, ``(T,)`` (cached per
    grid, read-only)."""
    centers = grid.tile_centers()
    cx = np.clip(centers[:, 0].astype(np.int64), 0, grid.width - 1)
    cy = np.clip(centers[:, 1].astype(np.int64), 0, grid.height - 1)
    index = cy * grid.width + cx
    index.setflags(write=False)
    return index


@dataclasses.dataclass
class TileAssignment:
    """Flat (tile, splat) intersection pairs, grouped by tile.

    ``pair_tiles`` / ``pair_splats`` are parallel arrays sorted by tile id;
    ``tile_offsets`` is a CSR-style index such that the splats of tile ``t``
    are ``pair_splats[tile_offsets[t]:tile_offsets[t + 1]]`` (indices into the
    :class:`ProjectedGaussians` arrays, *not* model point ids).
    """

    grid: TileGrid
    pair_tiles: np.ndarray
    pair_splats: np.ndarray
    tile_offsets: np.ndarray

    @property
    def num_intersections(self) -> int:
        return int(self.pair_tiles.shape[0])

    def splats_in_tile(self, tile_id: int) -> np.ndarray:
        lo, hi = self.tile_offsets[tile_id], self.tile_offsets[tile_id + 1]
        return self.pair_splats[lo:hi]

    def intersections_per_tile(self) -> np.ndarray:
        """Number of tile–ellipse intersections of every tile, ``(T,)``."""
        return np.diff(self.tile_offsets)

    def tiles_per_splat(self, num_splats: int) -> np.ndarray:
        """How many tiles each splat intersects (the paper's U_i / Comp_i)."""
        return np.bincount(self.pair_splats, minlength=num_splats)


def assign_tiles(projected: ProjectedGaussians, grid: TileGrid) -> TileAssignment:
    """Compute tile–ellipse intersections from conservative splat bboxes."""
    m = projected.num_visible
    if m == 0:
        return TileAssignment(
            grid=grid,
            pair_tiles=np.empty(0, dtype=np.int64),
            pair_splats=np.empty(0, dtype=np.int64),
            tile_offsets=np.zeros(grid.num_tiles + 1, dtype=np.int64),
        )

    ts = grid.tile_size
    x = projected.means2d[:, 0]
    y = projected.means2d[:, 1]
    r = projected.radii

    tx_min = np.clip(np.floor((x - r) / ts), 0, grid.tiles_x - 1).astype(np.int64)
    tx_max = np.clip(np.floor((x + r) / ts), 0, grid.tiles_x - 1).astype(np.int64)
    ty_min = np.clip(np.floor((y - r) / ts), 0, grid.tiles_y - 1).astype(np.int64)
    ty_max = np.clip(np.floor((y + r) / ts), 0, grid.tiles_y - 1).astype(np.int64)

    spans_x = tx_max - tx_min + 1
    spans_y = ty_max - ty_min + 1
    counts = spans_x * spans_y
    total = int(counts.sum())

    splat_ids = np.repeat(np.arange(m, dtype=np.int64), counts)

    # Enumerate each splat's (tx, ty) tile rectangle with a flat ramp.
    offsets = np.concatenate([[0], np.cumsum(counts)])
    ramp = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], counts)
    local_x = ramp % np.repeat(spans_x, counts)
    local_y = ramp // np.repeat(spans_x, counts)
    tile_x = np.repeat(tx_min, counts) + local_x
    tile_y = np.repeat(ty_min, counts) + local_y
    tile_ids = tile_y * grid.tiles_x + tile_x

    order = stable_key_order(tile_ids, grid.num_tiles)
    pair_tiles = tile_ids[order]
    pair_splats = splat_ids[order]

    per_tile = np.bincount(pair_tiles, minlength=grid.num_tiles)
    tile_offsets = np.concatenate([[0], np.cumsum(per_tile)]).astype(np.int64)

    return TileAssignment(
        grid=grid,
        pair_tiles=pair_tiles,
        pair_splats=pair_splats,
        tile_offsets=tile_offsets,
    )
