"""Reference rasterization backend: the original per-tile Python loops.

Kept verbatim (modulo the vectorized per-pixel-sort compositing) as the
regression oracle for the packed engine — every other backend must match it
to within 1e-10 on images, statistics, and gradients.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..projection import ALPHA_EPS, ProjectedGaussians
from ..rasterizer import (
    ALPHA_CLAMP,
    TRANSMITTANCE_EPS,
    RasterGradients,
    _per_pixel_reorder,
    composite,
    composite_per_pixel,
    splat_alphas,
    tile_pixel_centers,
)
from ..tiling import TileAssignment
from .base import FoveatedFrame


def _tile_blend_mask(
    maps: Any, primary: int, second: int, bounds: tuple[int, int, int, int]
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Pixels of a tile that blend two levels.

    Returns ``(mix mask (h, w), weight toward the outer level, lo, hi)``.
    """
    x0, y0, x1, y1 = bounds
    lo, hi = (primary, second) if second > primary else (second, primary)
    band = maps.band_level[y0:y1, x0:x1]
    mix = (band == lo) & maps.needs_blend[y0:y1, x0:x1]
    weight = maps.weight_next[y0:y1, x0:x1]
    return mix, weight, lo, hi


def _composite_masked(
    base_exp: np.ndarray,
    opacities: np.ndarray,
    splat_mask: np.ndarray,
    colors: np.ndarray,
    background: np.ndarray,
    pixel_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Composite one quality level, optionally over a pixel subset."""
    exp_term = base_exp if pixel_mask is None else base_exp[:, pixel_mask]
    alphas = opacities[:, None] * exp_term
    alphas = np.where(alphas < ALPHA_EPS, 0.0, np.minimum(alphas, ALPHA_CLAMP))
    alphas = alphas * splat_mask[:, None]
    pixel_colors, _, _ = composite(alphas, colors, background)
    return pixel_colors


class ReferenceBackend:
    """Per-tile loop engine (the seed implementation)."""

    name = "reference"

    def forward(
        self,
        projected: ProjectedGaussians,
        assignment: TileAssignment,
        num_points: int,
        background: np.ndarray,
        collect_stats: bool,
        per_pixel_sort: bool,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        grid = assignment.grid
        image = np.empty((grid.height, grid.width, 3), dtype=np.float64)
        dominated = np.zeros(num_points, dtype=np.int64) if collect_stats else None

        for tile_id in range(grid.num_tiles):
            splat_idx = assignment.splats_in_tile(tile_id)
            x0, y0, x1, y1 = grid.tile_pixel_bounds(tile_id)
            pixels = tile_pixel_centers(grid, tile_id)

            alphas, _ = splat_alphas(projected, splat_idx, pixels)
            order = None
            if per_pixel_sort and splat_idx.size:
                alphas, order = _per_pixel_reorder(projected, splat_idx, pixels, alphas)

            colors = projected.colors[splat_idx]
            if order is not None:
                # Colours must follow the per-pixel permutation; composite
                # every pixel column with its own colour ordering, then
                # scatter the weights back to the original splat rows.
                pixel_colors, weights_sorted, _ = composite_per_pixel(
                    alphas, colors[order], background
                )
                weights = np.zeros_like(weights_sorted)
                np.put_along_axis(weights, order, weights_sorted, axis=0)
            else:
                pixel_colors, weights, _ = composite(alphas, colors, background)

            image[y0:y1, x0:x1] = pixel_colors.reshape(y1 - y0, x1 - x0, 3)

            if collect_stats and splat_idx.size:
                winners = np.argmax(weights, axis=0)
                has_any = weights.max(axis=0) > 0.0
                winner_points = projected.point_ids[splat_idx[winners[has_any]]]
                np.add.at(dominated, winner_points, 1)

        return image, dominated

    def forward_batch(
        self,
        views: list[tuple[ProjectedGaussians, TileAssignment]],
        num_points: int,
        background: np.ndarray,
        collect_stats: bool,
        per_pixel_sort: bool,
    ) -> list[tuple[np.ndarray, np.ndarray | None]]:
        """A loop over :meth:`forward` (the oracle has no shared work)."""
        return [
            self.forward(
                projected, assignment, num_points, background, collect_stats,
                per_pixel_sort,
            )
            for projected, assignment in views
        ]

    def backward(
        self,
        projected: ProjectedGaussians,
        assignment: TileAssignment,
        num_points: int,
        grad_image: np.ndarray,
        background: np.ndarray,
    ) -> RasterGradients:
        grid = assignment.grid
        grad_color = np.zeros((num_points, 3))
        grad_opacity = np.zeros(num_points)
        grad_log_scale = np.zeros(num_points)

        for tile_id in range(grid.num_tiles):
            splat_idx = assignment.splats_in_tile(tile_id)
            if splat_idx.size == 0:
                continue
            x0, y0, x1, y1 = grid.tile_pixel_bounds(tile_id)
            pixels = tile_pixel_centers(grid, tile_id)
            g = grad_image[y0:y1, x0:x1].reshape(-1, 3)  # (P, 3)

            alphas, quad = splat_alphas(projected, splat_idx, pixels)
            one_minus = 1.0 - alphas
            trans_incl = np.cumprod(one_minus, axis=0)
            trans_excl = np.vstack([np.ones((1, pixels.shape[0])), trans_incl[:-1]])
            active = trans_excl >= TRANSMITTANCE_EPS
            weights = trans_excl * alphas * active
            final_trans = np.where(active[-1], trans_incl[-1], 0.0)

            colors = projected.colors[splat_idx]  # (S, 3)
            gc = colors @ g.T  # (S, P): g·c_i per pixel
            contrib = weights * gc  # (S, P): T_i α_i (g·c_i)

            # Suffix sums S_i = Σ_{j>i} contrib_j + T_N (g·bg).
            bg_term = final_trans * (g @ background)  # (P,)
            suffix = np.cumsum(contrib[::-1], axis=0)[::-1]
            suffix_after = np.vstack([suffix[1:], np.zeros((1, pixels.shape[0]))])
            suffix_after = suffix_after + bg_term[None, :]

            grad_alpha = trans_excl * gc - suffix_after / np.maximum(one_minus, 1e-6)
            grad_alpha = grad_alpha * active * (alphas > 0.0) * (alphas < ALPHA_CLAMP)

            # dα/do = e^{-q/2}; dα/du = α·q (since dq/du = -2q, dα/dq = -α/2).
            exp_term = np.exp(-0.5 * quad)
            pids = projected.point_ids[splat_idx]
            np.add.at(grad_color, pids, weights @ g)
            np.add.at(grad_opacity, pids, (grad_alpha * exp_term).sum(axis=1))
            np.add.at(grad_log_scale, pids, (grad_alpha * alphas * quad).sum(axis=1))

        return RasterGradients(
            color=grad_color, opacity=grad_opacity, log_scale=grad_log_scale
        )

    def foveated_frame(
        self,
        projected: ProjectedGaussians,
        assignment: TileAssignment,
        maps: Any,
        bounds: np.ndarray,
        level_opacity: dict[int, np.ndarray],
        level_delta: dict[int, np.ndarray],
        background: np.ndarray,
    ) -> FoveatedFrame:
        grid = assignment.grid
        image = np.empty((grid.height, grid.width, 3))
        sort_ints = np.zeros(grid.num_tiles, dtype=np.int64)
        raster_ints = np.zeros(grid.num_tiles, dtype=np.float64)
        blend_pixels = 0
        tile_pixels = grid.tile_size**2

        for tile_id in range(grid.num_tiles):
            splat_idx = assignment.splats_in_tile(tile_id)
            x0, y0, x1, y1 = grid.tile_pixel_bounds(tile_id)
            pixels = tile_pixel_centers(grid, tile_id)
            t = int(maps.tile_level[tile_id])
            second = int(maps.tile_second_level[tile_id])

            if splat_idx.size == 0:
                image[y0:y1, x0:x1] = background
                continue

            pids = projected.point_ids[splat_idx]
            # Filtering stage: points with quality bound below a level never
            # reach sorting/rasterization for that level.
            mask_primary = bounds[pids] >= t
            sort_level = min(t, second) if second else t
            sort_ints[tile_id] = int((bounds[pids] >= sort_level).sum())
            raster_ints[tile_id] = float(mask_primary.sum())

            _, quad = splat_alphas(projected, splat_idx, pixels)
            base_exp = np.exp(-0.5 * quad)
            shared_colors = projected.colors[splat_idx]

            primary_img = _composite_masked(
                base_exp,
                level_opacity[t][pids],
                mask_primary,
                shared_colors + level_delta[t][pids],
                background,
            ).reshape(y1 - y0, x1 - x0, 3)

            out = primary_img
            if second:
                mix, weight, lo, hi = _tile_blend_mask(maps, t, second, (x0, y0, x1, y1))
                if mix.any():
                    mask_second = bounds[pids] >= second
                    second_img = _composite_masked(
                        base_exp,
                        level_opacity[second][pids],
                        mask_second,
                        shared_colors + level_delta[second][pids],
                        background,
                        pixel_mask=mix.ravel(),
                    )
                    lo_img = primary_img[mix] if t == lo else second_img
                    hi_img = second_img if t == lo else primary_img[mix]
                    w = weight[mix][:, None]
                    out = primary_img.copy()
                    out[mix] = (1.0 - w) * lo_img + w * hi_img
                    blend_pixels += int(mix.sum())
                    # Second-level pass touches only the band pixels.
                    raster_ints[tile_id] += mask_second.sum() * mix.sum() / tile_pixels
            image[y0:y1, x0:x1] = out

        return FoveatedFrame(
            image=np.clip(image, 0.0, 1.0, out=image),
            sort_intersections_per_tile=sort_ints,
            raster_intersections_per_tile=raster_ints,
            blend_pixels=blend_pixels,
        )

    def foveated_frame_batch(
        self,
        views: list[tuple[ProjectedGaussians, TileAssignment]],
        maps_list: list[Any],
        bounds: np.ndarray,
        level_opacity: dict[int, np.ndarray],
        level_delta: dict[int, np.ndarray],
        background: np.ndarray,
    ) -> list[FoveatedFrame]:
        """A loop over :meth:`foveated_frame` (the oracle shares no work)."""
        return [
            self.foveated_frame(
                projected, assignment, maps, bounds, level_opacity, level_delta,
                background,
            )
            for (projected, assignment), maps in zip(views, maps_list)
        ]

    def multi_model_frame(
        self,
        views: list[tuple[ProjectedGaussians, TileAssignment]],
        maps: Any,
        background: np.ndarray,
    ) -> FoveatedFrame:
        grid = views[0][1].grid
        image = np.empty((grid.height, grid.width, 3))
        sort_ints = np.zeros(grid.num_tiles, dtype=np.int64)
        raster_ints = np.zeros(grid.num_tiles, dtype=np.float64)
        blend_pixels = 0
        tile_pixels = grid.tile_size**2

        for tile_id in range(grid.num_tiles):
            x0, y0, x1, y1 = grid.tile_pixel_bounds(tile_id)
            pixels = tile_pixel_centers(grid, tile_id)
            t = int(maps.tile_level[tile_id])
            second = int(maps.tile_second_level[tile_id])

            def _level_image(
                level: int, pixel_mask: np.ndarray | None
            ) -> tuple[np.ndarray, int]:
                projected, assignment = views[level - 1]
                splat_idx = assignment.splats_in_tile(tile_id)
                if splat_idx.size == 0:
                    n_px = pixels.shape[0] if pixel_mask is None else int(pixel_mask.sum())
                    return np.broadcast_to(background, (n_px, 3)).copy(), 0
                px = pixels if pixel_mask is None else pixels[pixel_mask]
                alphas, _ = splat_alphas(projected, splat_idx, px)
                colors, _, _ = composite(alphas, projected.colors[splat_idx], background)
                return colors, splat_idx.size

            primary_flat, n_primary = _level_image(t, None)
            sort_ints[tile_id] = n_primary
            raster_ints[tile_id] = float(n_primary)
            primary_img = primary_flat.reshape(y1 - y0, x1 - x0, 3)

            out = primary_img
            if second:
                mix, weight, lo, hi = _tile_blend_mask(maps, t, second, (x0, y0, x1, y1))
                if mix.any():
                    second_flat, n_second = _level_image(second, mix.ravel())
                    lo_img = primary_img[mix] if t == lo else second_flat
                    hi_img = second_flat if t == lo else primary_img[mix]
                    w = weight[mix][:, None]
                    out = primary_img.copy()
                    out[mix] = (1.0 - w) * lo_img + w * hi_img
                    blend_pixels += int(mix.sum())
                    raster_ints[tile_id] += n_second * mix.sum() / tile_pixels
            image[y0:y1, x0:x1] = out

        return FoveatedFrame(
            image=np.clip(image, 0.0, 1.0, out=image),
            sort_intersections_per_tile=sort_ints,
            raster_intersections_per_tile=raster_ints,
            blend_pixels=blend_pixels,
        )
