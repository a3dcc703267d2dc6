"""Rasterization stage: tile-based alpha compositing (Eqn 1 of the paper).

For every tile, the depth-sorted splats are composited front-to-back:

    p = Σ_i T_i α_i c_i,   T_i = Π_{j<i} (1 − α_j)

with early termination once transmittance drops below a threshold.

This module additionally produces the two per-point statistics the paper's
Computational Efficiency metric (Sec 3.2) is built on:

- ``dominated_pixels`` (Val_i): for every pixel, the splat with the highest
  numerical contribution ``T_i α_i`` dominates it; Val_i counts dominated
  pixels per point.
- tile usage (Comp_i) comes from the tiling stage
  (:meth:`TileAssignment.tiles_per_splat`).

It also implements the analytic backward pass used for re-training after
pruning: gradients of an image-space loss w.r.t. per-point colour, opacity,
and an isotropic log-scale offset (the exact knobs scale decay and selective
multi-versioning train).

The pixel-producing loops themselves live in pluggable engines under
:mod:`repro.splat.backends` — ``packed`` (whole-frame vectorized segment
operations, the default) and ``reference`` (the per-tile loop, kept as the
regression oracle).  :func:`rasterize_batch` and :func:`rasterize_backward`
are thin dispatchers (:func:`rasterize` is a batch of one); this module
keeps the shared compositing math both backends (and their tests) build on.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .projection import ALPHA_EPS, ProjectedGaussians
from .sorting import per_pixel_depths
from .tiling import TileAssignment, TileGrid

# Transmittance threshold for early termination (matches 3DGS).
TRANSMITTANCE_EPS = 1e-4
# Per-splat alpha is clamped below this to keep (1 - alpha) > 0.
ALPHA_CLAMP = 0.999


@dataclasses.dataclass
class RenderStats:
    """Aggregate statistics of one rendered frame.

    The tile counts are always filled; ``dominated_pixels`` (Val_i) only
    when the render was asked for it (``collect_stats=True``), since only
    pruning reads it.
    """

    intersections_per_tile: np.ndarray  # (T,)
    tiles_per_point: np.ndarray  # (N,) Comp_i (bincount over model points)
    dominated_pixels: np.ndarray | None  # (N,) Val_i; None unless asked for
    num_projected: int  # splats that survived culling
    num_points: int  # model size

    @property
    def total_intersections(self) -> int:
        return int(self.intersections_per_tile.sum())

    @property
    def mean_intersections_per_tile(self) -> float:
        if self.intersections_per_tile.size == 0:
            return 0.0
        return float(self.intersections_per_tile.mean())


def tile_pixel_centers(grid: TileGrid, tile_id: int) -> np.ndarray:
    """Pixel-centre coordinates of a tile, ``(P, 2)`` (row-major order)."""
    x0, y0, x1, y1 = grid.tile_pixel_bounds(tile_id)
    xs = np.arange(x0, x1) + 0.5
    ys = np.arange(y0, y1) + 0.5
    grid_x, grid_y = np.meshgrid(xs, ys)
    return np.stack([grid_x.ravel(), grid_y.ravel()], axis=1)


def splat_alphas(
    projected: ProjectedGaussians,
    splat_indices: np.ndarray,
    pixel_centers: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-(splat, pixel) alpha matrix ``(S, P)`` and the quadratic form.

    Alphas below ``ALPHA_EPS`` are zeroed (the rasterizer's intersect test)
    and clamped at ``ALPHA_CLAMP`` above.
    """
    means = projected.means2d[splat_indices]
    conics = projected.conics[splat_indices]
    opacities = projected.opacities[splat_indices]

    delta = pixel_centers[None, :, :] - means[:, None, :]  # (S, P, 2)
    quad = (
        conics[:, None, 0] * delta[:, :, 0] ** 2
        + 2.0 * conics[:, None, 1] * delta[:, :, 0] * delta[:, :, 1]
        + conics[:, None, 2] * delta[:, :, 1] ** 2
    )
    quad = np.maximum(quad, 0.0)
    alphas = opacities[:, None] * np.exp(-0.5 * quad)
    alphas = np.where(alphas < ALPHA_EPS, 0.0, np.minimum(alphas, ALPHA_CLAMP))
    return alphas, quad


def _transmittance_weights(alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Front-to-back weights ``T_i α_i`` (after early termination) and the
    per-pixel final transmittance of an ``(S, P)`` alpha matrix."""
    s, p = alphas.shape
    one_minus = 1.0 - alphas
    trans_incl = np.cumprod(one_minus, axis=0)
    trans_excl = np.vstack([np.ones((1, p)), trans_incl[:-1]])
    active = trans_excl >= TRANSMITTANCE_EPS
    weights = trans_excl * alphas * active
    # Early-terminated pixels keep transmittance below the threshold —
    # visually negligible; treat the leftover as zero contribution to the
    # background.
    final_trans = np.where(active[-1], trans_incl[-1], 0.0)
    return weights, final_trans


def composite(
    alphas: np.ndarray,
    colors: np.ndarray,
    background: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Front-to-back compositing of an ``(S, P)`` alpha matrix.

    Returns ``(pixel_colors (P, 3), weights (S, P), final_transmittance (P,))``
    where ``weights[i, p] = T_i α_i`` after early termination.
    """
    s, p = alphas.shape
    if s == 0:
        bg = np.broadcast_to(background, (p, 3)).copy()
        return bg, np.zeros((0, p)), np.ones(p)

    weights, final_trans = _transmittance_weights(alphas)
    pixel_colors = weights.T @ colors + final_trans[:, None] * background[None, :]
    return pixel_colors, weights, final_trans


def composite_per_pixel(
    alphas: np.ndarray,
    colors: np.ndarray,
    background: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Like :func:`composite`, but every pixel has its own colour ordering.

    ``colors`` is ``(S, P, 3)``: the colour composited at slot ``(i, p)``.
    Used by the per-pixel-sorted (StopThePop) path, where the alpha matrix is
    depth-ordered per pixel column and the colours follow each column's
    permutation.
    """
    s, p = alphas.shape
    if s == 0:
        bg = np.broadcast_to(background, (p, 3)).copy()
        return bg, np.zeros((0, p)), np.ones(p)

    weights, final_trans = _transmittance_weights(alphas)
    pixel_colors = (weights[:, :, None] * colors).sum(axis=0)
    pixel_colors += final_trans[:, None] * background[None, :]
    return pixel_colors, weights, final_trans


def _per_pixel_reorder(
    projected: ProjectedGaussians,
    splat_indices: np.ndarray,
    pixel_centers: np.ndarray,
    alphas: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """StopThePop variant: per-pixel depth order for the alpha matrix.

    Returns the reordered alphas and the per-pixel permutation ``(S, P)``.
    """
    depths = per_pixel_depths(projected, splat_indices, pixel_centers)
    order = np.argsort(depths, axis=0, kind="stable")
    return np.take_along_axis(alphas, order, axis=0), order


def rasterize(
    projected: ProjectedGaussians,
    assignment: TileAssignment,
    num_points: int,
    background: np.ndarray | None = None,
    collect_stats: bool = False,
    per_pixel_sort: bool = False,
    backend: str | None = None,
) -> tuple[np.ndarray, RenderStats]:
    """Rasterize all tiles into an ``(H, W, 3)`` image.

    ``assignment`` must already be depth-sorted (see
    :func:`repro.splat.sorting.sort_tile_splats`).  ``backend`` selects the
    rasterization engine (see :mod:`repro.splat.backends`); ``None`` uses
    the process default (``REPRO_BACKEND`` or ``packed``).
    ``collect_stats`` also computes Val_i (``stats.dominated_pixels``).
    A lone frame is a batch of one: this is :func:`rasterize_batch` on
    ``[(projected, assignment)]``.
    """
    return rasterize_batch(
        [(projected, assignment)], num_points, background, collect_stats,
        per_pixel_sort, backend,
    )[0]


def _frame_stats(
    projected: ProjectedGaussians,
    assignment: TileAssignment,
    num_points: int,
    dominated: np.ndarray | None,
) -> RenderStats:
    """Assemble the per-frame statistics every backend shares."""
    tiles_per_splat = assignment.tiles_per_splat(projected.num_visible)
    tiles_per_point = np.zeros(num_points, dtype=np.int64)
    np.add.at(tiles_per_point, projected.point_ids, tiles_per_splat)
    return RenderStats(
        intersections_per_tile=assignment.intersections_per_tile(),
        tiles_per_point=tiles_per_point,
        dominated_pixels=dominated,
        num_projected=projected.num_visible,
        num_points=num_points,
    )


def rasterize_batch(
    views: list[tuple[ProjectedGaussians, TileAssignment]],
    num_points: int,
    background: np.ndarray | None = None,
    collect_stats: bool = False,
    per_pixel_sort: bool = False,
    backend: str | None = None,
) -> list[tuple[np.ndarray, RenderStats]]:
    """Rasterize several (depth-sorted) views of one model, one pass.

    The one entry point of the render engine's standard forward: the
    backend's ``forward_batch`` takes the whole batch (the ``packed``
    default streams every view's span list through band-piece scans,
    ``reference`` loops over its per-view body).  Returns one
    ``(image, stats)`` tuple per view; each is bitwise what a batch of that
    view alone gives (:func:`rasterize`).
    """
    from .backends import get_backend

    if background is None:
        background = np.zeros(3)
    background = np.asarray(background, dtype=np.float64)

    raw = get_backend(backend).forward_batch(
        views, num_points, background, collect_stats, per_pixel_sort
    )
    return [
        (
            np.clip(image, 0.0, 1.0),
            _frame_stats(projected, assignment, num_points, dominated),
        )
        for (projected, assignment), (image, dominated) in zip(views, raw)
    ]


@dataclasses.dataclass
class RasterGradients:
    """Gradients of an image loss w.r.t. per-point render parameters.

    All arrays are indexed by model point id (length N).  ``log_scale`` is
    the gradient w.r.t. an isotropic log-scale offset ``u`` applied to the
    point's 3D covariance (``Σ → e^{2u} Σ``), the knob scale decay trains.
    """

    color: np.ndarray  # (N, 3)
    opacity: np.ndarray  # (N,)
    log_scale: np.ndarray  # (N,)


def rasterize_backward(
    projected: ProjectedGaussians,
    assignment: TileAssignment,
    num_points: int,
    grad_image: np.ndarray,
    background: np.ndarray | None = None,
    backend: str | None = None,
) -> RasterGradients:
    """Backward pass: propagate ``dL/dimage`` to per-point parameters.

    Derivation (per pixel, sorted splats ``i``):

        p = Σ_i T_i α_i c_i + T_N · bg
        dL/dc_i = T_i α_i · g
        dL/dα_i = T_i (g·c_i) − S_i / (1 − α_i)

    where ``g = dL/dp`` and ``S_i = Σ_{j>i} T_j α_j (g·c_j) + T_N (g·bg)`` is
    the suffix contribution, computed with a reverse cumulative sum.  The
    alpha then chains into opacity (``α = o e^{−q/2}``) and into the isotropic
    log-scale offset (``dq/du = −2q``, ignoring the constant screen dilation).
    """
    from .backends import get_backend

    if background is None:
        background = np.zeros(3)
    background = np.asarray(background, dtype=np.float64)

    engine = get_backend(backend)
    return engine.backward(projected, assignment, num_points, grad_image, background)
