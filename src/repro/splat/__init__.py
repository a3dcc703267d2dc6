"""PBNR substrate: a pure-NumPy 3D Gaussian Splatting renderer.

Implements the full Projection → Sorting → Rasterization pipeline the paper
describes in Sec 2.1, including the statistics (tile–ellipse intersections,
dominated pixels) that MetaSapiens' pruning and accelerator build on.

Backend selection
-----------------
The pixel-producing stages run on a pluggable rasterization engine
(:mod:`repro.splat.backends`).  Two backends ship with the repo:

- ``packed`` (default): flattens every tile–splat intersection of a frame
  into contiguous, depth-sorted span arrays and executes compositing,
  statistics and the analytic backward pass as whole-frame vectorized
  segment operations — no Python loop over tiles.  Work scales with the
  rasterized splat area, so frames with realistic (small) splat footprints
  render several times faster than under the per-tile loop.
- ``reference``: the original per-tile loop, kept as the regression oracle;
  ``packed`` matches it to within 1e-10 on images, statistics and
  gradients (see ``tests/test_backends.py``).

Both implement the whole batch-only protocol, and a lone frame is a batch
of one (``rasterize`` calls ``rasterize_batch``), so a frame's pixels do
not depend on how it was batched.

Pick a backend per call (``rasterize(..., backend="reference")``), per
configuration (``RenderConfig(backend=...)`` — also honoured by the
foveated renderer), per process (``repro.splat.backends.set_default_backend``
or the ``--backend`` CLI flag), or per environment (``REPRO_BACKEND``).
"""

from .cachekey import (
    camera_fingerprint,
    content_fingerprint,
    model_fingerprint,
    prepare_config_fingerprint,
    render_config_fingerprint,
)
from .backends import (
    available_backends,
    describe_backends,
    get_backend,
    set_default_backend,
)
from .camera import Camera
from .gaussians import GaussianModel, inverse_sigmoid, random_model, sigmoid
from .projection import ProjectedGaussians, project_gaussians
from .rasterizer import (
    RasterGradients,
    RenderStats,
    composite,
    composite_per_pixel,
    rasterize,
    rasterize_backward,
    rasterize_batch,
    splat_alphas,
)
from .renderer import (
    PreparedView,
    RenderConfig,
    RenderResult,
    ViewCache,
    prepare_view,
    render,
    render_batch,
)
from .sh import eval_sh, num_sh_coeffs, rgb_to_dc, sh_basis
from .sorting import sort_cost_ops, sort_tile_splats
from .tiling import DEFAULT_TILE_SIZE, TileAssignment, TileGrid, assign_tiles

__all__ = [
    "Camera",
    "GaussianModel",
    "PreparedView",
    "ProjectedGaussians",
    "RasterGradients",
    "RenderConfig",
    "RenderResult",
    "RenderStats",
    "TileAssignment",
    "TileGrid",
    "ViewCache",
    "DEFAULT_TILE_SIZE",
    "assign_tiles",
    "available_backends",
    "camera_fingerprint",
    "content_fingerprint",
    "model_fingerprint",
    "prepare_config_fingerprint",
    "render_config_fingerprint",
    "composite",
    "composite_per_pixel",
    "describe_backends",
    "eval_sh",
    "get_backend",
    "inverse_sigmoid",
    "num_sh_coeffs",
    "prepare_view",
    "project_gaussians",
    "random_model",
    "rasterize",
    "rasterize_backward",
    "rasterize_batch",
    "render",
    "render_batch",
    "rgb_to_dc",
    "set_default_backend",
    "sh_basis",
    "sigmoid",
    "sort_cost_ops",
    "sort_tile_splats",
    "splat_alphas",
]
