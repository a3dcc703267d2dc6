"""Pluggable rasterization backends for the render engine.

Two engines ship with the repo, in one fixed table
(:func:`available_backends` / ``repro.cli --backend list``); both implement
every entry point of :class:`RasterBackend`:

- ``packed`` (default): flattens all tile–splat intersections of a frame
  into contiguous, depth-sorted segment arrays and runs compositing, stats
  and the backward pass as vectorized segment operations on the numpy span
  kernels (:mod:`repro.splat.backends.kernels`), in tile-row band pieces
  spread over a thread pool.
- ``reference``: the original per-tile Python loop, kept as the regression
  oracle — ``packed`` must match it to within 1e-10.

Selection precedence (first match wins):

1. an explicit ``backend=`` argument / ``RenderConfig.backend``,
2. :func:`set_default_backend` (what ``--backend`` CLI flags call),
3. the ``REPRO_BACKEND`` environment variable,
4. the built-in default, ``packed``.
"""

from __future__ import annotations

import os
from typing import Callable

from .base import FoveatedFrame, RasterBackend
from .kernels import Workspace
from .packed import (
    PackedBackend,
    TileStore,
    render_threads,
    set_render_threads,
    span_chunk_budget,
)
from .reference import ReferenceBackend
from .segments import (
    QUAD_CUTOFF,
    PackedSegments,
    RowSpans,
    SegmentIndex,
    SpanBatch,
    TileLaneGeometry,
    build_row_spans,
    build_segments,
    concat_spans,
    tile_lane_geometry,
)

DEFAULT_BACKEND = "packed"
ENV_VAR = "REPRO_BACKEND"

# The two engines: name -> (factory, description).
_ENGINES: dict[str, tuple[Callable[[], RasterBackend], str]] = {
    "packed": (
        PackedBackend,
        "band-parallel vectorized span engine (numpy kernels)",
    ),
    "reference": (
        ReferenceBackend,
        "per-tile Python loop, the regression oracle (batch = per-view loop)",
    ),
}
_instances: dict[str, RasterBackend] = {}
_default_override: str | None = None


def available_backends() -> tuple[str, ...]:
    """Names of all backends."""
    return tuple(sorted(_ENGINES))


def _check_name(name: str) -> None:
    if name not in _ENGINES:
        raise ValueError(
            f"unknown rasterization backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        )


def describe_backends() -> str:
    """Human-readable backend table (what ``--backend list`` prints)."""
    lines = [f"{'backend':<12} description"]
    default = resolve_backend_name(None)
    for name in available_backends():
        marker = "*" if name == default else " "
        lines.append(f"{name:<11}{marker} {_ENGINES[name][1]}")
    lines.append("")
    lines.append(f"(* = current default; select with --backend / ${ENV_VAR})")
    return "\n".join(lines)


def set_default_backend(name: str | None) -> str | None:
    """Override the process-wide default backend (``None`` resets).

    Returns the override it replaced, so a caller can restore it.
    """
    global _default_override
    if name is not None:
        _check_name(name)
    previous, _default_override = _default_override, name
    return previous


def resolve_backend_name(name: str | None = None) -> str:
    """Apply the selection precedence, returning a backend name."""
    return name or _default_override or os.environ.get(ENV_VAR) or DEFAULT_BACKEND


def get_backend(backend: str | RasterBackend | None = None) -> RasterBackend:
    """Resolve a backend name (or pass an instance through)."""
    if backend is not None and not isinstance(backend, str):
        return backend
    name = resolve_backend_name(backend)
    _check_name(name)
    if name not in _instances:
        _instances[name] = _ENGINES[name][0]()
    return _instances[name]


__all__ = [
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "FoveatedFrame",
    "PackedBackend",
    "PackedSegments",
    "QUAD_CUTOFF",
    "RasterBackend",
    "ReferenceBackend",
    "RowSpans",
    "SegmentIndex",
    "SpanBatch",
    "TileLaneGeometry",
    "TileStore",
    "Workspace",
    "available_backends",
    "build_row_spans",
    "build_segments",
    "concat_spans",
    "describe_backends",
    "get_backend",
    "resolve_backend_name",
    "render_threads",
    "set_default_backend",
    "set_render_threads",
    "span_chunk_budget",
    "tile_lane_geometry",
]
