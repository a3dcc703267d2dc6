"""Pluggable rasterization backends for the render engine.

Two engines ship with the repo, listed in a capability-flagged registry
(:func:`backend_registry` / ``repro.cli --backend list``):

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

import dataclasses
import os
from typing import Callable

from .base import FoveatedFrame, RasterBackend
from .kernels import (
    Workspace,
    segment_transmittance_exclusive,
    segmented_cumsum_exclusive,
)
from .packed import PackedBackend, render_threads, set_render_threads, span_chunk_budget
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


@dataclasses.dataclass(frozen=True)
class BackendInfo:
    """One registry entry: factory plus the capabilities dispatchers and
    tooling introspect without instantiating the backend.

    ``has_forward_batch`` / ``has_foveated_batch`` are tri-state:
    ``True``/``False`` assert the batched entry point's presence/absence,
    ``None`` (the default for backends registered without capability flags)
    means "probe the instance" — so a pre-existing
    ``register_backend(name, factory)`` call whose engine implements the
    method keeps its batched dispatch.
    """

    name: str
    factory: Callable[[], RasterBackend]
    description: str = ""
    has_forward_batch: bool | None = None
    has_foveated_batch: bool | None = None


_REGISTRY: dict[str, BackendInfo] = {}
_instances: dict[str, RasterBackend] = {}
_default_override: str | None = None


def register_backend(
    name: str,
    factory: Callable[[], RasterBackend],
    *,
    description: str = "",
    has_forward_batch: bool | None = None,
    has_foveated_batch: bool | None = None,
) -> None:
    """Register a custom backend under ``name`` (overwrites existing)."""
    _REGISTRY[name] = BackendInfo(
        name=name,
        factory=factory,
        description=description,
        has_forward_batch=has_forward_batch,
        has_foveated_batch=has_foveated_batch,
    )
    _instances.pop(name, None)


register_backend(
    "packed",
    PackedBackend,
    description="band-parallel vectorized span engine (numpy kernels)",
    has_forward_batch=True,
    has_foveated_batch=True,
)
register_backend(
    "reference",
    ReferenceBackend,
    description="per-tile Python loop, the regression oracle (batch = per-view loop)",
    has_forward_batch=True,
    has_foveated_batch=True,
)


def available_backends() -> tuple[str, ...]:
    """Names of all registered backends."""
    return tuple(sorted(_REGISTRY))


def backend_info(name: str) -> BackendInfo:
    """The registry entry for ``name`` (raises on unknown backends)."""
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown rasterization backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        )
    return _REGISTRY[name]


def backend_registry() -> tuple[BackendInfo, ...]:
    """All registry entries, sorted by name."""
    return tuple(_REGISTRY[name] for name in available_backends())


def _engine_info(engine: RasterBackend) -> BackendInfo | None:
    """The registry entry backing an engine instance, if any.

    Instances created through :func:`get_backend` are matched to their
    registration key by identity, so an engine registered under a name
    different from its ``.name`` attribute still consults its own entry.
    """
    for reg_name, instance in _instances.items():
        if instance is engine:
            return _REGISTRY.get(reg_name)
    return _REGISTRY.get(getattr(engine, "name", None))


def _supports_batch_method(engine: RasterBackend, flag: bool | None, method: str) -> bool:
    """Capability-flag resolution shared by the batched dispatchers.

    An explicit flag answers directly (``True`` still requires the instance
    to actually expose the method, so a mis-flagged backend cannot crash a
    dispatcher); a ``None`` flag — flagless registrations and unregistered
    instances — probes the instance for the method, preserving the PR 2
    dispatcher semantics for custom backends.
    """
    if flag is not None:
        return flag and hasattr(engine, method)
    return getattr(engine, method, None) is not None


def supports_forward_batch(engine: RasterBackend) -> bool:
    """Whether ``engine`` implements the batched standard-forward entry."""
    info = _engine_info(engine)
    return _supports_batch_method(
        engine, None if info is None else info.has_forward_batch, "forward_batch"
    )


def supports_foveated_batch(engine: RasterBackend) -> bool:
    """Whether ``engine`` implements the batched foveated entry point.

    Consulted by :func:`repro.foveation.render_foveated_batch`: engines
    without the method (or flagged ``has_foveated_batch=False``) are looped
    over :meth:`RasterBackend.foveated_frame` per frame by the dispatcher.
    """
    info = _engine_info(engine)
    return _supports_batch_method(
        engine,
        None if info is None else info.has_foveated_batch,
        "foveated_frame_batch",
    )


def describe_backends() -> str:
    """Human-readable registry table (what ``--backend list`` prints)."""
    lines = [
        f"{'backend':<12} {'batch':<5} {'fov-b':<5} description",
    ]
    default = resolve_backend_name(None)

    def flag(value: bool | None) -> str:
        return "auto" if value is None else "yes" if value else "no"

    for info in backend_registry():
        marker = "*" if info.name == default else " "
        lines.append(
            f"{info.name:<11}{marker} "
            f"{flag(info.has_forward_batch):<5} {flag(info.has_foveated_batch):<5} "
            f"{info.description}"
        )
    lines.append("")
    lines.append(f"(* = current default; select with --backend / ${ENV_VAR})")
    return "\n".join(lines)


def set_default_backend(name: str | None) -> None:
    """Override the process-wide default backend (``None`` resets)."""
    global _default_override
    if name is not None and name not in _REGISTRY:
        raise ValueError(
            f"unknown rasterization backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        )
    _default_override = name


def resolve_backend_name(name: str | None = None) -> str:
    """Apply the selection precedence, returning a backend name."""
    return name or _default_override or os.environ.get(ENV_VAR) or DEFAULT_BACKEND


def get_backend(backend: str | RasterBackend | None = None) -> RasterBackend:
    """Resolve a backend name (or pass an instance through)."""
    if backend is not None and not isinstance(backend, str):
        return backend
    name = resolve_backend_name(backend)
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown rasterization backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        )
    if name not in _instances:
        _instances[name] = _REGISTRY[name].factory()
    return _instances[name]


__all__ = [
    "BackendInfo",
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
    "Workspace",
    "available_backends",
    "backend_info",
    "backend_registry",
    "build_row_spans",
    "build_segments",
    "concat_spans",
    "describe_backends",
    "get_backend",
    "register_backend",
    "resolve_backend_name",
    "segment_transmittance_exclusive",
    "segmented_cumsum_exclusive",
    "render_threads",
    "set_default_backend",
    "set_render_threads",
    "span_chunk_budget",
    "supports_forward_batch",
    "supports_foveated_batch",
    "tile_lane_geometry",
]
