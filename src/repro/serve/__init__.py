"""The async foveated serve subsystem (the heavy-traffic north star's tier).

The first layer above the render dispatchers that treats frames as
*requests* from many concurrent clients:

- :mod:`repro.serve.regions` — deterministic gaze-region quantization on
  an eccentricity-aware polar grid, plus :class:`FrameCache`, the
  byte-budgeted LRU of rendered frames keyed on (model fingerprint,
  camera, gaze region, config);
- :mod:`repro.serve.scheduler` — :class:`ServeLoop`, the asyncio
  micro-batching scheduler coalescing pending requests into
  :func:`repro.foveation.render_foveated_batch` calls, with per-request
  deadlines (EDF batching, drop-or-degrade under pressure), a
  two-class queue where real misses preempt speculative prefetches, and
  one executor seam that renders each pose group inline or on the
  worker pool;
- :mod:`repro.serve.predictor` — :class:`GazePredictor`, the
  constant-velocity / saccade-aware scanpath extrapolator behind
  speculative gaze-region prefetch;
- :mod:`repro.serve.workers` — :class:`RenderWorkerPool`, the process
  pool that renders pose groups off the event loop (``workers > 0``):
  stateful workers hold the model and a private view cache, only
  ``(camera, gazes)`` and frames cross the pipe, frames stay
  bit-identical to inline rendering;
- :mod:`repro.serve.shm` — :class:`SlabArena` and :class:`FrameHandle`,
  the zero-copy shared-memory frame transport under the worker pool:
  workers write frame planes into leased arena slots and ship tiny
  handles; the parent maps read-only views and leases free by reference
  counting (``shm_bytes`` knob, automatic pickle fallback);
- :mod:`repro.serve.workload` / :mod:`repro.serve.replay` — seeded
  multi-client trace generation (Zipf pose popularity × gaze scanpaths)
  and the deterministic replay harness that measures throughput, latency
  percentiles, hit rate and batch sizes against the naive per-request
  baseline.

See ``src/repro/serve/README.md`` for the request lifecycle and the cache
key contract; ``repro.cli serve-sim`` and
``benchmarks/bench_serve_throughput.py`` drive the whole tier end to end.
"""

from .regions import (
    FrameCache,
    GazeGridSpec,
    GazeRegionKey,
    foveated_model_fingerprint,
    gaze_polar,
    polar_gaze,
    quantize_gaze,
    region_bounds,
    region_center,
    resolved_cache_bytes,
    ring_area_deg2,
    ring_edges,
    ring_width_deg,
)
from .predictor import GazePredictor, PredictorConfig
from .replay import (
    ReplayReport,
    frames_checksum,
    replay_naive,
    replay_trace,
)
from .scheduler import (
    FrameRequest,
    FrameResponse,
    ServeConfig,
    ServeLoop,
    resolved_batch_budget,
    resolved_batch_deadline,
)
from .shm import (
    ArenaExhausted,
    FrameHandle,
    ShmTransportError,
    SlabArena,
    active_segments,
    resolved_shm_bytes,
    shm_available,
)
from .workers import (
    BrokenProcessPool,
    RenderWorkerPool,
    StaleWorkerModelError,
    default_workers,
    resolved_worker_viewcache,
)
from .workload import (
    ServeTrace,
    TraceRequest,
    WorkloadSpec,
    generate_serve_trace,
    pose_request_counts,
    zipf_weights,
)

__all__ = [
    "ArenaExhausted",
    "BrokenProcessPool",
    "FrameCache",
    "FrameHandle",
    "FrameRequest",
    "FrameResponse",
    "GazeGridSpec",
    "GazePredictor",
    "GazeRegionKey",
    "PredictorConfig",
    "RenderWorkerPool",
    "ReplayReport",
    "ServeConfig",
    "ServeLoop",
    "ServeTrace",
    "ShmTransportError",
    "SlabArena",
    "StaleWorkerModelError",
    "TraceRequest",
    "WorkloadSpec",
    "active_segments",
    "default_workers",
    "foveated_model_fingerprint",
    "frames_checksum",
    "gaze_polar",
    "generate_serve_trace",
    "polar_gaze",
    "pose_request_counts",
    "quantize_gaze",
    "region_bounds",
    "region_center",
    "replay_naive",
    "replay_trace",
    "resolved_batch_budget",
    "resolved_batch_deadline",
    "resolved_cache_bytes",
    "resolved_shm_bytes",
    "resolved_worker_viewcache",
    "shm_available",
    "ring_area_deg2",
    "ring_edges",
    "ring_width_deg",
    "zipf_weights",
]
