"""Per-host autotuning of kernel, cache and scheduler knobs.

MILC-style (PAPERS.md, hep-lat/0112038): short seeded micro-benchmarks
(:mod:`.sweep`) measure each hot-path knob's throughput curve on the
machine at hand, a knee fit (:mod:`.fit`) picks the leanest setting
within tolerance of peak, and the selections persist as a JSON
:class:`~repro.tune.profile.HostProfile` keyed by host fingerprint
(:mod:`.profile`).  An analytic LLC cost model (:mod:`.model`) predicts
the span-budget knee from cache geometry, cross-checked against the
measured knee in ``benchmarks/bench_tune.py``.

Consumers resolve knobs with one precedence everywhere::

    explicit argument  >  environment variable  >  host profile  >  default

Run the tuner with ``python -m repro.cli tune`` (``--quick`` for the
CI-sized variant); point consumers at a specific profile with
``REPRO_TUNE_PROFILE=/path/to/profile.json`` (or ``off`` to disable).

The sweep module imports the render and serve stacks, so it is loaded
lazily — ``import repro.tune`` stays cheap for the hot-path consumers
that only need :func:`profile_value`.
"""

from __future__ import annotations

from .fit import DEFAULT_TOLERANCE, KneeFit, fit_knee
from .model import (
    CacheLevel,
    SpanCostModel,
    detect_cache_levels,
    llc_bytes,
    span_cost_model,
)
from .profile import (
    PROFILE_ENV,
    HostProfile,
    default_profile_path,
    host_fingerprint,
    invalidate_profile_cache,
    load_host_profile,
    profile_path,
    profile_source,
    profile_value,
    save_host_profile,
)

__all__ = [
    "DEFAULT_TOLERANCE",
    "CacheLevel",
    "HostProfile",
    "KneeFit",
    "PROFILE_ENV",
    "SweepResult",
    "TuneReport",
    "autotune",
    "default_profile_path",
    "detect_cache_levels",
    "fit_knee",
    "host_fingerprint",
    "invalidate_profile_cache",
    "llc_bytes",
    "load_host_profile",
    "profile_path",
    "profile_source",
    "profile_value",
    "save_host_profile",
    "span_cost_model",
    "sweep_batch_budget",
    "sweep_batch_deadline",
    "sweep_batch_size",
    "sweep_cache_bytes",
    "sweep_span_budget",
]

_SWEEP_NAMES = {
    "SweepResult",
    "TuneReport",
    "autotune",
    "sweep_batch_budget",
    "sweep_batch_deadline",
    "sweep_batch_size",
    "sweep_cache_bytes",
    "sweep_span_budget",
}


def __getattr__(name: str):
    if name in _SWEEP_NAMES:
        from . import sweep

        return getattr(sweep, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
