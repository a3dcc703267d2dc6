"""Pin the environment a run measures and record what it ran under.

``pin_environment`` must run before :mod:`repro` is imported: it drops
every ``REPRO_*`` override and disables the per-host tuning profile, so
the knobs resolve to the same built-in defaults on every host.
``environment_stamp`` then records each resolved knob with the place its
value came from, plus the host and toolchain.
"""

from __future__ import annotations

import os
import platform
import sys

PROFILE_ENV = "REPRO_TUNE_PROFILE"


def pin_environment() -> dict[str, str]:
    """Remove ``REPRO_*`` overrides and turn the tuning profile off.

    Returns the variables that were removed, for the record.
    """
    removed = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    for key in removed:
        del os.environ[key]
    os.environ[PROFILE_ENV] = "off"
    return removed


def _git_rev(root: str) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source(env: str | None, profile_key: str | None, explicit: bool = False) -> str:
    """Where a knob's value came from: arg > env > profile > default."""
    from repro.tune.profile import profile_value

    if explicit:
        return "arg"
    if env is not None and env in os.environ:
        return "env"
    if profile_key is not None and profile_value(profile_key) is not None:
        return "profile"
    return "default"


def resolved_knobs(serve_config=None, explicit: tuple[str, ...] = ()) -> dict:
    """Every knob that can change the measured program, with its source."""
    from repro.serve.regions import FRAME_CACHE_BYTES_ENV
    from repro.serve.scheduler import BATCH_BUDGET_ENV, BATCH_DEADLINE_ENV, TRACE_ENV
    from repro.serve.shm import SHM_ENV, resolved_shm_bytes
    from repro.serve.workers import VIEWCACHE_ENV, resolved_worker_viewcache
    from repro.splat.backends.packed import (
        SPAN_BUDGET_ENV,
        TILE_BUDGET_ENV,
        span_chunk_budget,
        tile_span_budget,
    )
    from repro.tune.model import span_cost_model

    tile_source = _source(TILE_BUDGET_ENV, "tile_spans")
    if tile_source == "default" and span_cost_model() is not None:
        tile_source = "llc-model"
    knobs = {
        "span_chunk_budget": (span_chunk_budget(), _source(SPAN_BUDGET_ENV, "span_budget")),
        "tile_span_budget": (tile_span_budget(), tile_source),
        "shm_bytes": (resolved_shm_bytes(), _source(SHM_ENV, "shm_bytes")),
        "worker_viewcache": (
            resolved_worker_viewcache(),
            _source(VIEWCACHE_ENV, "worker_viewcache"),
        ),
    }
    if serve_config is not None:
        sources = {
            "batch_budget": _source(BATCH_BUDGET_ENV, "batch_budget", "batch_budget" in explicit),
            "batch_deadline_s": _source(
                BATCH_DEADLINE_ENV, "batch_deadline_s", "batch_deadline_s" in explicit
            ),
            "cache_max_bytes": _source(
                FRAME_CACHE_BYTES_ENV, "cache_max_bytes", "cache_max_bytes" in explicit
            ),
            "shm_bytes": _source(SHM_ENV, "shm_bytes", "shm_bytes" in explicit),
            "trace": _source(TRACE_ENV, None, "trace" in explicit),
        }
        for field in (
            "batch_budget",
            "batch_deadline_s",
            "cache_max_bytes",
            "exact_frames",
            "workers",
            "refresh_hz",
            "degrade_on_deadline",
            "shm_bytes",
            "trace",
        ):
            value = getattr(serve_config, field)
            source = sources.get(field, "arg" if field in explicit else "default")
            knobs[f"serve.{field}"] = (value, source)
        knobs["serve.prefetch"] = (
            None if serve_config.prefetch is None else str(serve_config.prefetch),
            "arg" if "prefetch" in explicit else "default",
        )
    return {name: {"value": value, "source": source} for name, (value, source) in knobs.items()}


def environment_stamp(root: str, removed_env: dict[str, str]) -> dict:
    """Host, toolchain and revision facts every result carries."""
    import numpy as np
    from repro.tune.profile import profile_source

    return {
        "git_rev": _git_rev(root),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "tune_profile": profile_source(),
        "removed_env": sorted(removed_env),
    }
