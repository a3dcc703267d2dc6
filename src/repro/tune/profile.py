"""Per-host knob profiles: hand-written JSON files the resolvers read.

A profile sets knob defaults for one machine.  Nothing in the repo writes
one; a user who wants different defaults on a host writes the file by
hand::

    {"host": "...", "knobs": {"span_budget": 4096, "shm_bytes": 0}}

Only the ``knobs`` table is read (the keys in ``_KNOBS``); ``host``,
``created``, ``source`` and ``meta`` are kept as labels.  The default path
is ``$XDG_CACHE_HOME/repro/tune-<host fingerprint>.json``.  The consumers
— :func:`repro.splat.backends.packed.span_chunk_budget` /
``tile_span_budget``, :class:`repro.serve.regions.FrameCache`,
:class:`repro.serve.scheduler.ServeConfig`, the shm arena and the worker
view cache — consult the profile at resolution time with one precedence
everywhere:

    explicit argument  >  environment variable  >  host profile  >  default

``REPRO_TUNE_PROFILE`` overrides the profile *path* (useful for CI and
tests); the values ``off`` / ``none`` / ``0`` disable profile consultation
entirely.  A corrupted or partially-invalid profile warns and degrades:
unreadable files resolve as "no profile", individually invalid knobs are
dropped while the valid ones still apply.  Loads are memoized on the
file's ``(mtime, size, inode)`` so per-request resolution never re-reads
or re-parses; :func:`invalidate_profile_cache` drops the memo.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import platform
import warnings
from typing import Any

from .model import llc_bytes

__all__ = [
    "PROFILE_ENV",
    "HostProfile",
    "default_profile_path",
    "host_fingerprint",
    "invalidate_profile_cache",
    "load_host_profile",
    "profile_path",
    "profile_source",
    "profile_value",
]

PROFILE_ENV = "REPRO_TUNE_PROFILE"
_DISABLED = {"off", "none", "0"}

# Knobs a profile may carry: name -> (type, inclusive minimum).
# Anything else in the file's "knobs" table is ignored (forward
# compatibility); values of the wrong type or below the minimum are
# dropped with a warning while the rest of the profile still applies.
_KNOBS: dict[str, tuple[type, float]] = {
    "span_budget": (int, 1),
    "tile_spans": (int, 1),
    "cache_max_bytes": (int, 1),
    "batch_budget": (int, 1),
    "batch_deadline_s": (float, 0.0),
    # Serve worker-pool transport/worker knobs: shm_bytes = 0 is a
    # meaningful value ("pickle beats the arena on this host").
    "shm_bytes": (int, 0),
    "worker_viewcache": (int, 1),
}


@dataclasses.dataclass(frozen=True)
class HostProfile:
    """One host's knob values (``None`` = not set here)."""

    span_budget: int | None = None
    tile_spans: int | None = None
    cache_max_bytes: int | None = None
    batch_budget: int | None = None
    batch_deadline_s: float | None = None
    shm_bytes: int | None = None
    worker_viewcache: int | None = None
    host: str = ""
    created: str = ""
    source: str = ""
    meta: dict = dataclasses.field(default_factory=dict)

    def knobs(self) -> dict[str, int | float]:
        """The set knobs as a plain dict (``None`` entries omitted)."""
        out: dict[str, int | float] = {}
        for name in _KNOBS:
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


@functools.cache
def host_fingerprint() -> str:
    """A stable identifier of the tuning-relevant hardware.

    OS, ISA, core count and LLC size — the quantities the tuned knobs
    actually depend on — so a profile follows the *machine shape*, not the
    hostname: re-imaged machines keep their profile, and a home directory
    shared across different machines keeps one profile per shape.
    Memoized: the machine shape cannot change within a process, and the
    default profile path is resolved on every render call.
    """
    llc = llc_bytes() or 0
    return "-".join(
        [
            platform.system().lower() or "unknown",
            platform.machine().lower() or "unknown",
            f"c{os.cpu_count() or 1}",
            f"llc{llc >> 10}k",
        ]
    )


def default_profile_path() -> str:
    """``$XDG_CACHE_HOME/repro/tune-<host fingerprint>.json``."""
    cache_home = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(cache_home, "repro", f"tune-{host_fingerprint()}.json")


def profile_path() -> str | None:
    """The active profile path, or ``None`` when disabled.

    ``REPRO_TUNE_PROFILE`` overrides the default per-host path; setting it
    to ``off`` / ``none`` / ``0`` (or whitespace) disables the profile.
    """
    raw = os.environ.get(PROFILE_ENV)
    if raw is None:
        return default_profile_path()
    raw = raw.strip()
    if not raw or raw.lower() in _DISABLED:
        return None
    return raw


# path -> (stat signature, parsed profile or None)
_cache: dict[str, tuple[tuple, HostProfile | None]] = {}


def invalidate_profile_cache() -> None:
    """Drop memoized profile loads (tests, after external file edits)."""
    _cache.clear()


def _stat_signature(path: str) -> tuple | None:
    try:
        st = os.stat(path)
    except OSError:
        return None
    return (st.st_mtime_ns, st.st_size, st.st_ino)


def _coerce_knob(name: str, value: Any) -> int | float | None:
    kind, minimum = _KNOBS[name]
    # bool is an int subclass but never a meaningful knob value.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if kind is int and not isinstance(value, int):
        return None
    if value < minimum:
        return None
    return kind(value)


def _parse(path: str, data: Any) -> HostProfile:
    if not isinstance(data, dict):
        raise ValueError("profile root must be a JSON object")
    raw_knobs = data.get("knobs", {})
    if not isinstance(raw_knobs, dict):
        raise ValueError("profile 'knobs' must be a JSON object")
    fields: dict[str, Any] = {}
    for name in _KNOBS:
        if name not in raw_knobs or raw_knobs[name] is None:
            continue
        value = _coerce_knob(name, raw_knobs[name])
        if value is None:
            warnings.warn(
                f"dropping invalid knob {name}={raw_knobs[name]!r} from "
                f"tuning profile {path}",
                RuntimeWarning,
                stacklevel=4,
            )
            continue
        fields[name] = value
    meta = data.get("meta", {})
    return HostProfile(
        host=str(data.get("host", "")),
        created=str(data.get("created", "")),
        source=str(data.get("source", "")),
        meta=meta if isinstance(meta, dict) else {},
        **fields,
    )


def load_host_profile(path: str | None = None) -> HostProfile | None:
    """The persisted profile at ``path`` (default: the active path).

    Returns ``None`` when the profile is disabled, absent, or unreadable —
    unreadable/corrupted files warn once per file version (the memo caches
    the ``None``) and never raise: a damaged tuning cache must degrade to
    "untuned", not break the render path.
    """
    if path is None:
        path = profile_path()
    if path is None:
        return None
    sig = _stat_signature(path)
    if sig is None:
        return None
    cached = _cache.get(path)
    if cached is not None and cached[0] == sig:
        return cached[1]
    profile: HostProfile | None
    try:
        with open(path) as f:
            data = json.load(f)
        profile = _parse(path, data)
    except (OSError, ValueError) as exc:
        warnings.warn(
            f"ignoring unreadable tuning profile {path}: {exc}",
            RuntimeWarning,
            stacklevel=2,
        )
        profile = None
    _cache[path] = (sig, profile)
    return profile


def profile_value(name: str) -> int | float | None:
    """Knob ``name`` from the active profile, ``None`` when it is not set.

    This is the hook the consumers call in their resolution chains; it is
    cheap (one memoized stat) and never raises.
    """
    if name not in _KNOBS:
        raise KeyError(f"unknown tuning knob {name!r}; known: {sorted(_KNOBS)}")
    profile = load_host_profile()
    if profile is None:
        return None
    return getattr(profile, name)


def profile_source() -> str:
    """Where knob defaults come from right now (for bench-report stamps)."""
    path = profile_path()
    if path is None:
        return "off"
    if load_host_profile(path) is None:
        return "none"
    return path
