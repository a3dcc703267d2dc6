"""Per-host knob profiles: hand-written JSON files the knob table reads.

A profile sets knob defaults for one machine.  Nothing in the repo writes
one; a user who wants different defaults on a host writes the file by
hand::

    {"host": "...", "knobs": {"span_budget": 4096, "shm_bytes": 0}}

Only the ``knobs`` table is read; its keys, types and minimums are the
rows of :data:`repro.envknobs.KNOBS` that have a profile step.
``host``, ``created``, ``source`` and ``meta`` are kept as labels.  The
default path is ``$XDG_CACHE_HOME/repro/tune-<host fingerprint>.json``.
:meth:`repro.envknobs.Knob.resolve` consults the profile at resolution
time, below an explicit argument and the environment and above the
built-in default.

``REPRO_TUNE_PROFILE`` overrides the profile *path* (useful for CI and
tests); the values ``off`` / ``none`` / ``0`` disable profile consultation
entirely.  A corrupted or partially-invalid profile warns and degrades:
unreadable files resolve as "no profile", individually invalid knobs are
dropped while the valid ones still apply.  Loads are memoized on the
file's ``(mtime, size, inode)`` so per-request resolution never re-reads
or re-parses; :func:`invalidate_profile_cache` drops the memo.  The
default path is memoized on ``(XDG_CACHE_HOME, HOME)``, so a render call
pays one ``os.stat`` of it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import platform
import warnings
from typing import Any

from ..envknobs import KNOBS
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

# Knobs a profile may carry: name -> (type, inclusive minimum), from the
# knob table.  Anything else in the file's "knobs" table is ignored
# (forward compatibility); values of the wrong type or below the minimum
# are dropped with a warning while the rest of the profile still applies.
_KNOBS: dict[str, tuple[type, float]] = {
    knob.name: (knob.parse, knob.minimum)
    for knob in KNOBS.values()
    if knob.profile
}


def _knobs(self) -> dict[str, int | float]:
    """The set knobs as a plain dict (``None`` entries omitted)."""
    values = {name: getattr(self, name) for name in _KNOBS}
    return {name: value for name, value in values.items() if value is not None}


# One field per profile knob (``None`` = not set here), plus the labels.
HostProfile = dataclasses.make_dataclass(
    "HostProfile",
    [(name, "int | float | None", None) for name in _KNOBS]
    + [
        ("host", str, ""),
        ("created", str, ""),
        ("source", str, ""),
        ("meta", dict, dataclasses.field(default_factory=dict)),
    ],
    namespace={"knobs": _knobs, "__doc__": "One host's knob values."},
    frozen=True,
)


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
    return _default_profile_path(
        os.environ.get("XDG_CACHE_HOME"), os.environ.get("HOME")
    )


@functools.lru_cache(maxsize=8)
def _default_profile_path(cache_home: str | None, home: str | None) -> str:
    # Keyed on the two variables the path reads (``expanduser`` reads
    # HOME), so a changed environment still gets a new path.
    cache_home = cache_home or os.path.join(os.path.expanduser("~"), ".cache")
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
    # An int knob takes only ints, a float knob ints or floats; bool is an
    # int subclass but never a meaningful knob value.
    if type(value) not in ((int,) if kind is int else (int, float)):
        return None
    return None if value < minimum else kind(value)


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
