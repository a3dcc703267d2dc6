"""Hardened environment-knob parsing, one policy for the whole stack.

Every performance knob that can arrive through the environment
(``REPRO_BATCH_SPAN_BUDGET``, ``REPRO_SERVE_WORKERS``,
``REPRO_FRAME_CACHE_BYTES``, ...) goes through these helpers and shares one
failure policy: a malformed or out-of-range value **warns and falls back**
to the caller-supplied default instead of raising.  A typo in a deployment
manifest must never crash the render or serve path — these are
performance knobs, and the safe interpretation of a bad one is "unset".

The fallback the caller passes is the *next* step of the resolution
precedence (a hand-written host profile, then the built-in default — see
:mod:`repro.tune.profile`), so the warning names the value actually used.
"""

from __future__ import annotations

import os
import warnings

__all__ = ["env_flag", "env_float", "env_int"]


def _warn(name: str, raw: str, problem: str, fallback: object) -> None:
    warnings.warn(
        f"ignoring {problem} {name}={raw!r}; using the default of {fallback}",
        RuntimeWarning,
        stacklevel=3,
    )


def env_int(
    name: str,
    fallback: int,
    *,
    minimum: int | None = None,
) -> int:
    """Integer knob ``name``, or ``fallback`` when unset/blank/malformed.

    ``minimum`` (inclusive) bounds the accepted range; values below it warn
    and fall back like non-integers do.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return fallback
    try:
        value = int(raw)
    except ValueError:
        _warn(name, raw, "non-integer", fallback)
        return fallback
    if minimum is not None and value < minimum:
        problem = "non-positive" if minimum == 1 else f"out-of-range (< {minimum})"
        _warn(name, raw, problem, fallback)
        return fallback
    return value


_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off"})


def env_flag(name: str, fallback: bool = False) -> bool:
    """Boolean knob ``name``, or ``fallback`` when unset/blank/malformed.

    Accepts the usual spellings case-insensitively (``1/true/yes/on`` and
    ``0/false/no/off``); anything else warns and falls back, like the
    numeric knobs.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return fallback
    word = raw.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    _warn(name, raw, "non-boolean", fallback)
    return fallback


def env_float(
    name: str,
    fallback: float,
    *,
    minimum: float | None = None,
) -> float:
    """Float knob ``name``, or ``fallback`` when unset/blank/malformed.

    ``minimum`` is inclusive; NaN never passes a ``minimum`` check.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return fallback
    try:
        value = float(raw)
    except ValueError:
        _warn(name, raw, "non-numeric", fallback)
        return fallback
    if minimum is not None and not value >= minimum:
        _warn(name, raw, f"out-of-range (< {minimum})", fallback)
        return fallback
    return value
