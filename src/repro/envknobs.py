"""The performance knobs, one row each, and the one rule that resolves them.

Every knob that can arrive through the environment has one :class:`Knob`
row in :data:`KNOBS`, and :meth:`Knob.resolve` applies one precedence to
every row::

    explicit argument  >  environment variable  >  host profile  >  default

- An explicit value below the row's ``minimum`` raises ``ValueError``
  with the row's ``error``.
- A malformed or out-of-range environment value **warns and falls back**
  one step (the profile's value, else the default) instead of raising: a
  typo in a deployment manifest must never crash the render or serve
  path, and the warning names the value actually used.
- Rows with ``profile`` set read the hand-written host profile
  (:mod:`repro.tune.profile`), which takes its keys, types and minimums
  from this table.  ``model`` is a derived step between the profile and
  the default (the LLC model behind ``tile_spans``).
- ``disables``: an environment value below ``minimum`` turns the knob off
  (resolves to ``None``) instead of warning.

The consumers keep their names as uses of their rows:
``packed.span_chunk_budget`` is ``KNOBS["span_budget"].resolve``, and
:class:`repro.serve.scheduler.ServeConfig` resolves its sentinels through
the rows in one loop.  ``REPRO_BACKEND``, ``REPRO_SERVE_MP_START`` and
``REPRO_TUNE_PROFILE`` are not rows: their consumers validate them.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import warnings
from typing import Callable

__all__ = ["KNOBS", "Knob"]

_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off"})
_MALFORMED = {int: "non-integer", float: "non-numeric", bool: "non-boolean"}


def _flag(raw: str) -> bool:
    """``1/true/yes/on`` or ``0/false/no/off``, case-insensitively."""
    word = raw.strip().lower()
    if word not in _TRUE_WORDS | _FALSE_WORDS:
        raise ValueError(raw)
    return word in _TRUE_WORDS


@dataclasses.dataclass(frozen=True)
class Knob:
    """One knob: its environment variable, default and accepted values.

    ``name`` is the host-profile key (for rows with ``profile`` set);
    ``parse`` is ``int``, ``float`` or ``bool``; ``error`` is the
    ``ValueError`` message for an explicit value below ``minimum`` (``{}``
    takes the value).
    """

    name: str
    env: str
    default: int | float | bool
    parse: type = int
    minimum: int | float | None = None
    error: str = ""
    profile: bool = True
    model: Callable[[], int | None] | None = None
    disables: bool = False

    def resolve(self, explicit=None):
        """The knob's value: explicit > env > profile > (model) > default."""
        if explicit is not None:
            if self.minimum is not None and explicit < self.minimum:
                raise ValueError(self.error.format(explicit))
            return self.parse(explicit)
        fallback = None
        if self.profile:
            from .tune.profile import profile_value

            fallback = profile_value(self.name)
        if fallback is None and self.model is not None:
            fallback = self.model()
        if fallback is None:
            fallback = self.default
        return self._from_env(self.parse(fallback))

    def _from_env(self, fallback):
        raw = os.environ.get(self.env)
        if raw is None or not raw.strip():
            return fallback
        try:
            value = _flag(raw) if self.parse is bool else self.parse(raw)
        except ValueError:
            problem = _MALFORMED[self.parse]
        else:
            # NaN never passes a minimum check.
            if self.minimum is None or value >= self.minimum:
                return value
            if self.disables:
                return None
            problem = (
                "non-positive" if self.minimum == 1
                else f"out-of-range (< {self.minimum})"
            )
        warnings.warn(
            f"ignoring {problem} {self.env}={raw!r}; using the default of {fallback}",
            RuntimeWarning,
            stacklevel=3,
        )
        return fallback


# Cache-residency budget of one scan piece, in spans.  A scan's
# temporaries are ``(tile_size, R)``; once they outgrow the fast cache
# levels every operation streams from DRAM, which measured ~2x slower per
# element than cache-resident pieces.  8k spans keeps each scan matrix
# around 1 MB (at the default 16-px tiles) — the best point of a 6k–24k
# sweep across frame sizes and view counts — while still amortizing the
# fixed per-piece kernel overhead across several small views.
_SPAN_BUDGET = 8192


@functools.lru_cache(maxsize=1)
def _predicted_tile_spans() -> int | None:
    """The LLC cost model's tile extent, clamped to a sane range.

    Memoized: cache geometry cannot change within a process, and the
    prediction sits on the resolution path.
    """
    from .tune.model import span_cost_model

    model = span_cost_model()
    if model is None:
        return None
    return min(max(model.predicted_span_budget, _SPAN_BUDGET), 1 << 20)


KNOBS: dict[str, Knob] = {
    knob.name: knob
    for knob in (
        Knob("span_budget", "REPRO_BATCH_SPAN_BUDGET", _SPAN_BUDGET, minimum=1,
             error="span budget must be positive, got {}"),
        # The span extent of the retired cache-tiled backend: recorded by
        # the benchmark, read by no render.
        Knob("tile_spans", "REPRO_TILE_SPAN_BUDGET", 4 * _SPAN_BUDGET, minimum=1,
             error="tile span budget must be positive, got {}",
             model=_predicted_tile_spans),
        # An environment value <= 0 serves without a frame cache.
        Knob("cache_max_bytes", "REPRO_FRAME_CACHE_BYTES", 64 << 20, minimum=1,
             error="cache_max_bytes must be positive (or None)", disables=True),
        Knob("batch_budget", "REPRO_SERVE_BATCH_BUDGET", 8, minimum=1,
             error="batch_budget must be at least 1"),
        # 0 batches only what is already pending.
        Knob("batch_deadline_s", "REPRO_SERVE_BATCH_DEADLINE", 0.0, parse=float,
             minimum=0.0, error="batch_deadline_s must be non-negative"),
        # 0 disables the worker pool's shm arena: frames pickle.
        Knob("shm_bytes", "REPRO_SERVE_SHM", 64 << 20, minimum=0,
             error="shm_bytes must be non-negative (0 disables)"),
        Knob("worker_viewcache", "REPRO_WORKER_VIEWCACHE", 64, minimum=1,
             error="worker viewcache maxsize must be at least 1"),
        # 0 renders inline on the event loop.
        Knob("workers", "REPRO_SERVE_WORKERS", 0, minimum=0,
             error="workers must be non-negative", profile=False),
        Knob("trace", "REPRO_TRACE", False, parse=bool, profile=False),
    )
}
