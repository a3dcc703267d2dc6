"""Host profiles and the cache model behind the knob defaults.

A host profile (:mod:`.profile`) is a hand-written JSON file of knob
values; the knob resolvers read it, and nothing in the repo writes one.
Every resolver uses one precedence::

    explicit argument  >  environment variable  >  host profile  >  default

Point the resolvers at a profile with
``REPRO_TUNE_PROFILE=/path/to/profile.json`` (or ``off`` to disable), or
with the CLI's global ``--profile`` flag.  An analytic LLC model
(:mod:`.model`) predicts the tile-span budget from cache geometry.

Both modules import only the standard library, so ``import repro.tune``
is cheap enough for the render path's resolvers.
"""

from __future__ import annotations

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
)

__all__ = [
    "CacheLevel",
    "HostProfile",
    "PROFILE_ENV",
    "default_profile_path",
    "detect_cache_levels",
    "host_fingerprint",
    "invalidate_profile_cache",
    "llc_bytes",
    "load_host_profile",
    "profile_path",
    "profile_source",
    "profile_value",
    "span_cost_model",
]
