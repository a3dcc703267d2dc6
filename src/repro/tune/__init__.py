"""Host profiles and the cache model behind the knob defaults.

A host profile (:mod:`.profile`) is a hand-written JSON file of knob
values; nothing in the repo writes one.  The knob table
(:mod:`repro.envknobs`) owns which knobs exist and the one precedence
every knob resolves with::

    explicit argument  >  environment variable  >  host profile  >  default

and the profile reader takes its keys, types and minimums from it.  Point
the table at a profile with ``REPRO_TUNE_PROFILE=/path/to/profile.json``
(or ``off`` to disable), or with the CLI's global ``--profile`` flag.  An
analytic LLC model (:mod:`.model`) predicts the tile-span budget from
cache geometry.

Both modules import only the standard library and the knob table, so
``import repro.tune`` is cheap enough for the render path's resolvers.
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
