"""Content-fingerprint cache keys shared by every render cache.

:class:`~repro.splat.renderer.ViewCache` (the view-preparation cache) and
:class:`repro.serve.FrameCache` (the serve tier's rendered-frame cache) key
their entries on *content*, not object identity: the model's parameter
arrays, the camera's geometry, and the config fields the cached stage
depends on.  Both caches build their keys from the helpers here, so the two
can never drift on fingerprint semantics — a model mutation invalidates
entries in every cache the same way.

A model is hashed once per *version*, not once per lookup.
:class:`ContentMemo` keeps a private snapshot of the arrays a value was
derived from and hands the value back only while every array is still
byte-for-byte equal to its snapshot.  An exact compare costs a small
fraction of a BLAKE2 pass and cannot collide, so an in-place mutation is
always seen and the next lookup rehashes.  The same memo holds the
model-derived tables every frame reads (3D covariances, the foveated
per-level tables); those are revalidated by compare alone and never
hashed.

Fingerprints are robust to copies: two models with equal parameters share
a fingerprint even when they are distinct objects.
"""

from __future__ import annotations

import hashlib
import os
import threading
import weakref
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .camera import Camera
    from .gaussians import GaussianModel

# Values each :class:`ContentMemo` keeps.  A serve loop touches two
# fingerprint entries per foveated model (base parameters and hierarchy),
# so a few entries cover one model with room for a second.
MEMO_ENTRIES = 4

# Integer views of the same width as the element, for the exact compare.
_WORDS = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _words(array: np.ndarray) -> np.ndarray:
    """``array``'s bytes as unsigned integers (shape kept where possible).

    Comparing integer views makes the compare exact on the bits:
    ``0.0`` and ``-0.0`` differ, and so do two NaN payloads.
    """
    word = _WORDS.get(array.dtype.itemsize)
    if word is not None:
        return array.view(word)
    return np.ascontiguousarray(array).reshape(-1).view(np.uint8)


def same_bytes(array: np.ndarray, other: np.ndarray) -> bool:
    """Whether two arrays have the same shape, dtype and bits."""
    return (
        array.shape == other.shape
        and array.dtype == other.dtype
        and np.array_equal(_words(array), _words(other))
    )


def snapshot(array: np.ndarray) -> np.ndarray:
    """A private, read-only, C-contiguous copy of ``array``."""
    copy = np.array(array, copy=True, order="C")
    copy.setflags(write=False)
    return copy


class ContentMemo:
    """Values memoized on the exact contents of a tuple of arrays.

    :meth:`get` returns the memoized value only while every array is
    byte-for-byte equal to the private snapshot it was built from; on any
    difference it rebuilds the value from fresh snapshots and replaces the
    entry.  Entries are found by the arrays' ``id`` (plus a hashable
    ``tag``), which is only a hint: a freed array whose ``id`` is reused,
    or an array mutated in place, is caught by the compare.  At most
    :data:`MEMO_ENTRIES` entries are kept, least recently used out first.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, tuple[tuple[np.ndarray, ...], Any]] = {}
        self._lock = threading.Lock()
        _MEMOS.add(self)

    def get(
        self,
        arrays: Sequence[np.ndarray],
        build: Callable[..., Any],
        tag: Any = None,
    ) -> Any:
        """The value of ``build(*snapshots)`` for the current ``arrays``.

        ``build`` receives read-only snapshot copies of ``arrays``; a value
        built from them matches the bytes it is validated against even if
        a caller's thread edits the arrays meanwhile.  ``tag`` keys entries
        of the same arrays that differ in something else (a level count).
        """
        arrays = tuple(np.asarray(a) for a in arrays)
        slot = (tag, tuple(id(a) for a in arrays))
        with self._lock:
            entry = self._entries.pop(slot, None)
            if entry is not None:
                self._entries[slot] = entry
        if entry is not None and all(
            same_bytes(a, s) for a, s in zip(arrays, entry[0])
        ):
            return entry[1]
        snapshots = tuple(snapshot(a) for a in arrays)
        value = build(*snapshots)
        with self._lock:
            self._entries.pop(slot, None)
            self._entries[slot] = (snapshots, value)
            while len(self._entries) > MEMO_ENTRIES:
                self._entries.pop(next(iter(self._entries)))
        return value


_MEMOS: "weakref.WeakSet[ContentMemo]" = weakref.WeakSet()


def _reset_memo_locks_after_fork() -> None:
    # A thread of the parent may have held a memo lock at the fork; no
    # thread in the child will ever release it.
    for memo in list(_MEMOS):
        memo._lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_memo_locks_after_fork)


_FINGERPRINTS = ContentMemo()
_digest_count = threading.local()


def digests_on_this_thread() -> int:
    """BLAKE2 passes :func:`content_fingerprint` has run on this thread.

    A deterministic work counter: a caller that reads it around a key
    computation learns whether the model was digested or its memoized
    fingerprint reused.
    """
    return getattr(_digest_count, "n", 0)


def _digest(*arrays: np.ndarray) -> bytes:
    _digest_count.n = digests_on_this_thread() + 1
    digest = hashlib.blake2b(digest_size=16)
    for array in arrays:
        digest.update(array)  # C-contiguous snapshots: no byte copy
    return digest.digest()


def content_fingerprint(*arrays: np.ndarray) -> bytes:
    """16-byte BLAKE2 digest of the given arrays' contents (order-sensitive).

    Memoized on the exact bytes: an unchanged set of arrays is compared,
    not rehashed.
    """
    return _FINGERPRINTS.get(arrays, _digest)


def frozen(array: np.ndarray) -> np.ndarray:
    """``array`` marked read-only: a memoized value is shared by callers."""
    array.setflags(write=False)
    return array


def model_fingerprint(model: GaussianModel) -> bytes:
    """Content fingerprint of a model's parameters (robust to mutation)."""
    return content_fingerprint(
        model.positions,
        model.log_scales,
        model.rotations,
        model.opacity_logits,
        model.sh,
    )


def camera_fingerprint(camera: Camera) -> tuple:
    """Hashable key of everything that defines a camera's geometry."""
    return (
        camera.width,
        camera.height,
        camera.fx,
        camera.fy,
        camera.cx,
        camera.cy,
        camera.near,
        camera.far,
        camera.world_to_cam_rotation.tobytes(),
        camera.world_to_cam_translation.tobytes(),
    )


def prepare_config_fingerprint(config) -> tuple:
    """The config fields the view-preparation prefix depends on.

    Projection/tiling/sorting only see the tile size and the 3D smoothing
    filter; rasterization-only options (background, per-pixel sort, backend)
    deliberately do not invalidate prepared views.
    """
    return (config.tile_size, config.smoothing_3d)


def render_config_fingerprint(config) -> tuple:
    """The config fields a *rendered frame* depends on.

    Every field that can change output pixels participates, including the
    backend: engines agree only to the equivalence tolerance (1e-10), so a
    frame cache promising exact-key bit-identity must not serve one
    backend's pixels for another's.  ``backend=None`` is resolved to the
    effective process default at key time — flipping the default via
    ``set_default_backend`` / ``REPRO_BACKEND`` starts a fresh key space
    instead of serving stale cross-backend frames.
    """
    from .backends import resolve_backend_name

    return (
        config.tile_size,
        tuple(float(c) for c in config.background),
        config.smoothing_3d,
        config.per_pixel_sort,
        resolve_backend_name(config.backend),
    )
