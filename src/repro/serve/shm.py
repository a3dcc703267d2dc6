"""Zero-copy shared-memory frame transport for the render worker pool.

A worker-pool miss used to pay the full executor result pipeline for every
rendered frame: pickle the multi-megabyte ``FRRenderResult`` (image, stat
and span arrays) in the worker, stream it through the result pipe, and
unpickle a fresh copy in the parent — at 512²+ frames the transport, not
the render, becomes the serve ceiling.  This module replaces the frame
*payload* on that path with a :class:`SlabArena`: one
``multiprocessing.shared_memory.SharedMemory`` segment sized by the
``shm_bytes`` knob, carved into fixed blocks by a free-list allocator that
lives *inside the segment* so parent and workers allocate from the same
block table under one cross-process lock.

The protocol per rendered frame:

1. the **worker** leases a contiguous block run (:meth:`SlabArena.lease`),
   copies every array of the result tree into the slot, and returns a
   small :class:`FrameHandle` through the executor pipe — segment name,
   slot offset, a generation stamp, per-plane ``(offset, shape, dtype)``
   specs, a CRC-32 of the plane bytes, and the result "skeleton" (the
   dataclass tree with each array swapped for a plane index);
2. the **parent** maps the slot as one lease buffer, carves each plane
   out of it as a read-only zero-copy numpy view, verifies the checksum,
   rebuilds the result tree around the views, and ties the lease to the
   buffer with ``weakref.finalize`` — every plane view pins the buffer, so
   the slot returns to the free list when the last consumer (frame cache
   entry, response, follower, or a caller that kept only ``.image``) drops
   its last plane, which is reference counting by the host language
   instead of a second ledger.

Generation stamps make release safe against every unwind path: a slot is
owned by the generation that leased it, ``release`` with a stale
generation is a no-op, and a double release cannot free a re-leased slot.
When the arena cannot serve a lease (exhausted, or SHM is unavailable on
the platform) the worker falls back to returning the rendered results
themselves — the classic pickle path — so transport is a performance
knob, never a correctness one.  Frames are bit-identical either way.

Lifetime: the parent (pool) owns the segment and **always unlinks it** in
:meth:`SlabArena.close` — clean shutdown, broken-pool shutdown and crash
unwinding all converge there, so ``/dev/shm`` never accumulates segments.
Unlinking only removes the name; the *mapping* must outlive the arena,
because numpy views do not keep a PEP-3118 export on the segment buffer
(``ndarray.base`` pins the mmap object, but ``SharedMemory.close`` would
still unmap it under the view).  ``close`` therefore retires the mapping
— keeps it referenced for the rest of the process — whenever any view
was handed out, so handle-backed frames stay valid after the pool that
rendered them is gone.

Knob precedence (repo-wide convention): explicit ``shm_bytes`` argument >
``$REPRO_SERVE_SHM`` > a hand-written host profile's ``shm_bytes``
(:mod:`repro.tune.profile`) > the built-in 64 MiB default; ``0`` at any
level disables the arena and serves every frame over the pickle path.
"""

from __future__ import annotations

import dataclasses
import glob
import os
import secrets
import weakref
import zlib
from multiprocessing.shared_memory import SharedMemory

import numpy as np

from ..envknobs import env_int
from ..tune.profile import profile_value

__all__ = [
    "ArenaExhausted",
    "DEFAULT_SHM_BYTES",
    "FrameHandle",
    "SEGMENT_PREFIX",
    "SHM_ENV",
    "ShmTransportError",
    "SlabArena",
    "active_segments",
    "export_result",
    "materialize_handle",
    "resolved_shm_bytes",
    "shm_available",
]

SHM_ENV = "REPRO_SERVE_SHM"
DEFAULT_SHM_BYTES = 64 << 20

#: Every arena segment's name starts with this, so tests and benchmarks can
#: assert "zero leaked segments" by listing ``/dev/shm``.
SEGMENT_PREFIX = "repro-serve-"

#: Mappings kept alive after :meth:`SlabArena.close` because zero-copy
#: frame views may still point into them (see ``close`` for why the
#: interpreter cannot tell us when the last view dies).  Segments land
#: here already unlinked, so this retains address space, not /dev/shm.
_RETIRED_SEGMENTS: list[SharedMemory] = []

_MAGIC = 0x52505348  # "RPSH"
_ALIGN = 64  # slot/plane alignment: cache line, and safe for any dtype
_HEADER_WORDS = 5  # magic, next generation, n_blocks, block_size, data_offset
_TARGET_BLOCK = 256 << 10  # aim for ~256 KiB blocks; clamp the block count
_MIN_BLOCKS = 8
_MAX_BLOCKS = 2048


class ArenaExhausted(RuntimeError):
    """No contiguous free block run can hold the requested lease."""


class ShmTransportError(RuntimeError):
    """A handle could not be materialized (checksum/layout mismatch)."""


def resolved_shm_bytes(shm_bytes: int | None = None) -> int:
    """The effective transport arena size in bytes (``0`` = pickle only).

    Precedence: explicit ``shm_bytes`` > ``$REPRO_SERVE_SHM`` > the host
    profile's ``shm_bytes`` > the built-in default (64 MiB).  A
    malformed or negative env value warns and falls through; an explicit
    negative argument raises.
    """
    if shm_bytes is not None:
        if shm_bytes < 0:
            raise ValueError("shm_bytes must be non-negative (0 disables)")
        return int(shm_bytes)
    fallback = profile_value("shm_bytes")
    if fallback is None:
        fallback = DEFAULT_SHM_BYTES
    return env_int(SHM_ENV, int(fallback), minimum=0)


def shm_available() -> bool:
    """Whether POSIX shared memory works here (probed with a tiny segment)."""
    try:
        probe = SharedMemory(create=True, size=_ALIGN)
    except (OSError, ValueError):  # pragma: no cover - platform-dependent
        return False
    try:
        probe.unlink()
    finally:
        try:
            probe.close()
        except BufferError:  # pragma: no cover - no views on the probe
            pass
    return True


def active_segments() -> list[str]:
    """Arena segment names currently present in ``/dev/shm``.

    The leak probe for tests and benchmarks: after every pool/arena close
    this must be empty.  Returns ``[]`` on platforms without a visible
    ``/dev/shm`` (the probe is then vacuous, not failing).
    """
    return sorted(
        os.path.basename(p)
        for p in glob.glob(os.path.join("/dev/shm", f"{SEGMENT_PREFIX}*"))
    )


# ----------------------------------------------------------------------
# Arena
# ----------------------------------------------------------------------
class SlabArena:
    """A slab of shared memory with an in-segment free-list block allocator.

    The segment layout (all bookkeeping lives in shared memory, so parent
    and workers see one allocator state)::

        u64[5]          magic, next generation, n_blocks, block_size, data_offset
        u64[n_blocks]   owner      0 = free, else the generation that leased it
        u64[n_blocks]   run_len    lease length in blocks, stored at the run head
        ...             data       n_blocks * block_size bytes, 64-byte aligned

    ``lock`` must be one cross-process lock shared by every party (the
    pool creates it from its multiprocessing context and ships it to the
    workers through the executor initializer).  Allocation is a first-fit
    scan for a contiguous free run; a lease is ``(offset, generation)``
    and release validates the generation, so stale or duplicate releases
    are no-ops instead of corruption.
    """

    def __init__(self, shm: SharedMemory, lock, owner: bool) -> None:
        self._shm = shm
        self._lock = lock
        self._owner = owner
        self._closed = False
        self._views_out = False
        self._words = np.ndarray((_HEADER_WORDS,), np.uint64, buffer=shm.buf)
        if not owner and int(self._words[0]) != _MAGIC:
            raise ShmTransportError(
                f"segment {shm.name!r} is not a repro serve arena"
            )
        self.n_blocks = int(self._words[2])
        self.block_size = int(self._words[3])
        self.data_offset = int(self._words[4])
        table = _HEADER_WORDS * 8
        self._block_owner = np.ndarray(
            (self.n_blocks,), np.uint64, buffer=shm.buf, offset=table
        )
        self._run_len = np.ndarray(
            (self.n_blocks,), np.uint64, buffer=shm.buf, offset=table + 8 * self.n_blocks
        )

    # -- construction ---------------------------------------------------
    @staticmethod
    def _geometry(data_bytes: int) -> tuple[int, int, int]:
        """(n_blocks, block_size, data_offset) for a requested data size."""
        n_blocks = max(_MIN_BLOCKS, min(_MAX_BLOCKS, -(-data_bytes // _TARGET_BLOCK)))
        block_size = -(-max(data_bytes, 1) // n_blocks)
        block_size = -(-block_size // _ALIGN) * _ALIGN
        table_end = _HEADER_WORDS * 8 + 16 * n_blocks
        data_offset = -(-table_end // _ALIGN) * _ALIGN
        return n_blocks, block_size, data_offset

    @classmethod
    def create(cls, data_bytes: int, lock) -> "SlabArena":
        """Create (and own) a fresh segment sized to hold ``data_bytes``."""
        if data_bytes < 1:
            raise ValueError("data_bytes must be positive")
        n_blocks, block_size, data_offset = cls._geometry(int(data_bytes))
        total = data_offset + n_blocks * block_size
        name = f"{SEGMENT_PREFIX}{os.getpid()}-{secrets.token_hex(4)}"
        shm = SharedMemory(name=name, create=True, size=total)
        words = np.ndarray((_HEADER_WORDS,), np.uint64, buffer=shm.buf)
        words[:] = (_MAGIC, 1, n_blocks, block_size, data_offset)
        table = _HEADER_WORDS * 8
        np.ndarray((2 * n_blocks,), np.uint64, buffer=shm.buf, offset=table)[:] = 0
        return cls(shm, lock, owner=True)

    @classmethod
    def attach(cls, name: str, lock) -> "SlabArena":
        """Attach to an existing arena segment by name (worker side)."""
        return cls(SharedMemory(name=name), lock, owner=False)

    # -- properties -----------------------------------------------------
    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def data_bytes(self) -> int:
        return self.n_blocks * self.block_size

    def ndarray(self, shape, dtype, offset: int) -> np.ndarray:
        """A numpy view over the segment at ``offset`` (no copy)."""
        a = np.ndarray(shape, np.dtype(dtype), buffer=self._shm.buf, offset=offset)
        end = offset + a.nbytes
        if offset < self.data_offset or end > self.data_offset + self.data_bytes:
            raise ShmTransportError(
                f"plane [{offset}, {end}) outside arena data region"
            )
        self._views_out = True
        return a

    # -- allocator ------------------------------------------------------
    def lease(self, nbytes: int) -> tuple[int, int]:
        """Lease a contiguous slot of at least ``nbytes``.

        Returns ``(byte offset, generation)``; raises :class:`ArenaExhausted`
        when no contiguous free run is large enough.
        """
        if self._closed:
            raise ShmTransportError("arena is closed")
        blocks = max(1, -(-int(nbytes) // self.block_size))
        if blocks > self.n_blocks:
            raise ArenaExhausted(
                f"lease of {nbytes} B exceeds the whole arena "
                f"({self.data_bytes} B)"
            )
        with self._lock:
            free = self._block_owner == 0
            if blocks == 1:
                heads = np.flatnonzero(free)
            else:
                csum = np.cumsum(free, dtype=np.int64)
                window = csum[blocks - 1 :].copy()
                window[1:] -= csum[: -blocks]
                heads = np.flatnonzero(window == blocks)
            if heads.size == 0:
                raise ArenaExhausted(
                    f"no contiguous {blocks}-block run free for a "
                    f"{nbytes} B lease ({int(free.sum())}/{self.n_blocks} "
                    f"blocks free)"
                )
            head = int(heads[0])
            generation = int(self._words[1])
            self._words[1] = generation + 1
            self._block_owner[head : head + blocks] = generation
            self._run_len[head] = blocks
        return self.data_offset + head * self.block_size, generation

    def release(self, offset: int, generation: int) -> bool:
        """Return a lease to the free list; stale generations are no-ops."""
        if self._closed:
            return False
        head, rem = divmod(offset - self.data_offset, self.block_size)
        if rem or not (0 <= head < self.n_blocks):
            return False
        with self._lock:
            if int(self._block_owner[head]) != generation:
                return False
            run = int(self._run_len[head])
            if run == 0:
                return False
            self._block_owner[head : head + run] = 0
            self._run_len[head] = 0
        return True

    def stats(self) -> dict:
        """Allocator occupancy (for ``transport_stats`` and reports)."""
        if self._closed:
            return {"segment": self.name, "closed": True}
        owner = self._block_owner
        free = int((owner == 0).sum())
        return {
            "segment": self.name,
            "data_bytes": self.data_bytes,
            "block_size": self.block_size,
            "blocks_total": self.n_blocks,
            "blocks_free": free,
            "leases_active": int((self._run_len > 0).sum()),
        }

    def register_metrics(self, registry, **labels: str) -> None:
        """Attach allocator occupancy to a :class:`repro.obs.MetricsRegistry`.

        Callback gauges over :meth:`stats` — a closed arena reads as fully
        free rather than raising at scrape time.
        """

        def _stat(key: str) -> int:
            stats = self.stats()
            return int(stats.get(key, 0))

        registry.gauge_fn("arena_blocks_total", lambda: _stat("blocks_total"), **labels)
        registry.gauge_fn("arena_blocks_free", lambda: _stat("blocks_free"), **labels)
        registry.gauge_fn("arena_leases_active", lambda: _stat("leases_active"), **labels)

    # -- lifetime -------------------------------------------------------
    def close(self) -> None:
        """Unlink (owner) and detach.  Idempotent; never raises.

        The owner unlinks *first*, unconditionally — the name leaves
        ``/dev/shm`` even when handle-backed frames are still alive.  The
        mapping needs more care: numpy views built over ``shm.buf`` do
        *not* hold a buffer export on it (numpy captures the pointer and
        releases the ``Py_buffer``), so ``SharedMemory.close`` would
        succeed and unmap the slab under any live frame view — a reliable
        segfault on the next pixel read.  If any view was ever handed out
        the segment is therefore *retired* instead of closed: a strong
        reference keeps the (already unlinked, hence invisible) mapping
        alive for the rest of the process, which is the price of zero-copy
        without per-view export tracking.  Arenas that never produced a
        view unmap immediately.
        """
        if self._closed:
            return
        self._closed = True
        if self._owner:
            try:
                self._shm.unlink()
            except (OSError, FileNotFoundError):  # pragma: no cover
                pass
        self._words = self._block_owner = self._run_len = None
        if self._views_out:
            _RETIRED_SEGMENTS.append(self._shm)
        else:
            try:
                self._shm.close()
            except (BufferError, OSError):  # pragma: no cover
                pass

    def __del__(self):  # pragma: no cover - backstop, close() is the API
        try:
            self.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# Frame export / materialization
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class _PlaneRef:
    """Skeleton leaf: 'this array lives at plane ``index`` of the handle'."""

    index: int


@dataclasses.dataclass(frozen=True)
class _PlaneSpec:
    offset: int  # relative to the handle's slot offset
    shape: tuple
    dtype: str


@dataclasses.dataclass(frozen=True)
class FrameHandle:
    """The small descriptor a worker returns instead of frame arrays.

    ``skeleton`` is the rendered result tree with every numpy array
    replaced by a :class:`_PlaneRef`; everything else (scalars, spec
    dataclasses, dict keys) pickles as-is.  ``checksum`` is a CRC-32 over
    the plane bytes in spec order — the parent verifies it at map time, so
    an allocator bug or torn slot surfaces as :class:`ShmTransportError`,
    never as silently wrong pixels.
    """

    segment: str
    offset: int
    generation: int
    nbytes: int
    checksum: int
    planes: tuple
    skeleton: object


def _map_leaves(obj, leaf_type, fn):
    """Rebuild ``obj`` with ``fn`` applied to every ``leaf_type`` leaf.

    Walks dataclasses (rebuilt via ``dataclasses.replace``), dicts, lists
    and tuples (incl. namedtuples); anything else passes through untouched.
    Subtrees without leaves are returned by identity, so shared structure
    stays shared.
    """
    if isinstance(obj, leaf_type):
        return fn(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        changed = {}
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            new = _map_leaves(value, leaf_type, fn)
            if new is not value:
                changed[f.name] = new
        return dataclasses.replace(obj, **changed) if changed else obj
    if isinstance(obj, dict):
        items = {k: _map_leaves(v, leaf_type, fn) for k, v in obj.items()}
        return items if any(items[k] is not obj[k] for k in obj) else obj
    if isinstance(obj, (list, tuple)):
        items = [_map_leaves(v, leaf_type, fn) for v in obj]
        if all(new is old for new, old in zip(items, obj)):
            return obj
        if isinstance(obj, tuple):
            cls = type(obj)
            return cls(*items) if hasattr(obj, "_fields") else cls(items)
        return items
    return obj


def result_arrays(result) -> list[np.ndarray]:
    """Every array of a result tree once, in walk order: the planes
    :func:`export_result` stores (an array referenced from several places
    in the tree is one plane)."""
    arrays: dict[int, np.ndarray] = {}
    _map_leaves(result, np.ndarray, lambda a: arrays.setdefault(id(a), a))
    return list(arrays.values())


def export_result(arena: SlabArena, result) -> FrameHandle:
    """Copy every array of ``result`` into a leased slot (worker side).

    Returns the :class:`FrameHandle` describing the slot; raises
    :class:`ArenaExhausted` when the arena has no room (the caller then
    falls back to returning ``result`` itself over the pickle path).
    Arrays referenced from several places in the tree are stored once.
    """
    arrays = result_arrays(result)
    if any(a.dtype.hasobject for a in arrays):
        raise ShmTransportError("object arrays cannot ride shared memory")
    refs = {id(a): _PlaneRef(i) for i, a in enumerate(arrays)}
    skeleton = _map_leaves(result, np.ndarray, lambda a: refs[id(a)])
    planes = [np.ascontiguousarray(a) for a in arrays]
    offsets: list[int] = []
    cursor = 0
    for a in planes:
        cursor = -(-cursor // _ALIGN) * _ALIGN
        offsets.append(cursor)
        cursor += a.nbytes
    offset, generation = arena.lease(max(cursor, 1))
    try:
        checksum = 0
        specs = []
        for a, rel in zip(planes, offsets):
            view = arena.ndarray(a.shape, a.dtype, offset + rel)
            np.copyto(view, a, casting="no")
            checksum = zlib.crc32(view, checksum)
            specs.append(_PlaneSpec(rel, tuple(a.shape), a.dtype.str))
        return FrameHandle(
            segment=arena.name,
            offset=offset,
            generation=generation,
            nbytes=cursor,
            checksum=checksum,
            planes=tuple(specs),
            skeleton=skeleton,
        )
    except BaseException:
        arena.release(offset, generation)
        raise


class _LeaseBuffer(np.ndarray):
    """The bytes of one materialized lease, owner of its plane views.

    Plane views are sliced out of this buffer, and numpy stops collapsing a
    view's ``base`` chain at a change of array type, so every plane keeps
    the buffer alive — whichever of them outlives the rebuilt result tree.
    """


def materialize_handle(arena: SlabArena, handle: FrameHandle):
    """Rebuild a result around zero-copy views of ``handle``'s slot (parent).

    The plane checksum is verified before any view escapes.  The lease is
    tied to the slot's :class:`_LeaseBuffer`, which every plane view pins:
    when the last plane drops (cache eviction + response teardown, or a
    caller that kept only ``result.image`` releasing it), ``weakref.finalize``
    returns the slot to the free list — host-language reference counting
    is the arena's refcount.
    """
    if handle.segment != arena.name:
        raise ShmTransportError(
            f"handle for segment {handle.segment!r} offered to {arena.name!r}"
        )
    lease = arena.ndarray((handle.nbytes,), np.uint8, handle.offset).view(_LeaseBuffer)
    views: list[np.ndarray] = []
    checksum = 0
    for spec in handle.planes:
        dtype = np.dtype(spec.dtype)
        end = spec.offset + int(np.prod(spec.shape, dtype=np.int64)) * dtype.itemsize
        view = lease[spec.offset : end].view(dtype).reshape(spec.shape).view(np.ndarray)
        checksum = zlib.crc32(view, checksum)
        view.flags.writeable = False
        views.append(view)
    if checksum != handle.checksum:
        arena.release(handle.offset, handle.generation)
        raise ShmTransportError(
            f"plane checksum mismatch materializing {handle.segment!r} "
            f"@{handle.offset} (gen {handle.generation})"
        )
    weakref.finalize(lease, arena.release, handle.offset, handle.generation)
    return _map_leaves(handle.skeleton, _PlaneRef, lambda ref: views[ref.index])
