"""Backend-agnostic span kernels, parameterized by an array namespace.

Every numeric span operation of the packed render engine — alpha
evaluation, the exclusive transmittance scan, segmented reductions,
compositing, the Val_i statistics and the analytic backward pass — lives
here, written against a small numpy-flavoured adapter (:class:`ArrayNamespace`)
instead of numpy directly.  The adapter is the ``xp`` of the array-API
ecosystem: :class:`NumpyNamespace` (the default) maps every call onto the
exact numpy expression the engine always ran, so results and performance
are unchanged bit for bit; :class:`TorchNamespace` and
:class:`CupyNamespace` re-target the same kernels onto torch / cupy
tensors, resolved at runtime via ``REPRO_ARRAY_API`` (or the CLI
``--array-api`` flag) so none of them is an import-time dependency.

The contract (see also ``backends/README.md``):

- **Host-side structure, device-side math.**  Span/group index
  construction (``build_row_spans``, ``concat_spans``) and per-pair gather
  tables stay numpy on the host; kernels move them across the namespace
  boundary once (:meth:`ArrayNamespace.asarray` /
  :class:`BatchTables`) and run the rate-matched scans on whatever the
  namespace owns.  Images are scattered back on the host.
- **One kernel family, pooled scratch.**  The standard, batched,
  foveated, multi-model and backward passes all run on the ``batch_*``
  kernels below.  Their scratch lives in a :class:`Workspace`, a
  namespace-owned arena: named slots are grown with headroom and sliced to
  shape, so steady-state rendering touches only warm pages (CPU) or reuses
  device allocations without allocator churn (GPU namespaces).
- **Segment primitives are the only non-elementwise surface.**  A
  namespace must provide ``segment_sum`` / ``segment_max`` /
  ``segment_min`` over CSR-style segments of the last axis plus a stable
  ``argsort``; everything else is elementwise, ``cumsum``, gathers and
  fancy-index assignment, which every numpy-alike already has.

The numpy namespace is pinned to the ``reference`` backend within 1e-10 by
``tests/test_backends.py`` (via ``packed`` / ``packed-xp``); alternative
namespaces are pinned to numpy by ``tests/test_kernels_xp.py``, which
skips cleanly when the optional package is absent.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import os
import threading
from typing import Any, Callable, Mapping

import numpy as np

from ..projection import ALPHA_EPS
from ..rasterizer import ALPHA_CLAMP, TRANSMITTANCE_EPS, RasterGradients
from .segments import SegmentIndex, SpanBatch

ENV_ARRAY_API = "REPRO_ARRAY_API"
DEFAULT_ARRAY_API = "numpy"


# ---------------------------------------------------------------------------
# Array namespaces
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SegmentArrays:
    """Namespace-resident copy of a :class:`SegmentIndex` (CSR segments).

    ``starts`` / ``of_item`` / ``last`` live on the namespace's device so
    segment reductions and boundary-slot assignments never bounce through
    the host inside a kernel.
    """

    starts: Any  # (S,) int64, namespace array
    of_item: Any  # (R,) int64
    last: Any  # (S,) int64
    num_segments: int


class ArrayNamespace:
    """Numpy-flavoured op surface the span kernels are written against.

    The base class implements everything in terms of ``self.xp``, a module
    with numpy's API (numpy itself, or cupy); torch overrides each method.
    ``device`` is ``"cpu"`` for host namespaces — the packed engine keeps
    its cache-residency chunking only there, and runs one concatenated
    scan per batch on device namespaces.
    """

    name = "abstract"
    device = "cpu"
    xp: Any = None

    # dtype handles (namespace-native objects)
    @property
    def float64(self):
        return self.xp.float64

    @property
    def int64(self):
        return self.xp.int64

    @property
    def bool_(self):
        return self.xp.bool_

    # -- conversion --------------------------------------------------------
    def asarray(self, a, dtype=None):
        """Host (or namespace) array → namespace array."""
        return self.xp.asarray(a, dtype=dtype) if dtype is not None else self.xp.asarray(a)

    def index(self, a):
        """Host int array → namespace index array."""
        return self.asarray(a)

    def to_numpy(self, a) -> np.ndarray:
        return np.asarray(a)

    def segments(self, index: SegmentIndex) -> SegmentArrays:
        return SegmentArrays(
            starts=self.index(index.starts),
            of_item=self.index(index.of_item),
            last=self.index(index.last),
            num_segments=index.num_segments,
        )

    # -- allocation --------------------------------------------------------
    def empty(self, shape, dtype=None):
        return self.xp.empty(shape, dtype=dtype if dtype is not None else self.float64)

    def zeros(self, shape, dtype=None):
        return self.xp.zeros(shape, dtype=dtype if dtype is not None else self.float64)

    def copy(self, a):
        return a.copy()

    def fill(self, a, value) -> None:
        a[...] = value

    def size(self, a) -> int:
        return int(a.size)

    def dtype_of(self, a):
        return a.dtype

    # -- elementwise (optionally into a workspace buffer) ------------------
    def add(self, a, b, out=None):
        return self.xp.add(a, b, out=out)

    def multiply(self, a, b, out=None):
        return self.xp.multiply(a, b, out=out)

    def negative(self, a, out=None):
        return self.xp.negative(a, out=out)

    def exp(self, a, out=None):
        return self.xp.exp(a, out=out)

    def log1p(self, a, out=None):
        return self.xp.log1p(a, out=out)

    def minimum(self, a, b, out=None):
        return self.xp.minimum(a, b, out=out)

    def maximum(self, a, b, out=None):
        return self.xp.maximum(a, b, out=out)

    def greater(self, a, b, out=None):
        return self.xp.greater(a, b, out=out)

    def greater_equal(self, a, b, out=None):
        return self.xp.greater_equal(a, b, out=out)

    def equal(self, a, b, out=None):
        return self.xp.equal(a, b, out=out)

    def where(self, cond, a, b):
        return self.xp.where(cond, a, b)

    def cumsum_last(self, a, out=None):
        return self.xp.cumsum(a, axis=-1, out=out)

    def masked_assign(self, dst, src, mask) -> None:
        """``dst[mask] = src[mask]`` with broadcasting of ``src``."""
        self.xp.copyto(dst, src, where=mask)

    # -- gathers / ordering ------------------------------------------------
    def take(self, a, idx, axis=0, out=None):
        """Gather rows/columns along ``axis`` (out-of-range ids clipped)."""
        return self.xp.take(a, idx, axis=axis, out=out, mode="clip")

    def take_along_last(self, a, idx):
        return self.xp.take_along_axis(a, idx, axis=-1)

    def argsort_stable_last(self, a):
        return self.xp.argsort(a, axis=-1, kind="stable")

    # -- reductions --------------------------------------------------------
    def sum_axis0(self, a):
        return a.sum(axis=0)

    def matvec(self, a, b):
        return a @ b

    def segment_sum(self, values, seg: SegmentArrays, out=None):
        """Per-segment sum along the last axis (segments cover every item)."""
        return self.xp.add.reduceat(values, seg.starts, axis=-1, out=out)

    def segment_max(self, values, seg: SegmentArrays, out=None):
        return self.xp.maximum.reduceat(values, seg.starts, axis=-1, out=out)

    def segment_min(self, values, seg: SegmentArrays, out=None):
        return self.xp.minimum.reduceat(values, seg.starts, axis=-1, out=out)


class NumpyNamespace(ArrayNamespace):
    """The default namespace: every op is the literal numpy call the packed
    engine always executed, so the kernels stay bit-identical to PR 1/2."""

    name = "numpy"
    device = "cpu"
    xp = np

    def asarray(self, a, dtype=None):
        return np.asarray(a) if dtype is None else np.asarray(a, dtype=dtype)

    def to_numpy(self, a) -> np.ndarray:
        return a

    def segments(self, index: SegmentIndex) -> SegmentArrays:
        # Already host-resident; no copies.
        return SegmentArrays(
            starts=index.starts,
            of_item=index.of_item,
            last=index.last,
            num_segments=index.num_segments,
        )


class TorchNamespace(ArrayNamespace):
    """Torch drop-in (CPU or CUDA) for the span kernels.

    Dtypes are pinned to float64/int64 so results stay within the 1e-10
    equivalence band of the numpy namespace; segment reductions map onto
    ``index_add_`` / ``index_reduce_`` over the CSR ``of_item`` ids, which
    on CPU accumulate in the same sequential order as ``ufunc.reduceat``.
    """

    name = "torch"

    def __init__(self, device: str | None = None) -> None:
        import torch  # deferred: optional dependency

        self.torch = torch
        self.device = device or os.environ.get("REPRO_TORCH_DEVICE") or (
            "cuda" if torch.cuda.is_available() else "cpu"
        )

    @property
    def float64(self):
        return self.torch.float64

    @property
    def int64(self):
        return self.torch.int64

    @property
    def bool_(self):
        return self.torch.bool

    # -- conversion --------------------------------------------------------
    def asarray(self, a, dtype=None):
        if isinstance(a, self.torch.Tensor):
            return a.to(dtype) if dtype is not None else a
        arr = np.ascontiguousarray(a)
        t = self.torch.from_numpy(arr).to(self.device)
        return t.to(dtype) if dtype is not None else t

    def index(self, a):
        return self.asarray(a, dtype=self.torch.int64)

    def to_numpy(self, a) -> np.ndarray:
        return a.detach().cpu().numpy()

    # -- allocation --------------------------------------------------------
    def empty(self, shape, dtype=None):
        return self.torch.empty(
            shape, dtype=dtype if dtype is not None else self.torch.float64,
            device=self.device,
        )

    def zeros(self, shape, dtype=None):
        return self.torch.zeros(
            shape, dtype=dtype if dtype is not None else self.torch.float64,
            device=self.device,
        )

    def copy(self, a):
        return a.clone()

    def fill(self, a, value) -> None:
        a.fill_(value)

    def size(self, a) -> int:
        return a.numel()

    # -- elementwise -------------------------------------------------------
    def _scalar(self, v, like):
        return self.torch.as_tensor(v, dtype=like.dtype, device=like.device)

    def _binary(self, fn, a, b, out=None):
        if not isinstance(a, self.torch.Tensor):
            a = self._scalar(a, b)
        if not isinstance(b, self.torch.Tensor):
            b = self._scalar(b, a)
        return fn(a, b, out=out) if out is not None else fn(a, b)

    def add(self, a, b, out=None):
        return self._binary(self.torch.add, a, b, out=out)

    def multiply(self, a, b, out=None):
        return self._binary(self.torch.mul, a, b, out=out)

    def negative(self, a, out=None):
        return self.torch.neg(a, out=out) if out is not None else self.torch.neg(a)

    def exp(self, a, out=None):
        return self.torch.exp(a, out=out) if out is not None else self.torch.exp(a)

    def log1p(self, a, out=None):
        return self.torch.log1p(a, out=out) if out is not None else self.torch.log1p(a)

    def minimum(self, a, b, out=None):
        if not isinstance(b, self.torch.Tensor):
            return self.torch.clamp(a, max=b, out=out) if out is not None else self.torch.clamp(a, max=b)
        return self._binary(self.torch.minimum, a, b, out=out)

    def maximum(self, a, b, out=None):
        if not isinstance(b, self.torch.Tensor):
            return self.torch.clamp(a, min=b, out=out) if out is not None else self.torch.clamp(a, min=b)
        return self._binary(self.torch.maximum, a, b, out=out)

    def greater(self, a, b, out=None):
        return self._binary(self.torch.gt, a, b, out=out)

    def greater_equal(self, a, b, out=None):
        return self._binary(self.torch.ge, a, b, out=out)

    def equal(self, a, b, out=None):
        return self._binary(self.torch.eq, a, b, out=out)

    def where(self, cond, a, b):
        if not isinstance(a, self.torch.Tensor):
            a = self._scalar(a, b)
        if not isinstance(b, self.torch.Tensor):
            b = self._scalar(b, a)
        return self.torch.where(cond, a, b)

    def cumsum_last(self, a, out=None):
        # torch.cumsum does not document in-place aliasing; compute fresh
        # and copy when a workspace slot was requested.
        result = self.torch.cumsum(a, dim=-1)
        if out is not None:
            out.copy_(result)
            return out
        return result

    def masked_assign(self, dst, src, mask) -> None:
        if not isinstance(src, self.torch.Tensor):
            src = self._scalar(src, dst)
        dst.copy_(self.torch.where(mask, src, dst))

    # -- gathers / ordering ------------------------------------------------
    def take(self, a, idx, axis=0, out=None):
        idx = self.torch.clamp(idx, 0, max(a.shape[axis] - 1, 0))
        if out is not None:
            return self.torch.index_select(a, axis, idx, out=out)
        return self.torch.index_select(a, axis, idx)

    def take_along_last(self, a, idx):
        return self.torch.gather(a, -1, idx)

    def argsort_stable_last(self, a):
        return self.torch.argsort(a, dim=-1, stable=True)

    # -- reductions --------------------------------------------------------
    def sum_axis0(self, a):
        return a.sum(dim=0)

    def matvec(self, a, b):
        return a @ b

    def _segment_shape(self, values, seg):
        return values.shape[:-1] + (seg.num_segments,)

    def segment_sum(self, values, seg: SegmentArrays, out=None):
        if out is None:
            out = self.zeros(self._segment_shape(values, seg), dtype=values.dtype)
        else:
            out.zero_()
        out.index_add_(values.dim() - 1, seg.of_item, values)
        return out

    def _segment_reduce(self, values, seg, out, mode, init):
        if out is None:
            out = self.empty(self._segment_shape(values, seg), dtype=values.dtype)
        out.fill_(init)
        out.index_reduce_(values.dim() - 1, seg.of_item, values, mode, include_self=False)
        return out

    def segment_max(self, values, seg: SegmentArrays, out=None):
        init = True if values.dtype == self.torch.bool else (
            self.torch.iinfo(values.dtype).min
            if not values.dtype.is_floating_point
            else -self.torch.inf
        )
        return self._segment_reduce(values, seg, out, "amax", init)

    def segment_min(self, values, seg: SegmentArrays, out=None):
        init = True if values.dtype == self.torch.bool else (
            self.torch.iinfo(values.dtype).max
            if not values.dtype.is_floating_point
            else self.torch.inf
        )
        return self._segment_reduce(values, seg, out, "amin", init)


class CupyNamespace(ArrayNamespace):
    """CuPy drop-in (experimental — exercised only where cupy is installed).

    CuPy mirrors numpy's module surface except ``ufunc.reduceat``; segment
    reductions fall back to cumulative-sum differences (sum) and a
    sort-free two-pass gather (max/min), which stay within the equivalence
    band for the segment lengths the engine produces.
    """

    name = "cupy"
    device = "cuda"

    def __init__(self) -> None:
        import cupy  # deferred: optional dependency

        self.xp = cupy

    def to_numpy(self, a) -> np.ndarray:
        return self.xp.asnumpy(a)

    def take(self, a, idx, axis=0, out=None):
        result = self.xp.take(a, idx, axis=axis)
        if out is not None:
            out[...] = result
            return out
        return result

    def argsort_stable_last(self, a):
        # cupy argsort is radix-based (stable) for the dtypes we sort.
        return self.xp.argsort(a, axis=-1)

    def segment_sum(self, values, seg: SegmentArrays, out=None):
        csum = self.xp.cumsum(values, axis=-1)
        totals = csum[..., seg.last]
        totals[..., 1:] -= csum[..., seg.last[:-1]]
        if out is not None:
            out[...] = totals
            return out
        return totals

    def _segment_extreme(self, values, seg, out, scatter_fn, init):
        # One scatter-reduce over the whole array: max/min are
        # order-independent, so the atomic scatter is exact.
        shape = values.shape[:-1] + (seg.num_segments,)
        result = self.xp.full(shape, init, dtype=values.dtype)
        scatter_fn(result, (Ellipsis, seg.of_item), values)
        if out is not None:
            out[...] = result
            return out
        return result

    def _extreme_init(self, dtype, sign):
        if self.xp.issubdtype(dtype, self.xp.floating):
            return sign * self.xp.inf
        return self.xp.iinfo(dtype).min if sign < 0 else self.xp.iinfo(dtype).max

    def segment_max(self, values, seg: SegmentArrays, out=None):
        import cupyx  # pragma: no cover - cupy only

        return self._segment_extreme(
            values, seg, out, cupyx.scatter_max,
            self._extreme_init(values.dtype, -1),
        )

    def segment_min(self, values, seg: SegmentArrays, out=None):
        import cupyx  # pragma: no cover - cupy only

        return self._segment_extreme(
            values, seg, out, cupyx.scatter_min,
            self._extreme_init(values.dtype, +1),
        )


# ---------------------------------------------------------------------------
# Namespace resolution
# ---------------------------------------------------------------------------

_FACTORIES: dict[str, Callable[[], ArrayNamespace]] = {
    "numpy": NumpyNamespace,
    "torch": TorchNamespace,
    "cupy": CupyNamespace,
}
_numpy_singleton = NumpyNamespace()
_default_api_override: str | None = None


def available_array_apis() -> tuple[str, ...]:
    """Registered namespace names (regardless of installability)."""
    return tuple(sorted(_FACTORIES))


def array_api_installed(name: str) -> bool:
    """Whether ``name``'s backing package is importable right now."""
    if name == "numpy":
        return True
    return importlib.util.find_spec(name) is not None


def set_default_array_api(name: str | None) -> None:
    """Override the process-wide array namespace (``None`` resets).

    This is what the ``--array-api`` CLI flag calls; it outranks the
    ``REPRO_ARRAY_API`` environment variable.
    """
    global _default_api_override
    if name is not None and name not in _FACTORIES:
        raise ValueError(
            f"unknown array namespace {name!r}; "
            f"available: {', '.join(available_array_apis())}"
        )
    _default_api_override = name


def resolve_array_api_name(name: str | None = None) -> str:
    """Selection precedence: explicit > override > env > numpy."""
    return (
        name
        or _default_api_override
        or os.environ.get(ENV_ARRAY_API)
        or DEFAULT_ARRAY_API
    )


def get_array_namespace(name: str | None = None) -> ArrayNamespace:
    """Instantiate the selected namespace (numpy is a shared singleton)."""
    resolved = resolve_array_api_name(name)
    if resolved not in _FACTORIES:
        raise ValueError(
            f"unknown array namespace {resolved!r}; "
            f"available: {', '.join(available_array_apis())}"
        )
    if resolved == "numpy":
        return _numpy_singleton
    try:
        return _FACTORIES[resolved]()
    except ImportError as exc:
        raise RuntimeError(
            f"array namespace {resolved!r} selected "
            f"({ENV_ARRAY_API} / --array-api) but the package is not "
            f"installed: {exc}"
        ) from None


# ---------------------------------------------------------------------------
# Workspace: namespace-owned scratch arena
# ---------------------------------------------------------------------------


class Workspace:
    """Persistent scratch buffers for the span kernels.

    A batch's ``(tile_size, R)`` temporaries run to several MB each; fresh
    allocations of that size pay page faults on every first touch, which
    measured ~2x on the whole batched pass.  Named slots are grown (with
    headroom) when a batch outsizes them and sliced to shape otherwise, so
    steady-state rendering touches only warm pages.  The arena is
    owned by an :class:`ArrayNamespace`, so on a device namespace the slots
    are device allocations and refilling them never round-trips the host.
    Call :meth:`trim` to drop every slot.

    Slots are **thread-local**: the backends holding a workspace are
    process-wide singletons, and every pass (forward, foveated,
    multi-model, backward) runs through the arena, so two threads rendering
    concurrently must not scribble over one another's scan buffers.  Each
    thread warms its own slot set instead.
    """

    def __init__(self, nsx: ArrayNamespace | None = None) -> None:
        self.nsx = nsx or _numpy_singleton
        self._local = threading.local()

    @property
    def _slots(self) -> dict[str, Any]:
        slots = getattr(self._local, "slots", None)
        if slots is None:
            slots = self._local.slots = {}
        return slots

    def take(self, name: str, shape: tuple[int, ...], dtype=None):
        nsx = self.nsx
        if dtype is None:
            dtype = nsx.float64
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        buf = self._slots.get(name)
        if buf is None or nsx.dtype_of(buf) != dtype or nsx.size(buf) < n:
            buf = nsx.empty((n + (n >> 2) + 16,), dtype=dtype)
            self._slots[name] = buf
        return buf[:n].reshape(shape)

    def trim(self) -> None:
        """Drop the calling thread's slots (other threads keep theirs)."""
        self._slots.clear()


# ---------------------------------------------------------------------------
# Segmented scans
#
# The one exclusive scan behind the transmittance of every pass and the
# backward suffix sums.  Given a workspace it writes into named slots, so a
# steady-state render allocates nothing here.
# ---------------------------------------------------------------------------


def segmented_cumsum_exclusive(
    values,
    index: SegmentIndex,
    consume: bool = False,
    nsx: ArrayNamespace | None = None,
    ws: Workspace | None = None,
    slot: str = "scan",
    group_offsets: np.ndarray | None = None,
):
    """Per-segment exclusive cumulative sum of ``values`` along the last axis.

    Returns ``(exclusive_cumsum, segment_totals)``.  One ``cumsum`` per
    view, re-centred at every segment boundary: the running total is reset
    by subtracting the previous segment's (exactly re-computed) total, so
    intermediate magnitudes — and with them the floating-point drift a naive
    global scan accumulates across thousands of segments — stay bounded by a
    single segment's range.

    **View restarts.**  ``group_offsets`` (host, sorted, e.g.
    :attr:`SpanBatch.band_offsets`) splits the segments into views.  The
    re-centring leaves a last-bit rounding residue that carries into the
    next segment, so a scan run across a view boundary would make a view's
    result depend on the views before it.  Instead each view's first
    segment skips the re-centring subtraction and each view's columns get
    their own ``cumsum`` on a slice of the same buffer: every view scans
    exactly as it would alone, so batched results are bitwise equal to lone
    ones however the views were chunked.  ``None`` is one view.  Views may
    be empty (repeated offsets, also at either end).

    Length-0 segments are allowed (they own no items and report a zero
    total), as is an entirely empty index/value pair.

    ``consume=True`` lets the scan scribble over ``values``.  With ``ws``
    the outputs (and the copy of ``values`` unless ``consume``) live in the
    workspace slots named after ``slot``; they stay valid until the next
    scan with the same ``slot`` on the same thread.
    """
    nsx = nsx or _numpy_singleton
    totals_shape = values.shape[:-1] + (index.num_segments,)
    if values.shape[-1] == 0 or index.num_segments == 0:
        return nsx.zeros(values.shape, dtype=nsx.dtype_of(values)), nsx.zeros(totals_shape)
    empty = index.lens == 0
    if empty.any():
        # Segment-sum primitives misread duplicated starts; scan the
        # non-empty segments (which still cover every item) and widen the
        # totals.  View offsets are renumbered onto the kept segments.
        sub_lens = index.lens[~empty]
        sub = SegmentIndex(
            starts=index.starts[~empty],
            lens=sub_lens,
            of_item=np.repeat(np.arange(sub_lens.shape[0], dtype=np.int64), sub_lens),
        )
        if group_offsets is not None:
            kept_before = np.concatenate([[0], np.cumsum(~empty)])
            group_offsets = kept_before[np.asarray(group_offsets)]
        excl, sub_totals = segmented_cumsum_exclusive(
            values, sub, consume=consume, nsx=nsx, ws=ws, slot=slot,
            group_offsets=group_offsets,
        )
        totals = nsx.zeros(totals_shape)
        totals[..., nsx.asarray(~empty)] = sub_totals
        return excl, totals

    def buffer(name, shape, dtype):
        if ws is None:
            return nsx.empty(shape, dtype=dtype)
        return ws.take(f"{slot}.{name}", shape, dtype)

    dtype = nsx.dtype_of(values)
    seg = nsx.segments(index)
    totals = nsx.segment_sum(values, seg, out=buffer("totals", totals_shape, dtype))
    adj = values
    if not consume:
        adj = buffer("adj", values.shape, dtype)
        adj[...] = values
    # Re-centre at every segment start but each view's first, then scan
    # each view's columns on their own.
    views = np.asarray(
        [0, index.num_segments] if group_offsets is None else group_offsets,
        dtype=np.int64,
    )
    recentre = np.ones(index.num_segments, dtype=bool)
    recentre[views[views < index.num_segments]] = False
    (at,) = np.nonzero(recentre)
    adj[..., nsx.index(index.starts[at])] -= totals[..., nsx.index(at - 1)]
    cols = np.unique(np.append(index.starts, values.shape[-1])[views]).tolist()
    for lo, hi in zip(cols[:-1], cols[1:]):
        view = adj[..., lo:hi]
        nsx.cumsum_last(view, out=view)
    excl = buffer("excl", adj.shape, dtype)
    excl[..., 0] = 0.0
    excl[..., 1:] = adj[..., :-1]
    # The shifted scan leaks the previous segment's (re-centred) running
    # total into each segment's first slot; an exclusive scan starts at zero.
    excl[..., seg.starts] = 0.0
    return excl, totals


def segment_transmittance_exclusive(
    alphas,
    index: SegmentIndex,
    nsx: ArrayNamespace | None = None,
    ws: Workspace | None = None,
    group_offsets: np.ndarray | None = None,
):
    """Front-to-back exclusive transmittance ``T_i = Π_{j<i} (1 − α_j)``.

    Computed per segment (along the last axis) in log space; alphas are
    clamped below 1, so the logs are finite (``log1p(0) = 0`` keeps zero
    alphas out of the scan), and every segment starts at an exact 1.0.
    ``group_offsets`` restarts the scan at every view boundary (see
    :func:`segmented_cumsum_exclusive`).
    """
    nsx = nsx or _numpy_singleton
    logt = None if ws is None else ws.take("logt", alphas.shape)
    log_one_minus = nsx.negative(alphas, out=logt)
    nsx.log1p(log_one_minus, out=log_one_minus)
    log_excl, _ = segmented_cumsum_exclusive(
        log_one_minus, index, consume=True, nsx=nsx, ws=ws, slot="trans",
        group_offsets=group_offsets,
    )
    nsx.minimum(log_excl, 0.0, out=log_excl)
    return nsx.exp(log_excl, out=log_excl)


# ---------------------------------------------------------------------------
# Span kernels
#
# Every pass of the packed engine runs on these: the standard and batched
# forward, the foveated and multi-model frames, and the backward pass.  The
# caller builds one BatchTables per chunk; intermediates stay
# namespace-resident in workspace slots between kernels, so repeated
# renders touch only warm pages.  All span matrices are lanes-first,
# ``(tile_size, R)``.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class BatchTables:
    """Namespace-resident span rows and per-pair gather tables of one chunk.

    ``span_pair`` indexes the pair tables, which concatenate every view of
    the chunk, so one flat gather serves spans from any frame.
    """

    tile_size: int
    num_spans: int
    span_pair: Any  # (R,) int64 rows into the pair tables
    span_y: Any  # (R,) float64 pixel rows (exact integers)
    means: Any  # (K, 2)
    conics: Any  # (K, 3)
    opacities: Any  # (K,)
    colors: Any  # (K, 3)
    origin_x: Any  # (K,)
    depths: Any  # (K,)

    @staticmethod
    def build(
        nsx: ArrayNamespace, batch: SpanBatch, pairs: Mapping[str, np.ndarray]
    ) -> "BatchTables":
        """Move a batch's span rows and its host pair tables to ``nsx``.

        ``pairs`` holds the host tables by name (``means``, ``conics``,
        ``opacities``, ``colors``, ``origin_x``, ``depths``); other entries
        are ignored.
        """
        return BatchTables(
            tile_size=batch.views[0].seg.grid.tile_size,
            num_spans=batch.num_spans,
            span_pair=nsx.index(batch.span_pair),
            span_y=nsx.asarray(np.asarray(batch.span_y, dtype=np.float64)),
            means=nsx.asarray(pairs["means"]),
            conics=nsx.asarray(pairs["conics"]),
            opacities=nsx.asarray(pairs["opacities"]),
            colors=nsx.asarray(pairs["colors"]),
            origin_x=nsx.asarray(pairs["origin_x"]),
            depths=nsx.asarray(pairs["depths"]),
        )


def batch_span_quad(nsx: ArrayNamespace, ws: Workspace, bt: BatchTables):
    """Mahalanobis quadratic form per (lane, span), ``(ts, R)``.

    The tile x-origin and mean of every span are gathered per span, so the
    cost is O(spans) whatever the size of the pair tables (a band piece
    scans a slice of a frame against that frame's whole table).
    Evaluation order matches :func:`repro.splat.rasterizer.splat_alphas`
    bit for bit.
    """
    sp = bt.span_pair
    ts, r = bt.tile_size, bt.num_spans
    lane_x = nsx.asarray(np.arange(ts, dtype=np.int64) + 0.5)

    gather = ws.take("span_gather", (r,))
    dx = ws.take("dx", (ts, r))
    nsx.take(bt.origin_x, sp, axis=0, out=gather)
    nsx.add(lane_x[:, None], gather[None, :], out=dx)
    nsx.take(bt.means[:, 0], sp, axis=0, out=gather)
    dx -= gather[None, :]

    dy = ws.take("dy", (r,))
    nsx.add(bt.span_y, 0.5, out=dy)
    nsx.take(bt.means[:, 1], sp, axis=0, out=gather)
    dy -= gather

    quad = ws.take("quad", (ts, r))
    nsx.take(bt.conics[:, 1], sp, axis=0, out=gather)
    gather *= 2.0
    nsx.multiply(gather[None, :], dx, out=quad)
    quad = nsx.multiply(quad, dy[None, :], out=quad)
    dx = nsx.multiply(dx, dx, out=dx)
    nsx.take(bt.conics[:, 0], sp, axis=0, out=gather)
    dx = nsx.multiply(dx, gather[None, :], out=dx)
    quad = nsx.add(quad, dx, out=quad)
    nsx.take(bt.conics[:, 2], sp, axis=0, out=gather)
    dy = nsx.multiply(dy, dy, out=dy)
    gather = nsx.multiply(gather, dy, out=gather)
    quad = nsx.add(quad, gather[None, :], out=quad)
    return nsx.maximum(quad, 0.0, out=quad)


def exp_neg_half(nsx: ArrayNamespace, quad, out=None):
    """``exp(-quad/2)`` (off-ellipse slots underflow toward zero).

    ``out`` may be ``quad`` itself when the quadratic form is not needed
    afterwards.
    """
    out = nsx.multiply(quad, -0.5, out=out)
    return nsx.exp(out, out=out)


def batch_intersect_test(nsx: ArrayNamespace, ws: Workspace, alphas):
    """The rasterizer's intersect test, in place: zero below 1/255, clamp near 1.

    Multiplying by the boolean keep-mask zeroes sub-threshold slots
    exactly, matching the reference ``np.where``.
    """
    keep = ws.take("keep", alphas.shape, nsx.bool_)
    nsx.greater_equal(alphas, ALPHA_EPS, out=keep)
    nsx.minimum(alphas, ALPHA_CLAMP, out=alphas)
    return nsx.multiply(alphas, keep, out=alphas)


def batch_span_alphas(nsx: ArrayNamespace, ws: Workspace, bt: BatchTables, quad):
    """Per-(lane, span) alphas, ``(ts, R)``, with ``quad`` left intact.

    Off-image lanes of edge tiles are evaluated like any other slot; they
    form lane columns that are never scattered into the frame, and the
    statistics/gradient reductions mask them out explicitly.
    """
    alphas = exp_neg_half(nsx, quad, out=ws.take("alphas", quad.shape))
    opacity = ws.take("span_gather", (bt.num_spans,))
    nsx.take(bt.opacities, bt.span_pair, axis=0, out=opacity)
    alphas = nsx.multiply(alphas, opacity[None, :], out=alphas)
    return batch_intersect_test(nsx, ws, alphas)


def batch_level_alphas(nsx: ArrayNamespace, ws: Workspace, base_exp, cols, span_opacities):
    """Alphas of quality-level passes from one shared ``exp(-q/2)`` table.

    The foveated pipeline evaluates the Gaussian exp once per chunk over
    the union of its passes' spans; ``cols`` (host, ``(R_scan,)``) picks
    each scanned span's column of ``base_exp`` and ``span_opacities``
    (host, ``(R_scan,)``) is that span's level opacity.  Level filtering
    already happened in the span lists themselves, so every span here
    contributes.
    """
    alphas = ws.take("alphas", (base_exp.shape[0], len(cols)))
    nsx.take(base_exp, nsx.index(cols), axis=1, out=alphas)
    alphas = nsx.multiply(alphas, nsx.asarray(span_opacities)[None, :], out=alphas)
    return batch_intersect_test(nsx, ws, alphas)


def batch_transmittance(
    nsx: ArrayNamespace,
    ws: Workspace,
    alphas,
    groups: SegmentIndex,
    group_has_tile_last: np.ndarray,
    group_offsets: np.ndarray | None = None,
):
    """Transmittance scan: ``(trans (ts, R), final (ts, Q))``.

    ``final`` replicates the reference early-termination rule exactly: the
    reference evaluates ``active`` at the *tile's* last splat, which for a
    pixel whose trailing splats carry no span is the group's final
    transmittance itself rather than the transmittance before the last
    contribution.  ``group_has_tile_last`` (host, ``(Q,)``) marks groups
    whose last span is the tile's last pair.  ``group_offsets`` (host,
    sorted group indices, e.g. :attr:`SpanBatch.band_offsets`) restarts the
    scan at every entry, so each band's transmittance is bitwise what it
    would be alone.
    """
    trans = segment_transmittance_exclusive(
        alphas, groups, nsx=nsx, ws=ws, group_offsets=group_offsets
    )
    last = nsx.index(groups.last)
    trans_last = trans[:, last]
    tau = trans_last * (1.0 - alphas[:, last])
    gate = nsx.where(nsx.asarray(group_has_tile_last)[None, :], trans_last, tau)
    final = nsx.where(nsx.greater_equal(gate, TRANSMITTANCE_EPS), tau, 0.0)
    return trans, final


def batch_weights(nsx: ArrayNamespace, ws: Workspace, trans, alphas, keep_trans: bool = False):
    """Blend weights ``T·α``, zeroed where early termination fired.

    Computed in ``trans``'s buffer unless ``keep_trans`` (the backward pass
    reads ``T`` afterwards).
    """
    active = ws.take("active", alphas.shape, nsx.bool_)
    nsx.greater_equal(trans, TRANSMITTANCE_EPS, out=active)
    weights = ws.take("weights", alphas.shape) if keep_trans else trans
    weights = nsx.multiply(trans, alphas, out=weights)
    return nsx.multiply(weights, active, out=weights)


def batch_span_colors(nsx: ArrayNamespace, ws: Workspace, bt: BatchTables):
    """Per-span colours ``(R, 3)`` gathered from the pair table."""
    span_colors = ws.take("span_colors", (bt.num_spans, 3))
    return nsx.take(bt.colors, bt.span_pair, axis=0, out=span_colors)


def batch_per_pixel_permutation(
    nsx: ArrayNamespace, bt: BatchTables, quad, groups: SegmentIndex
):
    """StopThePop ordering: per-pixel depth permutation within each group.

    Matches the reference backend exactly (including ties): a stable sort by
    per-pixel depth followed by a stable sort by group id keeps groups
    contiguous while ordering each lane by depth with original-order
    tie-breaking.  Group ids increase across views, so each view of a batch
    gets exactly the ordering it would get alone.
    """
    base = bt.depths[bt.span_pair]
    depths = base[None, :] * (1.0 + 0.01 * quad)
    by_depth = nsx.argsort_stable_last(depths)
    groups_sorted = nsx.index(groups.of_item)[by_depth]
    by_group = nsx.argsort_stable_last(groups_sorted)
    return nsx.take_along_last(by_depth, by_group)


def batch_composite(
    nsx: ArrayNamespace,
    ws: Workspace,
    weights,
    final,
    span_colors,
    groups: SegmentIndex,
    background: np.ndarray,
    perm=None,
) -> np.ndarray:
    """Per-group composited colours, host ``(Q, ts, 3)``.

    The per-channel reduction ``Σ w_i c_i`` over every pixel-row group plus
    the final-transmittance background term; ``span_colors`` is the
    namespace ``(R, 3)`` colour of each span and ``perm`` the per-pixel
    ordering, if any.  The caller scatters the result into its frame(s)
    before the next kernel call reuses the buffer.
    """
    ts, q = weights.shape[0], groups.num_segments
    seg = nsx.segments(groups)
    scratch = ws.take("scratch", weights.shape)
    pixel = ws.take("pixel", (ts, q))
    pixels = ws.take("pixels", (q, ts, 3))
    for c in range(3):
        channel = span_colors[:, c]
        slot = channel[None, :] if perm is None else channel[perm]
        nsx.multiply(weights, slot, out=scratch)
        nsx.segment_sum(scratch, seg, out=pixel)  # (ts, Q)
        pixel = nsx.add(pixel, final * background[c], out=pixel)
        pixels[:, :, c] = pixel.T
    return nsx.to_numpy(pixels)


def batch_dominated_winners(
    nsx: ArrayNamespace,
    ws: Workspace,
    weights,
    groups: SegmentIndex,
    lane_ok: np.ndarray,
    perm=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Val_i winner selection → host ``(winners, has_any)``.

    ``winners`` is the ``(ts, Q)`` span column dominating each pixel (or
    ``R`` where no span contributes), ``has_any`` the ``(ts, Q)`` mask of
    pixels with a positive, on-image dominating weight (``lane_ok`` is the
    host ``(Q, ts)`` on-image lane mask).  Ties resolve to the earliest
    span in depth order, matching the reference ``argmax``; ``perm`` maps
    permuted slots back to their spans on the per-pixel-sorted path.  The
    caller maps winners through the pair tables and accumulates per view.
    """
    ts, r = weights.shape
    seg = nsx.segments(groups)
    wmax = ws.take("wmax", (ts, groups.num_segments))
    nsx.segment_max(weights, seg, out=wmax)
    has_any = nsx.to_numpy(nsx.greater(wmax, 0.0)) & lane_ok.T
    # cand = where(weights == per-group max and > 0, span column, R): the
    # winners minimum then resolves ties to the earliest span in depth order.
    is_max = ws.take("is_max", weights.shape, nsx.bool_)
    gather = ws.take("wmax_gather", weights.shape)
    nsx.take(wmax, seg.of_item, axis=weights.ndim - 1, out=gather)
    nsx.equal(weights, gather, out=is_max)
    positive = ws.take("positive", weights.shape, nsx.bool_)
    nsx.greater(weights, 0.0, out=positive)
    is_max &= positive
    cand = ws.take("cand", weights.shape, nsx.int64)
    nsx.fill(cand, r)
    orig_cols = (
        nsx.index(np.arange(r, dtype=np.int64))[None, :] if perm is None else perm
    )
    nsx.masked_assign(cand, orig_cols, is_max)
    winners = ws.take("winners", (ts, groups.num_segments), nsx.int64)
    nsx.segment_min(cand, seg, out=winners)
    return nsx.to_numpy(winners), has_any


def backward_grads(
    nsx: ArrayNamespace,
    ws: Workspace,
    bt: BatchTables,
    groups: SegmentIndex,
    group_has_tile_last: np.ndarray,
    span_pids: np.ndarray,
    grad_image: np.ndarray,
    background: np.ndarray,
    num_points: int,
    lane_index: np.ndarray,
    lane_ok: np.ndarray,
) -> RasterGradients:
    """Analytic backward over one view's spans (see ``rasterize_backward``).

    ``span_pids`` is the host model point id of every span; ``lane_index``
    / ``lane_ok`` are the host ``(Q, ts)`` flat-image index and on-image
    mask of every group lane.
    """
    quad = batch_span_quad(nsx, ws, bt)
    alphas = batch_span_alphas(nsx, ws, bt, quad)
    trans, final = batch_transmittance(nsx, ws, alphas, groups, group_has_tile_last)
    weights = batch_weights(nsx, ws, trans, alphas, keep_trans=True)

    # dL/dimage per group lane (zero on off-image lanes), lanes-first.
    g_group = np.zeros((groups.num_segments, bt.tile_size, 3))
    g_group[lane_ok] = grad_image.reshape(-1, 3)[lane_index[lane_ok]]
    g_lanes = nsx.asarray(np.ascontiguousarray(g_group.transpose(1, 0, 2)))  # (ts, Q, 3)

    span_colors = batch_span_colors(nsx, ws, bt)  # (R, 3)
    of_item = nsx.index(groups.of_item)
    gc = nsx.zeros(weights.shape, dtype=nsx.dtype_of(weights))  # (ts, R): g·c_i
    span_grad_color = np.empty((bt.num_spans, 3))
    for c in range(3):
        g_c = nsx.take(g_lanes[:, :, c], of_item, axis=1)
        gc = nsx.add(gc, span_colors[:, c][None, :] * g_c, out=gc)
        span_grad_color[:, c] = nsx.to_numpy(nsx.sum_axis0(weights * g_c))

    # Suffix sums S_i = Σ_{j>i} contrib_j + T_N (g·bg), per pixel.
    contrib = weights * gc
    excl, totals = segmented_cumsum_exclusive(
        contrib, groups, nsx=nsx, ws=ws, slot="suffix"
    )
    bg_term = nsx.matvec(g_lanes, nsx.asarray(background))  # (ts, Q)
    bg_term = nsx.multiply(final, bg_term, out=bg_term)
    suffix_after = nsx.take(totals, of_item, axis=totals.ndim - 1) - (excl + contrib)
    suffix_after = nsx.add(
        suffix_after, nsx.take(bg_term, of_item, axis=bg_term.ndim - 1),
        out=suffix_after,
    )

    grad_alpha = trans * gc
    grad_alpha = nsx.add(
        grad_alpha, -(suffix_after / nsx.maximum(1.0 - alphas, 1e-6)), out=grad_alpha
    )
    live = (
        nsx.greater_equal(trans, TRANSMITTANCE_EPS)
        & nsx.greater(alphas, 0.0)
        & nsx.greater(ALPHA_CLAMP, alphas)
    )
    grad_alpha = nsx.multiply(grad_alpha, live, out=grad_alpha)

    # dα/do = e^{-q/2}; dα/du = α·q (since dq/du = -2q, dα/dq = -α/2).
    exp_term = exp_neg_half(nsx, quad)
    grad_color = np.zeros((num_points, 3))
    grad_opacity = np.zeros(num_points)
    grad_log_scale = np.zeros(num_points)
    np.add.at(grad_color, span_pids, span_grad_color)
    np.add.at(grad_opacity, span_pids, nsx.to_numpy(nsx.sum_axis0(grad_alpha * exp_term)))
    np.add.at(
        grad_log_scale,
        span_pids,
        nsx.to_numpy(nsx.sum_axis0(grad_alpha * alphas * quad)),
    )
    return RasterGradients(
        color=grad_color, opacity=grad_opacity, log_scale=grad_log_scale
    )


def batch_scan_bytes_per_span(tile_size: int = 16) -> int:
    """Peak scan working-set bytes one span contributes to a batch chunk.

    The residency unit behind ``span_chunk_budget`` and the tuner's cost
    model (:mod:`repro.tune.model`): a batched forward keeps about five
    ``(tile_size, R)`` float64 lane matrices live across one pass over the
    spans (``quad``, ``alphas``, the log-transmittance scan buffer, its
    exclusive shift, and the compositing scratch), two bool lane matrices
    (the intersect-test ``keep`` and the early-termination ``active``
    gates), plus O(1)-per-span scalars (span→pair index, pixel row, the
    gathered colour row and group bookkeeping).  At the default 16-px
    tiles this is ~0.8 KB per span — the measured 8k-span default budget
    of PR 2 puts one chunk at ~6.5 MB, squarely inside the 12–32 MB LLCs
    it was tuned on.

    An estimate, not an audit: workspace slots persist between calls, so
    the figure counts bytes *touched per scan pass* (what residency is
    about), not allocated bytes.
    """
    f64_lane_matrices = 5
    bool_lane_matrices = 2
    per_span_scalars = 64
    return (
        f64_lane_matrices * tile_size * 8
        + bool_lane_matrices * tile_size
        + per_span_scalars
    )
