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
- **Pooled kernels own their scratch.**  :class:`Workspace` is a
  namespace-owned arena: named slots are grown with headroom and sliced to
  shape, so steady-state batched rendering touches only warm pages (CPU)
  or reuses device allocations without allocator churn (GPU namespaces).
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
from typing import Any, Callable

import numpy as np

from ..projection import ALPHA_EPS, ProjectedGaussians
from ..rasterizer import ALPHA_CLAMP, TRANSMITTANCE_EPS, RasterGradients
from .segments import RowSpans, SegmentIndex, SpanBatch

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
    """Persistent scratch buffers for the pooled span kernels.

    A batch's ``(tile_size, R)`` temporaries run to several MB each; fresh
    allocations of that size pay page faults on every first touch, which
    measured ~2x on the whole batched pass.  Named slots are grown (with
    headroom) when a batch outsizes them and sliced to shape otherwise, so
    steady-state pooled rendering touches only warm pages.  The arena is
    owned by an :class:`ArrayNamespace`, so on a device namespace the slots
    are device allocations and refilling them never round-trips the host.
    Call :meth:`trim` to drop every slot.

    Slots are **thread-local**: the backends holding a workspace are
    process-wide singletons, and the pooled single-view ``forward`` runs
    through the arena on every render, so two threads rendering
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
# Segmented scans (shared by unbatched and backward paths)
# ---------------------------------------------------------------------------


def segmented_cumsum_exclusive(
    values,
    index: SegmentIndex,
    consume: bool = False,
    nsx: ArrayNamespace | None = None,
):
    """Per-segment exclusive cumulative sum of ``values`` along the last axis.

    Returns ``(exclusive_cumsum, segment_totals)``.  One global ``cumsum``
    re-centred at every segment boundary: the running total is reset by
    subtracting the previous segment's (exactly re-computed) total, so
    intermediate magnitudes — and with them the floating-point drift a naive
    global scan accumulates across thousands of segments — stay bounded by a
    single segment's range.

    Length-0 segments are allowed (they own no items and report a zero
    total), as is an entirely empty index/value pair.

    ``consume=True`` lets the scan scribble over ``values``.
    """
    nsx = nsx or _numpy_singleton
    totals_shape = values.shape[:-1] + (index.num_segments,)
    if values.shape[-1] == 0 or index.num_segments == 0:
        return nsx.zeros(values.shape, dtype=nsx.dtype_of(values)), nsx.zeros(totals_shape)
    empty = index.lens == 0
    if empty.any():
        # Segment-sum primitives misread duplicated starts; scan the
        # non-empty segments (which still cover every item) and widen the
        # totals.
        sub_lens = index.lens[~empty]
        sub = SegmentIndex(
            starts=index.starts[~empty],
            lens=sub_lens,
            of_item=np.repeat(np.arange(sub_lens.shape[0], dtype=np.int64), sub_lens),
        )
        excl, sub_totals = segmented_cumsum_exclusive(values, sub, consume=consume, nsx=nsx)
        totals = nsx.zeros(totals_shape)
        totals[..., nsx.asarray(~empty)] = sub_totals
        return excl, totals
    seg = nsx.segments(index)
    totals = nsx.segment_sum(values, seg)
    adj = values if consume else nsx.copy(values)
    if index.starts.size > 1:
        adj[..., seg.starts[1:]] -= totals[..., :-1]
    adj = nsx.cumsum_last(adj, out=adj)
    excl = nsx.empty(adj.shape, dtype=nsx.dtype_of(adj))
    excl[..., 0] = 0.0
    excl[..., 1:] = adj[..., :-1]
    # The shifted scan leaks the previous segment's (re-centred) running
    # total into each segment's first slot; an exclusive scan starts at zero.
    excl[..., seg.starts] = 0.0
    return excl, totals


def segment_transmittance_exclusive(
    alphas, index: SegmentIndex, nsx: ArrayNamespace | None = None
):
    """Front-to-back exclusive transmittance ``T_i = Π_{j<i} (1 − α_j)``.

    Computed per segment (along the last axis) in log space; alphas are
    clamped below 1, so the logs are finite (``log1p(0) = 0`` keeps zero
    alphas out of the scan), and every segment starts at an exact 1.0.
    """
    nsx = nsx or _numpy_singleton
    log_one_minus = nsx.negative(alphas)
    nsx.log1p(log_one_minus, out=log_one_minus)
    log_excl, _ = segmented_cumsum_exclusive(log_one_minus, index, consume=True, nsx=nsx)
    nsx.minimum(log_excl, 0.0, out=log_excl)
    return nsx.exp(log_excl, out=log_excl)


# ---------------------------------------------------------------------------
# Unpooled span kernels (single view; foveated / backward / oracle paths)
#
# These take host-resident spans and return host-resident results; the
# namespace round-trip happens inside each kernel.  On the numpy namespace
# every call below is the exact expression the engine always ran.
# ---------------------------------------------------------------------------


def span_quad(nsx: ArrayNamespace, projected: ProjectedGaussians, spans: RowSpans):
    """Mahalanobis quadratic form per (lane, span), ``(ts, R)``, host array.

    The x offsets are shared by all rows of a pair (one gather from a
    per-pair table); the y offsets are scalars per span.  Evaluation order
    matches :func:`repro.splat.rasterizer.splat_alphas` bit for bit.
    """
    seg = spans.seg
    geom = seg.geometry
    means = projected.means2d[seg.pair_splats]
    conics = projected.conics[seg.pair_splats]

    # (ts, K) pixel-centre x minus mean; both terms exactly representable.
    dx_pair = geom.lane_x[:, None] + geom.origin_x[seg.pair_tiles][None, :]
    dx_pair -= means[None, :, 0]

    sp = spans.span_pair
    dx_host = dx_pair[:, sp]  # (ts, R)
    dy_host = (spans.span_y + 0.5) - means[sp, 1]  # (R,)

    dx = nsx.asarray(dx_host)
    dy = nsx.asarray(dy_host)
    quad = nsx.multiply(nsx.asarray((2.0 * conics[sp, 1]))[None, :], dx)
    quad = nsx.multiply(quad, dy[None, :], out=quad)
    dx = nsx.multiply(dx, dx, out=dx)
    dx = nsx.multiply(dx, nsx.asarray(conics[sp, 0])[None, :], out=dx)
    quad = nsx.add(quad, dx, out=quad)
    quad = nsx.add(quad, nsx.asarray(conics[sp, 2] * (dy_host * dy_host))[None, :], out=quad)
    return nsx.to_numpy(nsx.maximum(quad, 0.0, out=quad))


def exp_neg_half(nsx: ArrayNamespace, quad):
    """``exp(-quad/2)`` (off-ellipse slots underflow toward zero)."""
    out = nsx.multiply(nsx.asarray(quad), -0.5)
    return nsx.to_numpy(nsx.exp(out, out=out))


def clamp_alphas(nsx: ArrayNamespace, raw):
    """The rasterizer's intersect test: zero below 1/255, clamp near 1.

    Multiplying by the boolean keep-mask zeroes sub-threshold slots
    exactly, matching the reference ``np.where``.  On the numpy namespace
    this runs in place over ``raw``.
    """
    a = nsx.asarray(raw)
    keep = nsx.greater_equal(a, ALPHA_EPS)
    a = nsx.minimum(a, ALPHA_CLAMP, out=a)
    a = nsx.multiply(a, keep, out=a)
    return nsx.to_numpy(a)


def span_alphas(nsx: ArrayNamespace, projected: ProjectedGaussians, spans: RowSpans):
    """Per-(lane, span) alphas and the quadratic form, ``(ts, R)``.

    Off-image lanes of edge tiles are evaluated like any other slot; they
    form lane columns that are never scattered into the frame, and the
    statistics/gradient reductions mask them out explicitly.

    The exp/opacity/intersect-test chain runs namespace-resident in one
    pass (the op-for-op fusion of :func:`exp_neg_half` +
    :func:`clamp_alphas`), so device namespaces cross the host boundary
    once instead of per step.
    """
    quad = span_quad(nsx, projected, spans)
    opac = projected.opacities[spans.seg.pair_splats][spans.span_pair]
    a = nsx.multiply(nsx.asarray(quad), -0.5)
    a = nsx.exp(a, out=a)
    a = nsx.multiply(a, nsx.asarray(opac)[None, :], out=a)
    keep = nsx.greater_equal(a, ALPHA_EPS)
    a = nsx.minimum(a, ALPHA_CLAMP, out=a)
    a = nsx.multiply(a, keep, out=a)
    return nsx.to_numpy(a), quad


def foveated_level_alphas(nsx: ArrayNamespace, base_exp, span_opacities):
    """One quality level's span alphas from the shared Gaussian-exp table.

    The foveated pipeline evaluates ``exp(-q/2)`` once per frame over the
    union of its composite passes' spans and re-scales it per pass:
    ``base_exp`` is the ``(ts, R_sub)`` gather of that table covering the
    pass's span list, and ``span_opacities`` the per-span level opacity
    ``(R_sub,)``.  Level filtering already happened in the span list
    itself (spans whose pair fails the quality bound were compacted away),
    so every span here contributes.  Operation order matches the historical
    monolithic foveated path bit for bit on the numpy namespace.
    """
    return clamp_alphas(nsx, span_opacities[None, :] * base_exp)


def weights_final(
    nsx: ArrayNamespace, alphas, spans: RowSpans, keep_trans: bool = False
):
    """Transmittance scan: ``(trans_excl, weights, final_trans (ts, Q))``.

    ``final_trans`` replicates the reference early-termination rule exactly:
    the reference evaluates ``active`` at the *tile's* last splat, which for
    a pixel whose trailing splats carry no span is the group's final
    transmittance itself rather than the transmittance before the last
    contribution.

    Unless ``keep_trans``, the weights are computed in the scan's buffer and
    the first element of the returned tuple is ``None``.
    """
    a = nsx.asarray(alphas)
    trans = segment_transmittance_exclusive(a, spans.groups, nsx=nsx)
    seg = nsx.segments(spans.groups)
    trans_last = nsx.copy(trans[:, seg.last])
    tau = trans_last * (1.0 - a[:, seg.last])
    gate = nsx.where(nsx.asarray(spans.group_has_tile_last)[None, :], trans_last, tau)
    final = nsx.where(nsx.greater_equal(gate, TRANSMITTANCE_EPS), tau, 0.0)

    active = nsx.greater_equal(trans, TRANSMITTANCE_EPS)
    weights = trans * a if keep_trans else nsx.multiply(trans, a, out=trans)
    weights = nsx.multiply(weights, active, out=weights)
    return (
        nsx.to_numpy(trans) if keep_trans else None,
        nsx.to_numpy(weights),
        nsx.to_numpy(final),
    )


def composite_groups(
    nsx: ArrayNamespace,
    weights,
    final,
    span_colors,
    groups: SegmentIndex,
    tile_size: int,
    background: np.ndarray,
    color_perm=None,
):
    """Per-group composited colours, ``(Q, ts, 3)`` host array.

    The per-channel reduction ``Σ w_i c_i`` over every pixel-row group,
    plus the final-transmittance background term; the caller scatters the
    result into its frame(s).
    """
    seg = nsx.segments(groups)
    w = nsx.asarray(weights)
    f = nsx.asarray(final)
    colors = nsx.asarray(span_colors)
    perm = None if color_perm is None else nsx.index(color_perm)
    scratch = nsx.empty(w.shape, dtype=nsx.dtype_of(w))
    pixels = nsx.empty((groups.num_segments, tile_size, 3))
    for c in range(3):
        channel = colors[:, c]
        slot = channel[None, :] if perm is None else channel[perm]
        nsx.multiply(w, slot, out=scratch)
        pixel = nsx.segment_sum(scratch, seg)  # (ts, Q)
        pixel = nsx.add(pixel, f * background[c], out=pixel)
        pixels[:, :, c] = pixel.T
    return nsx.to_numpy(pixels)


def per_pixel_permutation(
    nsx: ArrayNamespace, pair_depths, span_pair, quad, groups: SegmentIndex
):
    """StopThePop ordering: per-pixel depth permutation within each group.

    Matches the reference backend exactly (including ties): a stable sort by
    per-pixel depth followed by a stable sort by group id keeps groups
    contiguous while ordering each lane by depth with original-order
    tie-breaking.
    """
    base = nsx.asarray(pair_depths[span_pair])
    depths = base[None, :] * (1.0 + 0.01 * nsx.asarray(quad))
    by_depth = nsx.argsort_stable_last(depths)
    of_item = nsx.segments(groups).of_item
    groups_sorted = of_item[by_depth]
    by_group = nsx.argsort_stable_last(groups_sorted)
    return nsx.to_numpy(nsx.take_along_last(by_depth, by_group))


def dominated_counts(
    nsx: ArrayNamespace,
    projected: ProjectedGaussians,
    spans: RowSpans,
    weights,
    num_points: int,
    lane_ok: np.ndarray,
    orig_cols=None,
):
    """Val_i: per-point count of pixels it dominates (max ``T_i α_i``).

    Ties resolve to the earliest pair in depth order, matching the
    reference ``argmax``; ``orig_cols`` maps permuted slots back to their
    original spans on the per-pixel-sorted path.  ``lane_ok`` is the host
    ``(Q, ts)`` on-image lane mask.
    """
    dominated = np.zeros(num_points, dtype=np.int64)
    seg = nsx.segments(spans.groups)
    w = nsx.asarray(weights)
    wmax = nsx.segment_max(w, seg)  # (ts, Q)
    has_any = nsx.to_numpy(nsx.greater(wmax, 0.0)) & lane_ok.T
    if orig_cols is None:
        cols = nsx.index(np.arange(spans.num_spans, dtype=np.int64))[None, :]
    else:
        cols = nsx.index(orig_cols)
    # cand = where(weights == per-group max and > 0, span column, R): the
    # winners minimum then resolves ties to the earliest span in depth order.
    is_max = nsx.equal(w, nsx.take(wmax, seg.of_item, axis=w.ndim - 1))
    is_max = is_max & nsx.greater(w, 0.0)
    cand = nsx.where(is_max, cols, spans.num_spans)
    winners = nsx.to_numpy(nsx.segment_min(cand, seg))  # (ts, Q)
    winner_pairs = spans.span_pair[winners[has_any]]
    pids = projected.point_ids[spans.seg.pair_splats[winner_pairs]]
    np.add.at(dominated, pids, 1)
    return dominated


def backward_grads(
    nsx: ArrayNamespace,
    projected: ProjectedGaussians,
    spans: RowSpans,
    grad_image: np.ndarray,
    background: np.ndarray,
    num_points: int,
    lane_index: np.ndarray,
    lane_ok: np.ndarray,
) -> RasterGradients:
    """Analytic backward over one view's spans (see ``rasterize_backward``).

    ``lane_index`` / ``lane_ok`` are the host ``(Q, ts)`` flat-image index
    and on-image mask of every group lane.
    """
    seg = spans.seg
    alphas_h, quad = span_alphas(nsx, projected, spans)
    trans_h, weights_h, final_h = weights_final(nsx, alphas_h, spans, keep_trans=True)

    # dL/dimage per group lane (zero on off-image lanes), lanes-first.
    ts = seg.grid.tile_size
    g_group = np.zeros((spans.num_groups, ts, 3))
    g_group[lane_ok] = grad_image.reshape(-1, 3)[lane_index[lane_ok]]
    g_lanes_h = np.ascontiguousarray(g_group.transpose(1, 0, 2))  # (ts, Q, 3)

    span_colors = projected.colors[seg.pair_splats][spans.span_pair]  # (R, 3)
    g_lanes = nsx.asarray(g_lanes_h)
    weights = nsx.asarray(weights_h)
    trans = nsx.asarray(trans_h)
    alphas = nsx.asarray(alphas_h)
    of_item = nsx.segments(spans.groups).of_item
    gc = nsx.zeros(weights.shape, dtype=nsx.dtype_of(weights))  # (ts, R): g·c_i
    span_grad_color = np.empty((spans.num_spans, 3))
    for c in range(3):
        g_c = nsx.take(g_lanes[:, :, c], of_item, axis=1)
        gc = nsx.add(gc, nsx.asarray(span_colors[:, c])[None, :] * g_c, out=gc)
        span_grad_color[:, c] = nsx.to_numpy(nsx.sum_axis0(weights * g_c))

    # Suffix sums S_i = Σ_{j>i} contrib_j + T_N (g·bg), per pixel.
    contrib = weights * gc
    excl, totals = segmented_cumsum_exclusive(contrib, spans.groups, nsx=nsx)
    bg_term = nsx.matvec(g_lanes, nsx.asarray(background))  # (ts, Q)
    bg_term = nsx.multiply(nsx.asarray(final_h), bg_term, out=bg_term)
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
    exp_term = nsx.asarray(exp_neg_half(nsx, quad))
    pids = projected.point_ids[seg.pair_splats][spans.span_pair]
    grad_color = np.zeros((num_points, 3))
    grad_opacity = np.zeros(num_points)
    grad_log_scale = np.zeros(num_points)
    np.add.at(grad_color, pids, span_grad_color)
    np.add.at(grad_opacity, pids, nsx.to_numpy(nsx.sum_axis0(grad_alpha * exp_term)))
    np.add.at(
        grad_log_scale,
        pids,
        nsx.to_numpy(nsx.sum_axis0(grad_alpha * alphas * nsx.asarray(quad))),
    )
    return RasterGradients(
        color=grad_color, opacity=grad_opacity, log_scale=grad_log_scale
    )


# ---------------------------------------------------------------------------
# Pooled batch kernels (forward / forward_batch fast path)
#
# These keep intermediates namespace-resident between kernels: the caller
# builds a BatchTables once per chunk and every scan below reads/writes
# workspace slots, so a batch of one view is bit-identical to the PR 1
# unbatched forward pass on the numpy namespace.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class BatchTables:
    """Namespace-resident gather tables and span indexes of one batch chunk."""

    tile_size: int
    num_spans: int
    num_groups: int
    span_pair: Any  # (R,) int64 rows into the pair tables
    span_y: Any  # (R,) float64 pixel rows (exact integers)
    groups: SegmentArrays
    group_has_tile_last: Any  # (Q,) bool
    means: Any  # (K, 2)
    conics: Any  # (K, 3)
    opacities: Any  # (K,)
    colors: Any  # (K, 3)
    origin_x: Any  # (K,)
    depths: Any  # (K,)

    @staticmethod
    def build(
        nsx: ArrayNamespace,
        batch: SpanBatch,
        tile_size: int,
        pair_means: np.ndarray,
        pair_conics: np.ndarray,
        pair_opacities: np.ndarray,
        pair_colors: np.ndarray,
        pair_origin_x: np.ndarray,
        pair_depths: np.ndarray,
    ) -> "BatchTables":
        return BatchTables(
            tile_size=tile_size,
            num_spans=batch.num_spans,
            num_groups=batch.num_groups,
            span_pair=nsx.index(batch.span_pair),
            span_y=nsx.asarray(np.asarray(batch.span_y, dtype=np.float64)),
            groups=nsx.segments(batch.groups),
            group_has_tile_last=nsx.asarray(batch.group_has_tile_last),
            means=nsx.asarray(pair_means),
            conics=nsx.asarray(pair_conics),
            opacities=nsx.asarray(pair_opacities),
            colors=nsx.asarray(pair_colors),
            origin_x=nsx.asarray(pair_origin_x),
            depths=nsx.asarray(pair_depths),
        )


def batch_span_quad(nsx: ArrayNamespace, ws: Workspace, bt: BatchTables):
    """Mahalanobis quadratic form over a whole batch, ``(ts, R)``.

    Same evaluation order as :func:`span_quad` (every rewrite into a
    workspace buffer commutes bitwise), so a batch of one view is
    bit-identical to the unbatched forward pass.
    """
    sp = bt.span_pair
    ts, k, r = bt.tile_size, bt.means.shape[0], bt.num_spans
    lane_x = nsx.asarray(np.arange(ts, dtype=np.int64) + 0.5)

    dx_pair = ws.take("dx_pair", (ts, k))
    nsx.add(lane_x[:, None], bt.origin_x[None, :], out=dx_pair)
    dx_pair -= bt.means[None, :, 0]
    dx = ws.take("dx", (ts, r))
    nsx.take(dx_pair, sp, axis=1, out=dx)

    dy = ws.take("dy", (r,))
    nsx.add(bt.span_y, 0.5, out=dy)
    gather = ws.take("conic_gather", (r,))
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


def batch_span_alphas(nsx: ArrayNamespace, ws: Workspace, bt: BatchTables, quad):
    """Alphas over a whole batch (cf. :func:`span_alphas`), ``quad`` kept."""
    alphas = ws.take("alphas", quad.shape)
    nsx.multiply(quad, -0.5, out=alphas)
    nsx.exp(alphas, out=alphas)
    alphas = nsx.multiply(alphas, bt.opacities[bt.span_pair][None, :], out=alphas)
    keep = ws.take("keep", alphas.shape, nsx.bool_)
    nsx.greater_equal(alphas, ALPHA_EPS, out=keep)
    nsx.minimum(alphas, ALPHA_CLAMP, out=alphas)
    alphas = nsx.multiply(alphas, keep, out=alphas)
    return alphas


def batch_weights_final(nsx: ArrayNamespace, ws: Workspace, bt: BatchTables, alphas):
    """Transmittance scan over a whole batch: ``(weights, final)``.

    Inlines :func:`weights_final` / :func:`segment_transmittance_exclusive`
    with workspace buffers, in the exact same operation order.  Batch groups
    are never empty (each view contributes only its non-empty ``(tile,
    row)`` runs), so the scan needs no empty-segment widening.
    """
    seg = bt.groups

    logt = ws.take("logt", alphas.shape)
    nsx.negative(alphas, out=logt)
    nsx.log1p(logt, out=logt)
    totals = ws.take("totals", alphas.shape[:-1] + (seg.num_segments,))
    nsx.segment_sum(logt, seg, out=totals)
    if seg.num_segments > 1:
        logt[..., seg.starts[1:]] -= totals[..., :-1]
    logt = nsx.cumsum_last(logt, out=logt)
    excl = ws.take("excl", alphas.shape)
    excl[..., 0] = 0.0
    excl[..., 1:] = logt[..., :-1]
    excl[..., seg.starts] = 0.0
    nsx.minimum(excl, 0.0, out=excl)
    trans = nsx.exp(excl, out=excl)

    trans_last = nsx.copy(trans[:, seg.last])
    tau = trans_last * (1.0 - alphas[:, seg.last])
    gate = nsx.where(bt.group_has_tile_last[None, :], trans_last, tau)
    final = nsx.where(nsx.greater_equal(gate, TRANSMITTANCE_EPS), tau, 0.0)

    active = ws.take("active", alphas.shape, nsx.bool_)
    nsx.greater_equal(trans, TRANSMITTANCE_EPS, out=active)
    weights = nsx.multiply(trans, alphas, out=trans)
    weights = nsx.multiply(weights, active, out=weights)
    return weights, final


def batch_per_pixel_permutation(nsx: ArrayNamespace, bt: BatchTables, quad):
    """StopThePop ordering across a batch (cf. :func:`per_pixel_permutation`).

    The stable depth-then-group double sort permutes only within groups, and
    group ids are strictly increasing across views, so each view's pixels get
    exactly the ordering the unbatched path would produce.
    """
    base = bt.depths[bt.span_pair]
    depths = base[None, :] * (1.0 + 0.01 * quad)
    by_depth = nsx.argsort_stable_last(depths)
    groups_sorted = bt.groups.of_item[by_depth]
    by_group = nsx.argsort_stable_last(groups_sorted)
    return nsx.take_along_last(by_depth, by_group)


def batch_composite(
    nsx: ArrayNamespace,
    ws: Workspace,
    bt: BatchTables,
    weights,
    final,
    background: np.ndarray,
    perm=None,
) -> np.ndarray:
    """One compositing reduction over the whole batch → host ``(Q, ts, 3)``."""
    ts, r, q = bt.tile_size, bt.num_spans, bt.num_groups
    span_colors = ws.take("span_colors", (r, 3))
    nsx.take(bt.colors, bt.span_pair, axis=0, out=span_colors)
    scratch = ws.take("scratch", weights.shape)
    pixel = ws.take("pixel", (ts, q))
    pixels = ws.take("pixels", (q, ts, 3))
    for c in range(3):
        channel = span_colors[:, c]
        slot = channel[None, :] if perm is None else channel[perm]
        nsx.multiply(weights, slot, out=scratch)
        nsx.segment_sum(scratch, bt.groups, out=pixel)  # (ts, Q)
        pixel = nsx.add(pixel, final * background[c], out=pixel)
        pixels[:, :, c] = pixel.T
    return nsx.to_numpy(pixels)


def batch_dominated_winners(
    nsx: ArrayNamespace,
    ws: Workspace,
    bt: BatchTables,
    weights,
    lane_ok: np.ndarray,
    perm=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Val_i winner selection over a whole batch → host ``(winners, has_any)``.

    ``winners`` is the ``(ts, Q)`` span column dominating each pixel (or
    ``R`` where no span contributes), ``has_any`` the ``(ts, Q)`` mask of
    pixels with a positive, on-image dominating weight.  The caller maps
    winners through the batch pair tables and accumulates per view.
    """
    ts, r, q = bt.tile_size, bt.num_spans, bt.num_groups
    seg = bt.groups
    wmax = ws.take("wmax", (ts, q))
    nsx.segment_max(weights, seg, out=wmax)
    has_any = nsx.to_numpy(nsx.greater(wmax, 0.0)) & lane_ok.T
    # cand = where(weights == per-group max and > 0, span column, R): the
    # winners minimum then resolves ties to the earliest span in depth
    # order, exactly like the unbatched path.
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
    winners = ws.take("winners", (ts, q), nsx.int64)
    nsx.segment_min(cand, seg, out=winners)
    return nsx.to_numpy(winners), has_any


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
