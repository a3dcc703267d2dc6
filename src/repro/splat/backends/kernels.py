"""The numpy span kernels of the packed render engine.

Every numeric span operation of the packed engine — alpha evaluation, the
exclusive transmittance scan, segmented reductions, compositing, the Val_i
statistics and the analytic backward pass — lives here, on plain numpy
ndarrays.

The contract (see also ``backends/README.md``):

- **Host-side structure, pooled math.**  Span/group index construction
  (``build_row_spans``, ``concat_spans``, ``LengthClasses``) and the
  per-pair gather tables are built by :mod:`repro.splat.backends.segments`;
  :class:`BatchTables` bundles one chunk's span rows, in class order, with
  them, and the kernels run the scans over that bundle.
- **One kernel family, pooled scratch.**  The standard, batched,
  foveated, multi-model and backward passes all run on the ``batch_*``
  kernels below.  Their scratch lives in a :class:`Workspace`: named slots
  are grown with headroom and sliced to shape, and the kernels write into
  them with ``out=``, so steady-state rendering touches only warm pages.
  Gathers into a slot pass ``mode="clip"``: under the default
  ``mode="raise"`` numpy buffers ``out`` and the slot buys nothing.
- **Scans are per length class.**  A chunk's groups are ordered stably by
  length (:class:`~repro.splat.backends.segments.LengthClasses`), so the
  transmittance and the backward suffix sums are one axis-wise
  ``accumulate`` per class on its ``(ts, n, L)`` block.  Each group's scan
  starts at an exact value and sees no other group: the transmittance is
  the sequential product ``np.cumprod`` forms, bitwise the reference's.
- **The composite is a matmul per length class.**  Each group's colour
  sum is its own ``(ts, L) @ (L, 3)`` product, one batched ``np.matmul``
  per class, so its bits depend only on the group (a premise on the BLAS
  build, tested in ``tests/test_properties.py``).
- **Other segment reductions are** ``ufunc.reduceat``.  Maxima and minima
  over the groups of the last axis, and the per-pixel-sorted composite's
  sums, run as ``np.add/maximum/minimum.reduceat(values, index.starts,
  axis=-1)`` on the class-order :class:`SegmentIndex`; everything else is
  elementwise, gathers and fancy-index assignment.

The kernels are pinned to the ``reference`` backend within 1e-10 by
``tests/test_backends.py`` (via ``packed``).
"""

from __future__ import annotations

import dataclasses
import math
import threading
from typing import Mapping

import numpy as np

from ..projection import ALPHA_EPS
from ..rasterizer import ALPHA_CLAMP, TRANSMITTANCE_EPS, RasterGradients
from .segments import LengthClasses, SegmentIndex, SpanBatch


# ---------------------------------------------------------------------------
# Workspace: pooled scratch arena
# ---------------------------------------------------------------------------


class Workspace:
    """Persistent scratch buffers for the span kernels.

    A batch's ``(tile_size, R)`` temporaries run to several MB each; fresh
    allocations of that size pay page faults on every first touch, which
    measured ~2x on the whole batched pass.  Named slots are grown (with
    headroom) when a batch outsizes them and sliced to shape otherwise, so
    steady-state rendering touches only warm pages.  Call :meth:`trim` to
    drop every slot.

    Slots are **thread-local**: the backends holding a workspace are
    process-wide singletons, and every pass (forward, foveated,
    multi-model, backward) runs through the arena, so two threads rendering
    concurrently must not scribble over one another's scan buffers.  Each
    thread warms its own slot set instead.
    """

    def __init__(self) -> None:
        self._local = threading.local()

    @property
    def _slots(self) -> dict[str, np.ndarray]:
        slots = getattr(self._local, "slots", None)
        if slots is None:
            slots = self._local.slots = {}
        return slots

    def take(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        n = math.prod(shape)
        buf = self._slots.get(name)
        if buf is None or buf.dtype != dtype or buf.size < n:
            buf = np.empty((n + (n >> 2) + 16,), dtype=dtype)
            self._slots[name] = buf
        return buf[:n].reshape(shape)

    def trim(self) -> None:
        """Drop the calling thread's slots (other threads keep theirs)."""
        self._slots.clear()


# ---------------------------------------------------------------------------
# Span kernels
#
# Every pass of the packed engine runs on these: the standard and batched
# forward, the foveated and multi-model frames, and the backward pass.  The
# caller builds one BatchTables per chunk; intermediates stay in workspace
# slots between kernels, so repeated renders touch only warm pages.  All
# span matrices are lanes-first, ``(tile_size, R)``.
# ---------------------------------------------------------------------------


# The per-pair tables a chunk's kernels gather from (see BatchTables.build).
_PAIR_COLUMNS = (
    "means_x", "means_y", "conic_a", "conic_b", "conic_c",
    "opacities", "colors", "origin_x", "depths",
)


@dataclasses.dataclass
class BatchTables:
    """Span rows and per-pair gather tables of one chunk.

    The span rows are in class order (``classes``): groups stably by
    length, spans moving with their group.  ``span_pair`` indexes the pair
    tables, which concatenate every view of the chunk, so one flat gather
    serves spans from any frame.  The pair tables are contiguous columns:
    ``np.take`` from a strided column of a ``(K, 2)``/``(K, 3)`` table
    first copies the whole column, O(pairs) per gather.
    """

    tile_size: int
    num_spans: int
    classes: LengthClasses
    span_pair: np.ndarray  # (R,) int64 rows into the pair tables, class order
    span_y: np.ndarray  # (R,) float64 pixel rows (exact integers), class order
    group_has_tile_last: np.ndarray  # (Q,) class order
    means_x: np.ndarray  # (K,)
    means_y: np.ndarray  # (K,)
    conic_a: np.ndarray  # (K,)
    conic_b: np.ndarray  # (K,)
    conic_c: np.ndarray  # (K,)
    opacities: np.ndarray  # (K,)
    colors: np.ndarray  # (K, 3)
    origin_x: np.ndarray  # (K,)
    depths: np.ndarray  # (K,)

    @staticmethod
    def build(batch: SpanBatch, pairs: Mapping[str, np.ndarray]) -> "BatchTables":
        """Bundle a batch's span rows, in class order, with its pair tables.

        ``pairs`` holds the tables by name (``means_x``, ``means_y``,
        ``conic_a``, ``conic_b``, ``conic_c``, ``opacities``, ``colors``,
        ``origin_x``, ``depths``); other entries are ignored.
        """
        classes = LengthClasses.of(batch.groups)
        order = classes.span_order
        return BatchTables(
            tile_size=batch.views[0].seg.grid.tile_size,
            num_spans=batch.num_spans,
            classes=classes,
            span_pair=batch.span_pair.take(order),
            span_y=batch.span_y.take(order).astype(np.float64),
            group_has_tile_last=batch.group_has_tile_last.take(classes.group_order),
            **{name: pairs[name] for name in _PAIR_COLUMNS},
        )


def batch_span_quad(ws: Workspace, bt: BatchTables) -> np.ndarray:
    """Mahalanobis quadratic form per (lane, span), ``(ts, R)``.

    The tile x-origin and mean of every span are gathered per span, so the
    cost is O(spans) whatever the size of the pair tables (a band piece
    scans a slice of a frame against that frame's whole table).
    Evaluation order matches :func:`repro.splat.rasterizer.splat_alphas`
    bit for bit.
    """
    sp = bt.span_pair
    ts, r = bt.tile_size, bt.num_spans
    lane_x = np.arange(ts, dtype=np.int64) + 0.5

    gather = ws.take("span_gather", (r,))
    dx = ws.take("dx", (ts, r))
    np.take(bt.origin_x, sp, out=gather, mode="clip")
    np.add(lane_x[:, None], gather[None, :], out=dx)
    np.take(bt.means_x, sp, out=gather, mode="clip")
    dx -= gather[None, :]

    dy = ws.take("dy", (r,))
    np.add(bt.span_y, 0.5, out=dy)
    np.take(bt.means_y, sp, out=gather, mode="clip")
    dy -= gather

    quad = ws.take("quad", (ts, r))
    np.take(bt.conic_b, sp, out=gather, mode="clip")
    gather *= 2.0
    np.multiply(gather[None, :], dx, out=quad)
    quad *= dy[None, :]
    dx *= dx
    np.take(bt.conic_a, sp, out=gather, mode="clip")
    dx *= gather[None, :]
    quad += dx
    np.take(bt.conic_c, sp, out=gather, mode="clip")
    dy *= dy
    gather *= dy
    quad += gather[None, :]
    return np.maximum(quad, 0.0, out=quad)


def exp_neg_half(quad: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``exp(-quad/2)`` (off-ellipse slots underflow toward zero).

    ``out`` may be ``quad`` itself when the quadratic form is not needed
    afterwards.
    """
    out = np.multiply(quad, -0.5, out=out)
    return np.exp(out, out=out)


def batch_intersect_test(ws: Workspace, alphas: np.ndarray) -> np.ndarray:
    """The rasterizer's intersect test, in place: zero below 1/255, clamp near 1.

    Multiplying by the boolean keep-mask zeroes sub-threshold slots
    exactly, matching the reference ``np.where``.
    """
    keep = ws.take("keep", alphas.shape, np.bool_)
    np.greater_equal(alphas, ALPHA_EPS, out=keep)
    np.minimum(alphas, ALPHA_CLAMP, out=alphas)
    return np.multiply(alphas, keep, out=alphas)


def batch_span_alphas(ws: Workspace, bt: BatchTables, quad: np.ndarray) -> np.ndarray:
    """Per-(lane, span) alphas, ``(ts, R)``, with ``quad`` left intact.

    Off-image lanes of edge tiles are evaluated like any other slot; they
    form lane columns that are never scattered into the frame, and the
    statistics/gradient reductions mask them out explicitly.
    """
    alphas = exp_neg_half(quad, out=ws.take("alphas", quad.shape))
    opacity = ws.take("span_gather", (bt.num_spans,))
    np.take(bt.opacities, bt.span_pair, axis=0, out=opacity, mode="clip")
    alphas *= opacity[None, :]
    return batch_intersect_test(ws, alphas)


def batch_transmittance(
    ws: Workspace,
    alphas: np.ndarray,
    classes: LengthClasses,
    group_has_tile_last: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Transmittance scan: ``(trans (ts, R), final (ts, Q))``, class order.

    ``T_i = Π_{j<i} (1 − α_j)`` per group, one ``multiply.accumulate`` per
    length class: every group starts at an exact 1.0 and multiplies in
    depth order, the sequential product the reference's ``np.cumprod``
    forms, so ``T`` and everything gated on it are bitwise the reference's
    (a span the strip bound or a level filter dropped has zero alpha, and
    multiplying by ``1 − 0`` is exact).

    ``final`` replicates the reference early-termination rule exactly: the
    reference evaluates ``active`` at the *tile's* last splat, which for a
    pixel whose trailing splats carry no span is the group's final
    transmittance itself rather than the transmittance before the last
    contribution.  ``group_has_tile_last`` (``(Q,)``, class order) marks
    groups whose last span is the tile's last pair.
    """
    one_minus = np.subtract(1.0, alphas, out=ws.take("one_minus", alphas.shape))
    trans = ws.take("trans", alphas.shape)
    trans[:, classes.groups.starts] = 1.0
    accumulate = np.multiply.accumulate  # ``cumprod`` without its per-call wrapper
    for t, om in classes.views(trans, one_minus):
        accumulate(om[..., :-1], axis=-1, out=t[..., 1:])
    last = classes.groups.last
    trans_last = trans[:, last]
    tau = trans_last * one_minus[:, last]
    gate = np.where(group_has_tile_last[None, :], trans_last, tau)
    final = np.where(gate >= TRANSMITTANCE_EPS, tau, 0.0)
    return trans, final


def suffix_sums(ws: Workspace, values: np.ndarray, classes: LengthClasses) -> np.ndarray:
    """Per-group exclusive suffix sums ``S_i = Σ_{j>i} v_j`` (class order).

    One ``add.accumulate`` per length class, back to front; the last span
    of every group sums nothing, an exact 0.0.
    """
    out = ws.take("suffix", values.shape)
    out[..., classes.groups.last] = 0.0
    for s, v in classes.views(out, values):
        np.add.accumulate(v[..., :0:-1], axis=-1, out=s[..., -2::-1])
    return out


def batch_weights(
    ws: Workspace, trans: np.ndarray, alphas: np.ndarray, keep_trans: bool = False
) -> np.ndarray:
    """Blend weights ``T·α``, zeroed where early termination fired.

    Computed in ``trans``'s buffer unless ``keep_trans`` (the backward pass
    reads ``T`` afterwards).
    """
    active = ws.take("active", alphas.shape, np.bool_)
    np.greater_equal(trans, TRANSMITTANCE_EPS, out=active)
    weights = ws.take("weights", alphas.shape) if keep_trans else trans
    np.multiply(trans, alphas, out=weights)
    return np.multiply(weights, active, out=weights)


# One RGB float64 colour as a single 24-byte element: a gather moves each
# in one copy instead of a strided sub-copy per row.
_RGB = np.dtype((np.void, 24))


def batch_span_colors(ws: Workspace, bt: BatchTables) -> np.ndarray:
    """Per-span colours ``(R, 3)`` gathered from the pair table."""
    span_colors = ws.take("span_colors", (bt.num_spans, 3))
    colors = np.ascontiguousarray(bt.colors).view(_RGB).reshape(-1)
    np.take(colors, bt.span_pair, out=span_colors.view(_RGB).reshape(-1), mode="clip")
    return span_colors


def batch_per_pixel_permutation(
    bt: BatchTables, quad: np.ndarray, groups: SegmentIndex
) -> np.ndarray:
    """StopThePop ordering: per-pixel depth permutation within each group.

    Matches the reference backend exactly (including ties): a stable sort by
    per-pixel depth followed by a stable sort by group id keeps groups
    contiguous while ordering each lane by depth with original-order
    tie-breaking.  A group's ordering depends only on its own spans, so
    each view of a batch gets exactly the ordering it would get alone.
    """
    base = bt.depths[bt.span_pair]
    depths = base[None, :] * (1.0 + 0.01 * quad)
    by_depth = np.argsort(depths, axis=-1, kind="stable")
    by_group = np.argsort(groups.of_item[by_depth], axis=-1, kind="stable")
    return np.take_along_axis(by_depth, by_group, axis=-1)


def batch_composite(
    ws: Workspace,
    weights: np.ndarray,
    final: np.ndarray,
    span_colors: np.ndarray,
    classes: LengthClasses,
    background: np.ndarray,
    perm: np.ndarray | None = None,
) -> np.ndarray:
    """Per-group composited colours, ``(Q, ts, 3)``, in class order.

    ``Σ w_i c_i`` over every pixel-row group plus the final-transmittance
    background term; ``span_colors`` is the ``(R, 3)`` colour of each span
    and ``perm`` the per-pixel ordering, if any.  Without a per-pixel
    ordering each length class is one batched ``np.matmul`` of its
    ``(n, ts, L)`` weights with its ``(n, L, 3)`` colours: a group's
    colour sum is its own ``(ts, L) @ (L, 3)`` product, whatever else
    shares the batch.  ``weights`` and ``span_colors`` are C-order, as
    the workspace slots are: a Fortran-order copy would take another BLAS
    path and other bits.  The leading length-1 groups are the single
    product ``w·c``.  A per-pixel ordering needs per-lane colours, so that
    path sums each channel with ``np.add.reduceat``.  The caller scatters
    the result into its frame(s) before the next kernel call reuses the
    buffer.
    """
    ts, q = weights.shape[0], classes.groups.num_segments
    pixels = ws.take("pixels", (q, ts, 3))
    if perm is not None:
        scratch = ws.take("scratch", weights.shape)
        pixel = ws.take("pixel", (ts, q))
        for c in range(3):
            np.multiply(weights, span_colors[:, c][perm], out=scratch)
            np.add.reduceat(scratch, classes.groups.starts, axis=-1, out=pixel)
            pixel += final * background[c]
            pixels[:, :, c] = pixel.T
        return pixels
    n1 = classes.blocks[0][1] if classes.blocks else q
    np.multiply(weights[:, :n1].T[..., None], span_colors[:n1, None], out=pixels[:n1])
    for (c0, g0, n, length), (w,) in zip(classes.blocks, classes.views(weights)):
        colors = span_colors[c0 : c0 + n * length].reshape(n, length, 3)
        np.matmul(w.transpose(1, 0, 2), colors, out=pixels[g0 : g0 + n])
    pixels += final.T[..., None] * background
    return pixels


def batch_dominated_winners(
    ws: Workspace,
    weights: np.ndarray,
    groups: SegmentIndex,
    lane_ok: np.ndarray,
    perm: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Val_i winner selection → ``(winners, has_any)``.

    ``winners`` is the ``(ts, Q)`` span column dominating each pixel (or
    ``R`` where no span contributes), ``has_any`` the ``(ts, Q)`` mask of
    pixels with a positive, on-image dominating weight (``lane_ok`` is the
    ``(Q, ts)`` on-image lane mask).  Ties resolve to the earliest
    span in depth order, matching the reference ``argmax``; ``perm`` maps
    permuted slots back to their spans on the per-pixel-sorted path.  The
    caller maps winners through the pair tables and accumulates per view.
    """
    ts, r = weights.shape
    wmax = ws.take("wmax", (ts, groups.num_segments))
    np.maximum.reduceat(weights, groups.starts, axis=-1, out=wmax)
    has_any = (wmax > 0.0) & lane_ok.T
    # cand = where(weights == per-group max and > 0, span column, R): the
    # winners minimum then resolves ties to the earliest span in depth order.
    is_max = ws.take("is_max", weights.shape, np.bool_)
    gather = ws.take("wmax_gather", weights.shape)
    np.take(wmax, groups.of_item, axis=1, out=gather, mode="clip")
    np.equal(weights, gather, out=is_max)
    positive = ws.take("positive", weights.shape, np.bool_)
    np.greater(weights, 0.0, out=positive)
    is_max &= positive
    cand = ws.take("cand", weights.shape, np.int64)
    cand[...] = r
    orig_cols = np.arange(r, dtype=np.int64)[None, :] if perm is None else perm
    np.copyto(cand, orig_cols, where=is_max)
    winners = ws.take("winners", (ts, groups.num_segments), np.int64)
    np.minimum.reduceat(cand, groups.starts, axis=-1, out=winners)
    return winners, has_any


def backward_grads(
    ws: Workspace,
    bt: BatchTables,
    pids: np.ndarray,
    grad_image: np.ndarray,
    background: np.ndarray,
    num_points: int,
    lane_index: np.ndarray,
    lane_ok: np.ndarray,
) -> RasterGradients:
    """Analytic backward over one view's spans (see ``rasterize_backward``).

    ``pids`` is the model point id of every pair; ``lane_index`` /
    ``lane_ok`` are the ``(Q, ts)`` flat-image index and on-image mask of
    every group lane, in batch order.
    """
    groups = bt.classes.groups
    order = bt.classes.group_order
    quad = batch_span_quad(ws, bt)
    alphas = batch_span_alphas(ws, bt, quad)
    trans, final = batch_transmittance(ws, alphas, bt.classes, bt.group_has_tile_last)
    weights = batch_weights(ws, trans, alphas, keep_trans=True)

    # dL/dimage per group lane (zero on off-image lanes), lanes-first.
    lane_ok = lane_ok[order]
    g_group = np.zeros((groups.num_segments, bt.tile_size, 3))
    g_group[lane_ok] = grad_image.reshape(-1, 3)[lane_index[order][lane_ok]]
    g_lanes = np.ascontiguousarray(g_group.transpose(1, 0, 2))  # (ts, Q, 3)

    span_colors = batch_span_colors(ws, bt)  # (R, 3)
    of_item = groups.of_item
    gc = np.zeros(weights.shape, dtype=weights.dtype)  # (ts, R): g·c_i
    span_grad_color = np.empty((bt.num_spans, 3))
    for c in range(3):
        g_c = np.take(g_lanes[:, :, c], of_item, axis=1, mode="clip")
        gc += span_colors[:, c][None, :] * g_c
        span_grad_color[:, c] = (weights * g_c).sum(axis=0)

    # Suffix sums S_i = Σ_{j>i} contrib_j + T_N (g·bg), per pixel.
    suffix_after = suffix_sums(ws, weights * gc, bt.classes)
    bg_term = g_lanes @ background  # (ts, Q)
    np.multiply(final, bg_term, out=bg_term)
    suffix_after += np.take(bg_term, of_item, axis=1, mode="clip")

    grad_alpha = trans * gc
    grad_alpha += -(suffix_after / np.maximum(1.0 - alphas, 1e-6))
    live = (trans >= TRANSMITTANCE_EPS) & (alphas > 0.0) & (ALPHA_CLAMP > alphas)
    grad_alpha *= live

    # dα/do = e^{-q/2}; dα/du = α·q (since dq/du = -2q, dα/dq = -α/2).
    exp_term = exp_neg_half(quad)
    grad_color = np.zeros((num_points, 3))
    grad_opacity = np.zeros(num_points)
    grad_log_scale = np.zeros(num_points)
    span_pids = pids[bt.span_pair]
    np.add.at(grad_color, span_pids, span_grad_color)
    np.add.at(grad_opacity, span_pids, (grad_alpha * exp_term).sum(axis=0))
    np.add.at(grad_log_scale, span_pids, (grad_alpha * alphas * quad).sum(axis=0))
    return RasterGradients(
        color=grad_color, opacity=grad_opacity, log_scale=grad_log_scale
    )


def batch_scan_bytes_per_span(tile_size: int = 16) -> int:
    """Peak scan working-set bytes one span contributes to a batch chunk.

    The residency unit behind ``span_chunk_budget`` and the LLC cost
    model (:mod:`repro.tune.model`): a batched forward keeps about five
    ``(tile_size, R)`` float64 lane matrices live across one pass over the
    spans (``quad``, ``alphas``, ``1 − α``, the transmittance scan, and
    the compositing scratch), two bool lane matrices
    (the intersect-test ``keep`` and the early-termination ``active``
    gates), plus O(1)-per-span scalars (span→pair index, pixel row, the
    gathered colour row and group bookkeeping).  At the default 16-px
    tiles this is ~0.8 KB per span — the measured 8k-span default budget
    puts one chunk at ~6.5 MB, squarely inside the 12–32 MB LLCs it was
    measured on.

    An estimate, not an audit: workspace slots persist between calls, so
    the figure counts bytes *touched per scan pass* (what residency is
    about), not allocated bytes.  Only the per-pixel-sorted composite
    still fills a ``(tile_size, R)`` scratch; the matmul composite reads
    the weights in place.  The figure keeps it, so the cost model's
    prediction (the recorded ``tile_span_budget``) stays as it was.
    """
    f64_lane_matrices = 5
    bool_lane_matrices = 2
    per_span_scalars = 64
    return (
        f64_lane_matrices * tile_size * 8
        + bool_lane_matrices * tile_size
        + per_span_scalars
    )
