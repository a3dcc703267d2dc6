"""Property-based tests (hypothesis) on core data structures and invariants."""

import functools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.accel.tile_merge import identity_merge, merge_tiles
from repro.core.ce import frame_ce
from repro.core.pruning import prune_lowest_ce
from repro.foveation import (
    render_foveated,
    render_foveated_batch,
    uniform_foveated_model,
)
from repro.foveation.regions import RegionLayout, compute_region_maps
from repro.harness import EVAL_LEVEL_FRACTIONS, EVAL_REGION_LAYOUT
from repro.obs.trace import Tracer, set_active_tracer
from repro.scenes import gaze_trajectory, generate_scene, trace_cameras
from repro.splat.gaussians import (
    normalize_quaternions,
    quaternions_to_matrices,
    random_model,
    sigmoid,
)
from repro.splat.backends import (
    segment_transmittance_exclusive,
    segmented_cumsum_exclusive,
)
from repro.splat.backends.kernels import (
    BatchTables,
    Workspace,
    batch_composite,
    batch_span_alphas,
    batch_span_quad,
    batch_transmittance,
    batch_weights,
    get_array_namespace,
)
from repro.splat.backends import packed
from repro.splat.backends.packed import SPAN_BUDGET_ENV
from repro.splat.backends.segments import (
    SegmentIndex,
    build_row_spans,
    build_segments,
    concat_spans,
    expand_row_spans,
    pair_row_ranges,
)
from repro.splat.camera import Camera
from repro.splat.rasterizer import composite
from repro.splat.renderer import RenderConfig, prepare_view, render, render_batch
from repro.splat.sh import sh_basis
from repro.splat.tiling import TileGrid

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestCompositingProperties:
    @given(
        alphas=hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 12), st.integers(1, 6)),
            elements=st.floats(0.0, 0.999),
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_energy_conservation(self, alphas, seed):
        """Weights + final transmittance always partition unit energy."""
        rng = np.random.default_rng(seed)
        colors = rng.uniform(size=(alphas.shape[0], 3))
        _, weights, final_t = composite(alphas, colors, np.zeros(3))
        total = weights.sum(axis=0) + final_t
        assert np.all(total <= 1.0 + 1e-9)
        assert np.all(weights >= 0)
        assert np.all(final_t >= 0)

    @given(
        alphas=hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 10), st.integers(1, 4)),
            elements=st.floats(0.0, 0.999),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_pixel_color_bounded_by_max_splat_color(self, alphas):
        """With colours in [0,1] and black background, outputs stay in [0,1]."""
        colors = np.full((alphas.shape[0], 3), 1.0)
        out, _, _ = composite(alphas, colors, np.zeros(3))
        assert np.all(out <= 1.0 + 1e-9)
        assert np.all(out >= 0.0)


@functools.lru_cache(maxsize=4)
def _dense_row_spans(seed: int):
    """Row spans of a small, dense random view: many multi-span groups."""
    model = random_model(120, np.random.default_rng(seed), extent=1.5)
    camera = Camera.from_fov(
        width=40,
        height=24,
        fov_x_deg=60.0,
        position=np.array([0.0, 0.0, -4.0]),
        look_at=np.array([0.0, 0.0, 0.0]),
    )
    projected, assignment = prepare_view(model, camera)
    return build_row_spans(projected, build_segments(assignment))


class TestSpanSubsetProperties:
    """Compacting spans away equals compositing them with zero alpha.

    This is the identity the foveated engine's level filtering rests on:
    :meth:`RowSpans.subset_spans` drops spans (and emptied groups) instead
    of zeroing their alphas, so the transmittance scan and composite over
    the subset must reproduce the full list's pixels — including the
    early-termination gate, which reads ``group_has_tile_last`` and must be
    recomputed when a group's tile-last span is dropped.
    """

    @given(
        seed=st.integers(0, 3),
        mask_seed=st.integers(0, 2**16),
        keep=st.floats(0.0, 1.0),
        drop_tile_last=st.booleans(),
        empty_groups=st.floats(0.0, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_subset_composite_matches_zeroed_alphas(
        self, seed, mask_seed, keep, drop_tile_last, empty_groups
    ):
        nsx = get_array_namespace("numpy")
        ws = Workspace(nsx)
        spans = _dense_row_spans(seed)
        ts = spans.seg.grid.tile_size
        rng = np.random.default_rng(mask_seed)
        # Opaque-leaning alphas so transmittance crosses the termination
        # threshold inside groups; some slots fail the intersect test.
        alphas = rng.uniform(0.0, 0.99, size=(ts, spans.num_spans))
        alphas[rng.random(alphas.shape) < 0.2] = 0.0
        colors = rng.uniform(size=(spans.num_spans, 3))
        background = rng.uniform(size=3)

        mask = rng.random(spans.num_spans) < keep
        last = spans.groups.last
        if drop_tile_last:
            mask[last[spans.group_has_tile_last]] = False
        emptied = rng.random(spans.num_groups) < empty_groups
        mask[emptied[spans.groups.of_item]] = False

        def composite(alphas, colors, spans):
            trans, final = batch_transmittance(
                nsx, ws, alphas, spans.groups, spans.group_has_tile_last
            )
            weights = batch_weights(nsx, ws, trans, alphas)
            # Copy out of the workspace: the next composite reuses the slot.
            return batch_composite(
                nsx, ws, weights, final, colors, spans.groups, background
            ).copy()

        full = composite(alphas * mask[None, :], colors, spans)

        sub = spans.subset_spans(mask)
        kept_groups = np.add.reduceat(mask.astype(np.int64), spans.groups.starts) > 0
        assert sub.num_spans == int(mask.sum())
        assert sub.num_groups == int(kept_groups.sum())
        # The gate flag follows each group's last *surviving* span.
        sub_last = sub.span_pair[sub.groups.last]
        assert np.array_equal(
            sub.group_has_tile_last,
            sub_last == spans.seg.tile_last_pair[sub.group_tile],
        )
        if drop_tile_last:
            assert not sub.group_has_tile_last.any()

        if sub.num_spans:
            got = composite(alphas[:, mask], colors[mask], sub)
            assert np.abs(got - full[kept_groups]).max() <= 1e-12
        # Groups with no surviving span composite to pure background.
        dropped = full[~kept_groups]
        assert np.abs(dropped - background).max(initial=0.0) <= 1e-12


def _live_span_keys(projected, seg, spans) -> np.ndarray:
    """``pair · H + row`` of every span with a nonzero on-image alpha.

    Alphas are taken at opacity 1, the bound every opacity the engine
    scans (model and level opacities are sigmoids) stays below.
    """
    nsx = get_array_namespace("numpy")
    ws = Workspace(nsx)
    sel = seg.pair_splats
    pairs = {
        "means": projected.means2d[sel],
        "conics": projected.conics[sel],
        "opacities": np.ones(seg.num_pairs),
        "colors": projected.colors[sel],
        "origin_x": seg.geometry.origin_x[seg.pair_tiles],
        "depths": projected.depths[sel],
    }
    bt = BatchTables.build(nsx, concat_spans([spans]), pairs)
    alphas = batch_span_alphas(nsx, ws, bt, batch_span_quad(nsx, ws, bt))
    on_image = seg.geometry.lane_valid[spans.span_tile].T  # (ts, R)
    live = ((alphas > 0.0) & on_image).any(axis=0)
    return spans.span_pair[live] * seg.grid.height + spans.span_y[live]


class TestStripBoundProperties:
    """The strip-bounded row spans drop only spans that cannot contribute."""

    @given(
        seed=st.integers(0, 2**16),
        width=st.integers(5, 75),
        height=st.integers(5, 55),
        big=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_contributing_row_is_built(self, seed, width, height, big):
        # Frame sizes that are mostly not tile multiples: partial edge tiles
        # hold lanes off the image, which the strip must exclude safely.
        rng = np.random.default_rng(seed)
        scales = (0.05, 0.8) if big else (0.02, 0.3)
        model = random_model(60, rng, extent=1.5, scale_range=scales)
        camera = Camera.from_fov(
            width=width,
            height=height,
            fov_x_deg=60.0,
            position=np.array([0.0, 0.0, -4.0]),
            look_at=np.array([0.0, 0.0, 0.0]),
        )
        projected, assignment = prepare_view(model, camera)
        seg = build_segments(assignment)
        full = build_row_spans(projected, seg, full_rows=True)
        spans = build_row_spans(projected, seg)
        assert spans.num_spans <= full.num_spans
        if full.num_spans == 0:
            return
        live = _live_span_keys(projected, seg, full)
        built = spans.span_pair * seg.grid.height + spans.span_y
        assert np.isin(live, built).all()
        # Built rows stay inside their pair's tile and the image.
        tile_y0 = seg.geometry.origin_y[spans.span_tile]
        ts = seg.grid.tile_size
        assert np.all((spans.span_y >= tile_y0) & (spans.span_y < tile_y0 + ts))
        assert np.all(spans.span_y < height)


@functools.lru_cache(maxsize=1)
def _batch_invariance_inputs():
    """A small scene, its foveated model, foveated frames and full views."""
    scene = generate_scene("kitchen", n_points=600)
    fmodel = uniform_foveated_model(scene, EVAL_REGION_LAYOUT, EVAL_LEVEL_FRACTIONS)
    cameras = trace_cameras("kitchen", n_train=2, n_eval=2, width=96, height=64)
    poses = cameras[0]
    gazes = [tuple(map(float, g)) for g in gaze_trajectory(96, 64, 5, seed=7)]
    gazes.append((-40.0, 200.0))  # off-screen: all periphery
    frames = [(poses[i % 2], g) for i, g in enumerate(gazes)]
    views = poses + cameras[1]
    return scene, fmodel, frames, views


@functools.lru_cache(maxsize=1)
def _lone_foveated():
    _, fmodel, frames, _ = _batch_invariance_inputs()
    return [render_foveated(fmodel, camera, gaze=gaze) for camera, gaze in frames]


@functools.lru_cache(maxsize=2)
def _lone_renders(backend):
    scene, _, _, views = _batch_invariance_inputs()
    return [render(scene, camera, RenderConfig(backend=backend)) for camera in views]


def _partition(items, cuts):
    bounds = [0, *sorted(cuts), len(items)]
    return [items[a:b] for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


# Span budgets from one span (every frame its own chunk) to far past any
# batch (every frame in one scan).
span_budgets = st.one_of(st.integers(1, 4096), st.integers(4096, 10**7))


class TestBatchInvarianceProperties:
    """Batching never moves a bit: every frame equals its lone render.

    The transmittance scan restarts at every frame of a batch, so how
    frames are partitioned into calls, chunked by ``batch_size`` and cut
    by the span budget must not change any frame.
    """

    @given(
        cuts=st.sets(st.integers(1, 5)),
        batch_size=st.one_of(st.none(), st.integers(1, 6)),
        budget=span_budgets,
    )
    @settings(max_examples=12, deadline=None)
    def test_foveated_batch_equals_lone(self, cuts, batch_size, budget):
        _, fmodel, frames, _ = _batch_invariance_inputs()
        lone = _lone_foveated()
        got = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv(SPAN_BUDGET_ENV, str(budget))
            for part in _partition(frames, cuts):
                got += render_foveated_batch(
                    fmodel,
                    [camera for camera, _ in part],
                    gazes=[gaze for _, gaze in part],
                    batch_size=batch_size,
                )
        for ref, res in zip(lone, got, strict=True):
            assert np.array_equal(ref.image, res.image)
            assert np.array_equal(
                ref.stats.raster_intersections_per_tile,
                res.stats.raster_intersections_per_tile,
            )

    @pytest.mark.parametrize("backend", ["packed", "packed-xp"])
    @given(
        cuts=st.sets(st.integers(1, 3)),
        batch_size=st.one_of(st.none(), st.integers(1, 4)),
        budget=span_budgets,
    )
    @settings(max_examples=10, deadline=None)
    def test_render_batch_equals_lone(self, backend, cuts, batch_size, budget):
        scene, _, _, views = _batch_invariance_inputs()
        config = RenderConfig(backend=backend)
        lone = _lone_renders(backend)
        got = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv(SPAN_BUDGET_ENV, str(budget))
            for part in _partition(views, cuts):
                got += render_batch(scene, part, config, batch_size=batch_size)
        for ref, res in zip(lone, got, strict=True):
            assert np.array_equal(ref.image, res.image)
            assert np.array_equal(
                ref.stats.dominated_pixels, res.stats.dominated_pixels
            )


class TestBandPieceProperties:
    """Band pieces: the thread count never moves a bit, and no scanned
    piece holds more than the span budget or one band."""

    @pytest.mark.parametrize("threads", [1, 4])
    def test_thread_count_invariance(self, threads):
        scene, fmodel, frames, views = _batch_invariance_inputs()
        pool = ThreadPoolExecutor(threads)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the pool threads finely
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(packed, "_pool", pool)
                mp.setenv(SPAN_BUDGET_ENV, "200")  # several pieces per frame
                full = render_batch(scene, views)
                fov = render_foveated_batch(
                    fmodel,
                    [camera for camera, _ in frames],
                    gazes=[gaze for _, gaze in frames],
                )
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()
        # The lone renders ran on this host's own pool at the default budget.
        for ref, res in zip(_lone_renders("packed"), full, strict=True):
            assert np.array_equal(ref.image, res.image)
            assert np.array_equal(
                ref.stats.dominated_pixels, res.stats.dominated_pixels
            )
        for ref, res in zip(_lone_foveated(), fov, strict=True):
            assert np.array_equal(ref.image, res.image)

    @given(budget=st.integers(1, 20000), frame=st.integers(0, 5))
    @settings(max_examples=12, deadline=None)
    def test_no_piece_exceeds_budget_or_one_band(self, budget, frame):
        scene, fmodel, frames, views = _batch_invariance_inputs()
        camera, gaze = frames[frame]
        tracer = Tracer()
        prev = set_active_tracer(tracer)
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setenv(SPAN_BUDGET_ENV, str(budget))
                render(scene, camera)
                render_foveated(fmodel, camera, gaze=gaze)
        finally:
            set_active_tracer(prev)
        full_scan, fov_scan = [
            args for name, _, _, _, _, _, args in tracer.spans() if name == "alpha-scan"
        ]

        def bands(model, weights=None):
            projected, assignment = prepare_view(model, camera)
            spans = build_row_spans(projected, build_segments(assignment))
            grid = assignment.grid
            w = None if weights is None else weights(projected, assignment, spans)
            rows = spans.span_tile // grid.tiles_x
            return np.bincount(rows, weights=w, minlength=grid.tiles_y).astype(np.int64)

        def scanned(projected, assignment, spans):
            # Spans the two foveated passes scan: kept pairs' spans.
            maps = compute_region_maps(camera, assignment.grid, fmodel.layout, gaze)
            plan = packed._foveated_plan(
                projected, assignment, maps, fmodel.quality_bounds,
                fmodel.num_levels, packed._ViewRows.build(projected, assignment),
            )
            keep = plan.keep_primary[spans.span_pair].astype(np.int64)
            if plan.keep_blend is not None:
                keep += plan.keep_blend[spans.span_pair]
            return keep

        full_bands, fov_bands = bands(scene), bands(fmodel.base, scanned)
        for scan, sizes in ((full_scan, full_bands), (fov_scan, fov_bands)):
            assert scan["spans"] == sizes.sum()
            assert scan["max_piece_spans"] <= max(budget, sizes.max())
            if budget < sizes.max():
                assert scan["pieces"] > 1


class TestQuaternionProperties:
    @given(
        quats=hnp.arrays(
            np.float64, st.tuples(st.integers(1, 20), st.just(4)),
            elements=st.floats(-10, 10),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_rotation_matrices_orthonormal(self, quats):
        mats = quaternions_to_matrices(quats)
        identity = mats @ mats.transpose(0, 2, 1)
        assert np.allclose(identity, np.eye(3), atol=1e-8)

    @given(
        quats=hnp.arrays(
            np.float64, st.tuples(st.integers(1, 20), st.just(4)),
            elements=st.floats(-5, 5),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_normalization_idempotent(self, quats):
        once = normalize_quaternions(quats)
        twice = normalize_quaternions(once)
        assert np.allclose(once, twice)


class TestSHProperties:
    @given(
        dirs=hnp.arrays(
            np.float64, st.tuples(st.integers(1, 30), st.just(3)),
            elements=st.floats(-3, 3),
        ),
        degree=st.integers(0, 3),
    )
    @settings(max_examples=50, deadline=None)
    def test_basis_finite_and_scale_invariant(self, dirs, degree):
        basis = sh_basis(dirs, degree)
        assert np.all(np.isfinite(basis))
        assert np.allclose(basis, sh_basis(dirs * 3.0, degree), atol=1e-9)


class TestPruningProperties:
    @given(
        n=st.integers(2, 60),
        fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_prune_partition(self, n, fraction, seed):
        rng = np.random.default_rng(seed)
        model = random_model(n, rng)
        ce = rng.uniform(size=n)
        result = prune_lowest_ce(model, ce, fraction)
        # Kept ∪ removed is a partition; at least one point survives.
        union = np.sort(np.concatenate([result.kept_indices, result.removed_indices]))
        assert np.array_equal(union, np.arange(n))
        assert result.model.num_points >= 1
        # Every removed point has CE <= every kept point.
        if result.removed_indices.size and result.kept_indices.size:
            assert ce[result.removed_indices].max() <= ce[result.kept_indices].min() + 1e-12


class TestCEProperties:
    @given(
        val=hnp.arrays(np.int64, st.integers(1, 50), elements=st.integers(0, 100)),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_frame_ce_nonnegative_and_zero_for_unused(self, val, seed):
        rng = np.random.default_rng(seed)
        comp = rng.integers(0, 20, size=val.shape[0])
        ce = frame_ce(val, comp)
        assert np.all(ce >= 0)
        assert np.all(ce[comp == 0] == 0)


class TestTileMergeProperties:
    @given(
        counts=hnp.arrays(
            np.float64, st.integers(1, 200), elements=st.floats(0.0, 500.0)
        ),
        threshold=st.floats(1.0, 1000.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_conserves_work_and_tiles(self, counts, threshold):
        merged = merge_tiles(counts, threshold)
        assert merged.group_counts.sum() == pytest.approx(counts.sum(), rel=1e-9, abs=1e-9)
        assert merged.group_sizes.sum() == counts.size
        assert merged.num_groups <= counts.size
        # Group indices of consecutive tiles never decrease.
        assert np.all(np.diff(merged.group_of_tile) >= 0)

    @given(
        counts=hnp.arrays(
            np.float64, st.integers(2, 100), elements=st.floats(0.1, 100.0)
        ),
        threshold=st.floats(1.0, 500.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_group_work_bounded(self, counts, threshold):
        """No merged group exceeds β unless a single tile already does."""
        merged = merge_tiles(counts, threshold)
        bound = max(threshold, counts.max()) + 1e-9
        assert np.all(merged.group_counts <= bound)


class TestRegionProperties:
    @given(
        ecc=hnp.arrays(np.float64, st.integers(1, 100), elements=st.floats(0.0, 90.0)),
        b1=st.floats(5.0, 20.0),
        gap=st.floats(1.0, 20.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_levels_monotone_in_eccentricity(self, ecc, b1, gap):
        layout = RegionLayout(boundaries_deg=(0.0, b1, b1 + gap), blend_band_deg=0.5)
        levels = layout.level_of(np.sort(ecc))
        assert np.all(np.diff(levels) >= 0)
        assert levels.min() >= 1 and levels.max() <= 3


class TestTileGridProperties:
    @given(
        width=st.integers(1, 300),
        height=st.integers(1, 300),
        tile=st.integers(1, 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_tiles_cover_image_exactly(self, width, height, tile):
        grid = TileGrid(width=width, height=height, tile_size=tile)
        area = 0
        for tid in range(grid.num_tiles):
            x0, y0, x1, y1 = grid.tile_pixel_bounds(tid)
            assert 0 <= x0 < x1 <= width
            assert 0 <= y0 < y1 <= height
            area += (x1 - x0) * (y1 - y0)
        assert area == width * height


@functools.lru_cache(maxsize=1)
def _band_cut_views():
    """Pair rows of three differently sized views of one small scene:
    ``(seg, y_lo, counts, first pair of each tile row)``."""
    scene, _, _, views = _batch_invariance_inputs()
    small = trace_cameras("kitchen", n_train=1, n_eval=1, width=70, height=52)[1]
    out = []
    for camera in (views[0], small[0], views[1]):
        projected, assignment = prepare_view(scene, camera)
        seg = build_segments(assignment)
        grid = seg.grid
        row_pairs = np.searchsorted(
            seg.pair_tiles, np.arange(grid.tiles_y + 1) * grid.tiles_x
        )
        out.append((seg, *pair_row_ranges(projected, seg), row_pairs))
    return out


# Segment length vectors: empty batches, empty segments, and singletons all
# occur in practice once several views concatenate into one batch scan.
segment_lens = hnp.arrays(
    np.int64, st.integers(0, 12), elements=st.integers(0, 6)
)


def _naive_exclusive_cumsum(values, lens):
    """Per-segment exclusive scan + totals via an explicit Python loop."""
    excl = np.zeros_like(values)
    totals = np.zeros(values.shape[:-1] + (lens.shape[0],))
    start = 0
    for s, n in enumerate(lens):
        seg = values[..., start : start + n]
        excl[..., start : start + n] = np.cumsum(seg, axis=-1) - seg
        totals[..., s] = seg.sum(axis=-1)
        start += n
    return excl, totals


class TestSegmentIndexProperties:
    @given(lens=segment_lens)
    @settings(max_examples=60, deadline=None)
    def test_from_lengths_invariants(self, lens):
        index = SegmentIndex.from_lengths(lens)
        total = int(lens.sum())
        assert index.num_segments == lens.shape[0]
        assert np.array_equal(index.lens, lens)
        # Starts are the exclusive prefix sum of the lengths.
        assert np.array_equal(index.starts, np.cumsum(lens) - lens)
        # of_item covers every row, in segment order, matching the lengths.
        assert index.of_item.shape == (total,)
        assert np.all(np.diff(index.of_item) >= 0)
        assert np.array_equal(
            np.bincount(index.of_item, minlength=lens.shape[0]), lens
        )

    @given(lens=segment_lens, seed=st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_cumsum_matches_naive(self, lens, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=int(lens.sum()))
        index = SegmentIndex.from_lengths(lens)
        excl, totals = segmented_cumsum_exclusive(values, index)
        naive_excl, naive_totals = _naive_exclusive_cumsum(values, lens)
        assert np.allclose(excl, naive_excl, atol=1e-12)
        assert np.allclose(totals, naive_totals, atol=1e-12)
        # Empty segments own no items and report an exact zero total.
        assert np.all(totals[lens == 0] == 0.0)

    @given(lens=segment_lens, seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_cumsum_2d_lanes(self, lens, seed):
        """The scan runs along the last axis of a lanes-first matrix."""
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(3, int(lens.sum())))
        index = SegmentIndex.from_lengths(lens)
        excl, totals = segmented_cumsum_exclusive(values, index)
        naive_excl, naive_totals = _naive_exclusive_cumsum(values, lens)
        assert np.allclose(excl, naive_excl, atol=1e-12)
        assert np.allclose(totals, naive_totals, atol=1e-12)

    @given(lens=segment_lens, seed=st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_transmittance_matches_naive_cumprod(self, lens, seed):
        rng = np.random.default_rng(seed)
        alphas = rng.uniform(0.0, 0.999, size=int(lens.sum()))
        index = SegmentIndex.from_lengths(lens)
        trans = segment_transmittance_exclusive(alphas.copy(), index)
        start = 0
        for n in lens:
            seg = alphas[start : start + n]
            naive = np.concatenate([[1.0], np.cumprod(1.0 - seg)[:-1]])
            assert np.allclose(trans[start : start + n], naive, atol=1e-12)
            start += n
        # Every segment starts at an exact 1.0 and never exceeds it.
        if index.starts.size and alphas.size:
            nonzero = index.lens > 0
            assert np.all(trans[index.starts[nonzero]] == 1.0)
        assert np.all((trans >= 0.0) & (trans <= 1.0))

    @given(
        lens=segment_lens,
        cuts=st.lists(st.integers(0, 12), max_size=4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_view_restart_matches_lone_scans(self, lens, cuts, seed):
        """With view offsets, every view's scan is bitwise its lone scan.

        Offsets may repeat (empty views, also at either end) and views may
        hold empty segments or no items at all.
        """
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(2, int(lens.sum())))
        num_segments = lens.shape[0]
        offsets = np.array(
            [0, *sorted(min(c, num_segments) for c in cuts), num_segments]
        )
        excl, totals = segmented_cumsum_exclusive(
            values, SegmentIndex.from_lengths(lens), group_offsets=offsets
        )
        item_at = np.concatenate([[0], np.cumsum(lens)])
        for g0, g1 in zip(offsets[:-1], offsets[1:]):
            c0, c1 = item_at[g0], item_at[g1]
            lone_excl, lone_totals = segmented_cumsum_exclusive(
                values[:, c0:c1].copy(), SegmentIndex.from_lengths(lens[g0:g1])
            )
            assert np.array_equal(excl[:, c0:c1], lone_excl)
            assert np.array_equal(totals[:, g0:g1], lone_totals)

    @given(data=st.data(), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_band_aligned_cut_matches_uncut_batch(self, data, seed):
        """Any cut of a multi-view batch on band boundaries scans bitwise
        like the uncut batch: the scan restarts at every band."""
        views = _band_cut_views()
        batch = concat_spans(
            [expand_row_spans(seg, y_lo, counts) for seg, y_lo, counts, _ in views]
        )
        rng = np.random.default_rng(seed)
        alphas = rng.uniform(0.0, 0.99, size=(4, batch.num_spans))
        nsx = get_array_namespace("numpy")
        trans, final = batch_transmittance(
            nsx, Workspace(nsx), alphas.copy(), batch.groups,
            batch.group_has_tile_last, batch.band_offsets,
        )
        trans, final = trans.copy(), final.copy()
        bands = [
            (v, r) for v, (seg, *_) in enumerate(views) for r in range(seg.grid.tiles_y)
        ]
        cuts = data.draw(st.sets(st.integers(1, len(bands) - 1)))
        bounds = [0, *sorted(cuts), len(bands)]
        s0 = g0 = 0
        for b0, b1 in zip(bounds[:-1], bounds[1:]):
            slices = []
            for v, (seg, y_lo, counts, row_pairs) in enumerate(views):
                rows = [r for w, r in bands[b0:b1] if w == v]
                if rows:
                    p0, p1 = row_pairs[rows[0]], row_pairs[rows[-1] + 1]
                    slices.append(expand_row_spans(seg, y_lo, counts, p0, p1))
            piece = concat_spans(slices)
            s1, g1 = s0 + piece.num_spans, g0 + piece.num_groups
            got_trans, got_final = batch_transmittance(
                nsx, Workspace(nsx), alphas[:, s0:s1].copy(), piece.groups,
                piece.group_has_tile_last, piece.band_offsets,
            )
            assert np.array_equal(got_trans, trans[:, s0:s1])
            assert np.array_equal(got_final, final[:, g0:g1])
            s0, g0 = s1, g1
        assert (s0, g0) == (batch.num_spans, batch.num_groups)

    def test_length_zero_batch(self):
        index = SegmentIndex.from_lengths(np.empty(0, dtype=np.int64))
        excl, totals = segmented_cumsum_exclusive(np.empty(0), index)
        assert excl.shape == (0,)
        assert totals.shape == (0,)
        trans = segment_transmittance_exclusive(np.empty(0), index)
        assert trans.shape == (0,)

    def test_all_segments_empty(self):
        index = SegmentIndex.from_lengths(np.zeros(4, dtype=np.int64))
        excl, totals = segmented_cumsum_exclusive(np.empty(0), index)
        assert excl.shape == (0,)
        assert np.array_equal(totals, np.zeros(4))


class TestSigmoidProperties:
    @given(x=hnp.arrays(np.float64, st.integers(1, 50), elements=finite_floats))
    @settings(max_examples=50, deadline=None)
    def test_bounded_and_monotone(self, x):
        out = sigmoid(x)
        assert np.all((out >= 0) & (out <= 1))
        xs = np.sort(x)
        assert np.all(np.diff(sigmoid(xs)) >= -1e-15)
