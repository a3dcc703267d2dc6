"""Property-based tests (hypothesis) on core data structures and invariants."""

import dataclasses
import functools
import sys
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from repro.splat.backends.kernels import (
    BatchTables,
    Workspace,
    batch_composite,
    batch_per_pixel_permutation,
    batch_span_alphas,
    batch_span_quad,
    batch_transmittance,
    batch_weights,
    suffix_sums,
)
from repro.splat.backends import packed, segments
from repro.splat.backends.packed import SPAN_BUDGET_ENV
from repro.splat.backends.segments import (
    LengthClasses,
    RowSpans,
    SegmentIndex,
    build_row_spans,
    build_segments,
    concat_spans,
    expand_row_spans,
    pair_row_ranges,
)
from repro.splat.camera import Camera
from repro.splat.rasterizer import TRANSMITTANCE_EPS, _transmittance_weights, composite
from repro.splat.renderer import RenderConfig, ViewCache, prepare_view, render, render_batch
from repro.splat.sh import sh_basis
from repro.splat.tiling import (
    RADIX_KEY_RANGE,
    TileAssignment,
    TileGrid,
    assign_tiles,
    pixel_tiles,
    stable_key_order,
)

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
def _dense_pair_rows(seed: int):
    """Pair rows ``(seg, y_lo, counts)`` of a small, dense random view:
    many multi-span groups."""
    model = random_model(120, np.random.default_rng(seed), extent=1.5)
    camera = Camera.from_fov(
        width=40,
        height=24,
        fov_x_deg=60.0,
        position=np.array([0.0, 0.0, -4.0]),
        look_at=np.array([0.0, 0.0, 0.0]),
    )
    projected, assignment = prepare_view(model, camera)
    seg = build_segments(assignment)
    return (seg, *pair_row_ranges(projected, seg))


class TestSpanSubsetProperties:
    """Expanding only kept pairs equals compositing the rest with zero alpha.

    This is the identity the foveated engine's level filtering rests on:
    each composite pass expands only the pairs passing its quality bound
    (:func:`expand_row_spans` with the other pairs' counts zeroed), which
    drops their spans — and emptied groups — instead of zeroing their
    alphas.  The transmittance scan and composite over the kept spans must
    reproduce the full list's pixels, including the early-termination
    gate, which reads ``group_has_tile_last`` and must follow each group's
    last kept span when the tile's last pair is dropped.
    """

    @given(
        seed=st.integers(0, 3),
        mask_seed=st.integers(0, 2**16),
        keep=st.floats(0.0, 1.0),
        drop_tile_last=st.booleans(),
        empty_tiles=st.floats(0.0, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_subset_composite_matches_zeroed_alphas(
        self, seed, mask_seed, keep, drop_tile_last, empty_tiles
    ):
        ws = Workspace()
        seg, y_lo, counts = _dense_pair_rows(seed)
        spans = expand_row_spans(seg, y_lo, counts)
        ts = seg.grid.tile_size
        rng = np.random.default_rng(mask_seed)
        # Opaque-leaning alphas so transmittance crosses the termination
        # threshold inside groups; some slots fail the intersect test.
        alphas = rng.uniform(0.0, 0.99, size=(ts, spans.num_spans))
        alphas[rng.random(alphas.shape) < 0.2] = 0.0
        # Colours per pair, so both span lists read the same table.
        pair_colors = rng.uniform(size=(seg.num_pairs, 3))
        background = rng.uniform(size=3)

        keep_pair = rng.random(seg.num_pairs) < keep
        if drop_tile_last:
            keep_pair[seg.tile_last_pair[seg.tile_last_pair >= 0]] = False
        emptied = rng.random(seg.grid.num_tiles) < empty_tiles
        keep_pair[emptied[seg.pair_tiles]] = False
        mask = keep_pair[spans.span_pair]

        def scan(alphas, colors, spans):
            """Weights and final transmittance (batch order), and pixels."""
            classes = LengthClasses.of(spans.groups)
            alphas = alphas[:, classes.span_order]
            trans, final = batch_transmittance(
                ws, alphas, classes, spans.group_has_tile_last[classes.group_order]
            )
            weights = batch_weights(ws, trans, alphas)
            pixels = batch_composite(
                ws, weights, final, colors[classes.span_order], classes, background
            )
            # Out of the workspace (the next scan reuses the slots), back in
            # batch order.
            return (
                weights[:, np.argsort(classes.span_order)],
                final[:, classes.group_rank],
                pixels[classes.group_rank],
            )

        full = scan(alphas * mask[None, :], pair_colors[spans.span_pair], spans)

        sub = expand_row_spans(seg, y_lo, np.where(keep_pair, counts, 0))
        kept_groups = np.add.reduceat(mask.astype(np.int64), spans.groups.starts) > 0
        assert sub.num_spans == int(mask.sum())
        assert sub.num_groups == int(kept_groups.sum())
        # Kept spans, in order: the full list's masked rows.
        assert np.array_equal(sub.span_pair, spans.span_pair[mask])
        assert np.array_equal(sub.span_y, spans.span_y[mask])
        # The gate flag follows each group's last *surviving* span.
        sub_last = sub.span_pair[sub.groups.last]
        assert np.array_equal(
            sub.group_has_tile_last,
            sub_last == seg.tile_last_pair[sub.group_tile],
        )
        if drop_tile_last:
            assert not sub.group_has_tile_last.any()

        if sub.num_spans:
            weights, final, pixels = scan(
                alphas[:, mask], pair_colors[sub.span_pair], sub
            )
            # A dropped span multiplies the transmittance by exactly 1.0.
            assert np.array_equal(weights, full[0][:, mask])
            assert np.array_equal(final, full[1][:, kept_groups])
            # Each group's colour sum is its own matrix product: a dropped
            # zero term shortens the product's inner length, which moves
            # how the BLAS kernel splits and fuses the later terms.
            assert np.abs(pixels - full[2][kept_groups]).max() <= 1e-15
        # Groups with no surviving span composite to pure background.
        dropped = full[2][~kept_groups]
        assert np.abs(dropped - background).max(initial=0.0) <= 1e-12


def _live_span_keys(projected, seg, spans) -> np.ndarray:
    """``pair · H + row`` of every span with a nonzero on-image alpha.

    Alphas are taken at opacity 1, the bound every opacity the engine
    scans (model and level opacities are sigmoids) stays below.
    """
    ws = Workspace()
    pairs = dict(
        packed._pair_tables(projected, seg), opacities=np.ones(seg.num_pairs)
    )
    bt = BatchTables.build(concat_spans([spans]), pairs)
    alphas = batch_span_alphas(ws, bt, batch_span_quad(ws, bt))
    span_order = bt.classes.span_order
    on_image = seg.geometry.lane_valid[spans.span_tile[span_order]].T  # (ts, R)
    live = span_order[((alphas > 0.0) & on_image).any(axis=0)]
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


def _expand_row_spans_int64(seg, y_lo, counts, p0, p1):
    """The spans of pairs ``[p0, p1)`` as a stable sort of wide int64
    ``(tile, row)`` keys orders them: the oracle of the radix-width sort."""
    ts = seg.grid.tile_size
    span_pair = np.repeat(np.arange(p0, p1, dtype=np.int64), counts[p0:p1])
    ramp = np.concatenate(
        [np.arange(c, dtype=np.int64) for c in counts[p0:p1]] + [np.empty(0, np.int64)]
    )
    span_y = y_lo[span_pair] + ramp
    span_tile = seg.pair_tiles[span_pair]
    key = span_tile * ts + (span_y - seg.geometry.origin_y[span_tile].astype(np.int64))
    order = np.argsort(key, kind="stable")
    span_pair, span_tile, span_y, key = (
        a[order] for a in (span_pair, span_tile, span_y, key)
    )
    starts = np.flatnonzero(np.diff(key, prepend=-1)).astype(np.int64)
    groups = SegmentIndex.from_lengths(np.diff(np.append(starts, key.size)))
    return RowSpans(
        seg=seg,
        span_pair=span_pair,
        span_tile=span_tile,
        span_y=span_y,
        groups=groups,
        group_tile=span_tile[starts],
        group_y=span_y[starts],
        group_has_tile_last=span_pair[groups.last] == seg.tile_last_pair[span_tile[starts]],
    )


def _assert_row_spans_equal(got, want):
    for field in dataclasses.fields(RowSpans):
        if field.name == "seg":
            continue
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "groups":
            for sub in dataclasses.fields(SegmentIndex):
                assert np.array_equal(getattr(a, sub.name), getattr(b, sub.name)), sub.name
        else:
            assert np.array_equal(a, b), field.name


def _assign_tiles_int64(means, radii, grid):
    """``(pair_tiles, pair_splats)`` by brute force: every (tile, splat)
    pair of each splat's tile rectangle, ordered by ``(tile, splat)``."""
    ts = grid.tile_size
    pairs = []
    for i, ((x, y), r) in enumerate(zip(means, radii)):
        tx = np.clip(np.floor([(x - r) / ts, (x + r) / ts]), 0, grid.tiles_x - 1).astype(int)
        ty = np.clip(np.floor([(y - r) / ts, (y + r) / ts]), 0, grid.tiles_y - 1).astype(int)
        pairs += [
            (gy * grid.tiles_x + gx, i)
            for gy in range(ty[0], ty[1] + 1)
            for gx in range(tx[0], tx[1] + 1)
        ]
    pairs.sort()
    out = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return out[:, 0], out[:, 1]


# Grids whose (tile, row) and tile-id key ranges fit 16 bits (narrow) or
# do not (wide, a 1-px tile per pixel).
_KEY_GRIDS = {
    False: st.builds(
        TileGrid, width=st.integers(1, 400), height=st.integers(1, 300),
        tile_size=st.sampled_from([4, 8, 16]),
    ),
    True: st.builds(
        TileGrid, width=st.integers(280, 400), height=st.integers(240, 300),
        tile_size=st.just(1),
    ),
}


class TestRadixKeyProperties:
    """The narrow-key span and tile sorts order exactly like int64 keys."""

    @pytest.mark.parametrize("wide", [False, True])
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1), k=st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_expand_row_spans_matches_int64_keys(self, wide, data, seed, k):
        grid = data.draw(_KEY_GRIDS[wide])
        assert (grid.num_tiles * grid.tile_size > RADIX_KEY_RANGE) == wide
        rng = np.random.default_rng(seed)
        pair_tiles = np.sort(rng.integers(0, grid.num_tiles, k))
        if wide and k >= 2:  # key range of the whole list past 16 bits
            pair_tiles[[0, -1]] = 0, grid.num_tiles - 1
        per_tile = np.bincount(pair_tiles, minlength=grid.num_tiles)
        seg = build_segments(
            TileAssignment(
                grid=grid,
                pair_tiles=pair_tiles,
                pair_splats=rng.integers(0, 50, k),
                tile_offsets=np.concatenate([[0], np.cumsum(per_tile)]),
            )
        )
        ts = grid.tile_size
        tile_y0 = seg.geometry.origin_y[pair_tiles].astype(np.int64)
        tile_rows = np.minimum(tile_y0 + ts, grid.height) - tile_y0
        y_lo = tile_y0 + rng.integers(0, tile_rows, k)
        counts = rng.integers(0, tile_y0 + tile_rows - y_lo + 1)
        if wide and k >= 2:
            counts[[0, -1]] = np.maximum(counts[[0, -1]], 1)
        p0 = data.draw(st.integers(0, k))
        p1 = data.draw(st.integers(p0, k))
        for lo, hi in ((0, k), (p0, p1)):
            _assert_row_spans_equal(
                expand_row_spans(seg, y_lo, counts, lo, hi),
                _expand_row_spans_int64(seg, y_lo, counts, lo, hi),
            )

    @pytest.mark.parametrize("wide", [False, True])
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1), m=st.integers(0, 40))
    @settings(max_examples=30, deadline=None)
    def test_assign_tiles_matches_int64_keys(self, wide, data, seed, m):
        grid = data.draw(_KEY_GRIDS[wide])
        assert (grid.num_tiles > RADIX_KEY_RANGE) == wide
        rng = np.random.default_rng(seed)
        means = rng.uniform(-10.0, 10.0, (m, 2)) + rng.uniform(
            0.0, [grid.width, grid.height], (m, 2)
        )
        radii = rng.uniform(0.5, 4.0 * grid.tile_size, m)
        projected = types.SimpleNamespace(num_visible=m, means2d=means, radii=radii)
        got = assign_tiles(projected, grid)
        want_tiles, want_splats = _assign_tiles_int64(means, radii, grid)
        assert np.array_equal(got.pair_tiles, want_tiles)
        assert np.array_equal(got.pair_splats, want_splats)
        per_tile = np.bincount(want_tiles, minlength=grid.num_tiles)
        assert np.array_equal(got.tile_offsets, np.concatenate([[0], np.cumsum(per_tile)]))

    def test_whole_frame_past_radix_range(self, monkeypatch):
        # A whole frame of 7,500 16-px tiles: its (tile, row) keys span more
        # than 16 bits, so the span sort falls back to int64 keys.
        ranges = []

        def spy(keys, key_range):
            ranges.append(key_range)
            return stable_key_order(keys, key_range)

        monkeypatch.setattr(segments, "stable_key_order", spy)
        model = random_model(150, np.random.default_rng(7), extent=2.0)
        camera = Camera.from_fov(
            width=1600, height=1200, fov_x_deg=60.0,
            position=np.array([0.0, 0.0, -4.0]), look_at=np.zeros(3),
        )
        projected, assignment = prepare_view(model, camera)
        assert assignment.grid.num_tiles >= 4096
        seg = build_segments(assignment)
        spans = build_row_spans(projected, seg)
        assert max(ranges) > RADIX_KEY_RANGE
        y_lo, counts = pair_row_ranges(projected, seg)
        _assert_row_spans_equal(
            spans, _expand_row_spans_int64(seg, y_lo, counts, 0, seg.num_pairs)
        )


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


@functools.lru_cache(maxsize=2)
def _lone_foveated(backend=None):
    _, fmodel, frames, _ = _batch_invariance_inputs()
    config = RenderConfig(backend=backend)
    return [
        render_foveated(fmodel, camera, gaze=gaze, config=config)
        for camera, gaze in frames
    ]


@functools.lru_cache(maxsize=2)
def _lone_renders(backend):
    scene, _, _, views = _batch_invariance_inputs()
    config = RenderConfig(backend=backend, collect_stats=True)
    return [render(scene, camera, config) for camera in views]


def _partition(items, cuts):
    bounds = [0, *sorted(cuts), len(items)]
    return [items[a:b] for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


# Span budgets from one span (every frame its own chunk) to far past any
# batch (every frame in one scan).
span_budgets = st.one_of(st.integers(1, 4096), st.integers(4096, 10**7))


class TestBatchInvarianceProperties:
    """Batching never moves a bit: every frame equals its lone render.

    Each pixel row's transmittance scan sees only its own spans, so how
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

    @pytest.mark.parametrize("backend", ["packed"])
    @given(
        cuts=st.sets(st.integers(1, 3)),
        batch_size=st.one_of(st.none(), st.integers(1, 4)),
        budget=span_budgets,
    )
    @settings(max_examples=10, deadline=None)
    def test_render_batch_equals_lone(self, backend, cuts, batch_size, budget):
        scene, _, _, views = _batch_invariance_inputs()
        config = RenderConfig(backend=backend, collect_stats=True)
        lone = _lone_renders(backend)
        got = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv(SPAN_BUDGET_ENV, str(budget))
            for part in _partition(views, cuts):
                got += render_batch(scene, part, config, batch_size=batch_size)
        for ref, res in zip(lone, got, strict=True):
            assert np.array_equal(ref.image, res.image)
            assert res.stats.dominated_pixels is not None
            assert np.array_equal(
                ref.stats.dominated_pixels, res.stats.dominated_pixels
            )


def _blend_tiles(maps, grid) -> np.ndarray:
    """Tiles holding a pixel the frame blends toward a second level."""
    tl, second = maps.tile_level, maps.tile_second_level
    tile_map = pixel_tiles(grid)
    inner = np.where(second > 0, np.minimum(tl, second), 0)[tile_map]
    blended = maps.needs_blend & (second[tile_map] > 0) & (maps.band_level == inner)
    return np.bincount(tile_map[blended], minlength=grid.num_tiles) > 0


class TestTileRenderReuseProperties:
    """A tile's pixels depend on the pose, the tile and its level, not on
    the gaze: two lone frames of one pose agree bitwise on every tile they
    render at the same level without blending."""

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_same_level_tiles_equal_across_gazes(self, seed):
        _, fmodel, frames, _ = _batch_invariance_inputs()
        camera = frames[0][0]
        rng = np.random.default_rng(seed)
        size = np.array([camera.width, camera.height])
        gazes = [tuple(map(float, rng.uniform(-0.25, 1.25, 2) * size)) for _ in range(2)]
        a, b = (render_foveated(fmodel, camera, gaze=g) for g in gazes)
        grid = TileGrid(width=camera.width, height=camera.height)
        same = (
            (a.maps.tile_level == b.maps.tile_level)
            & ~_blend_tiles(a.maps, grid)
            & ~_blend_tiles(b.maps, grid)
        )
        tile_map = pixel_tiles(grid)
        for t in np.flatnonzero(same):
            pixels = tile_map == t
            assert np.array_equal(a.image[pixels], b.image[pixels]), t


def _assert_same_foveated(got, ref):
    """Bitwise the same image, stats and ``level_spans`` work arrays."""
    assert np.array_equal(got.image, ref.image)
    for name in (
        "sort_intersections_per_tile", "raster_intersections_per_tile", "tile_levels",
    ):
        assert np.array_equal(getattr(got.stats, name), getattr(ref.stats, name))
    assert got.stats.blend_pixels == ref.stats.blend_pixels
    assert got.stats.num_projected == ref.stats.num_projected
    assert got.level_spans.keys() == ref.level_spans.keys()
    for t, work in got.level_spans.items():
        assert np.array_equal(work.spans, ref.level_spans[t].spans)
        assert np.array_equal(work.sort_work, ref.level_spans[t].sort_work)


def _foveated_scans(tracer):
    return [
        args for name, _, _, _, _, _, args in tracer.spans()
        if name == "alpha-scan" and "frames" in args
    ]


class TestTileStoreProperties:
    """A pose's tile renders outlive the call: through one ``ViewCache``,
    gazes at a pose arriving in any order and grouping (lone, batched,
    chunked, interleaved with another pose) give every frame bitwise its
    cache-less lone render, and a call whose (tile, level) pairs are all
    stored scans nothing."""

    @given(
        seed=st.integers(0, 2**16),
        order=st.permutations(range(8)),
        cuts=st.sets(st.integers(1, 7)),
        batch_size=st.one_of(st.none(), st.integers(1, 3)),
    )
    @settings(max_examples=10, deadline=None)
    def test_any_order_and_grouping_equals_lone(self, seed, order, cuts, batch_size):
        _, fmodel, frames, views = _batch_invariance_inputs()
        pose, other = frames[0][0], frames[1][0]
        rng = np.random.default_rng(seed)
        size = np.array([pose.width, pose.height])
        items = [
            (pose if i < 6 else other, tuple(map(float, rng.uniform(-0.25, 1.25, 2) * size)))
            for i in range(8)
        ]
        items = [items[i] for i in order]
        config = RenderConfig(backend="packed")
        lone = [render_foveated(fmodel, c, gaze=g, config=config) for c, g in items]

        cache = ViewCache()
        got = []
        for part in _partition(items, cuts):
            got += render_foveated_batch(
                fmodel, [c for c, _ in part], gazes=[g for _, g in part],
                config=config, batch_size=batch_size, cache=cache,
            )
        for res, ref in zip(got, lone, strict=True):
            _assert_same_foveated(res, ref)

        # Every pair these gazes need is stored now: rendering them again,
        # lone or batched, scans no span.
        tracer = Tracer()
        prev = set_active_tracer(tracer)
        try:
            again = [
                render_foveated(
                    fmodel, c, gaze=g, config=config, prepared=cache.get(fmodel.base, c)
                )
                for c, g in items[:2]
            ]
            again += render_foveated_batch(
                fmodel, [c for c, _ in items], gazes=[g for _, g in items],
                config=config, cache=cache,
            )
        finally:
            set_active_tracer(prev)
        for res, ref in zip(again, lone[:2] + lone, strict=True):
            _assert_same_foveated(res, ref)
        scans = _foveated_scans(tracer)
        assert len(scans) == 3
        for work in scans:
            assert work["spans"] == 0 and work["tiles_rendered"] == 0
            assert work["tiles_reused"] > 0


class TestBandPieceProperties:
    """Band pieces: the thread count never moves a bit, and no scanned
    piece holds more than the span budget or one band."""

    @pytest.mark.parametrize("threads", [1, 4])
    def test_thread_count_invariance(self, threads):
        # The render pool is the packed engine's, so both renders pin it.
        scene, fmodel, frames, views = _batch_invariance_inputs()
        pool = ThreadPoolExecutor(threads)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the pool threads finely
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(packed, "_pool", pool)
                mp.setenv(SPAN_BUDGET_ENV, "200")  # several pieces per frame
                full = render_batch(
                    scene, views, RenderConfig(backend="packed", collect_stats=True)
                )
                fov = render_foveated_batch(
                    fmodel,
                    [camera for camera, _ in frames],
                    gazes=[gaze for _, gaze in frames],
                    config=RenderConfig(backend="packed"),
                )
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()
        # The lone renders ran on this host's own pool at the default budget.
        for ref, res in zip(_lone_renders("packed"), full, strict=True):
            assert np.array_equal(ref.image, res.image)
            assert res.stats.dominated_pixels is not None
            assert np.array_equal(
                ref.stats.dominated_pixels, res.stats.dominated_pixels
            )
        for ref, res in zip(_lone_foveated("packed"), fov, strict=True):
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
                # Band pieces and their alpha-scan spans are packed's.
                config = RenderConfig(backend="packed")
                render(scene, camera, config)
                render_foveated(fmodel, camera, gaze=gaze, config=config)
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
            levels = range(1, fmodel.num_levels + 1)
            level_opacity = {t: fmodel.level_opacities(t) for t in levels}
            level_delta = {t: fmodel.level_color_delta(t) for t in levels}
            store = packed.TileStore()
            store.bind(
                projected, assignment,
                (fmodel.quality_bounds, *level_opacity.values(), *level_delta.values(),
                 np.zeros(3)),
                fmodel.num_levels,
            )
            plan = packed._frame_plan(maps, assignment.grid, store.rows, store.tile_pairs)
            need = np.zeros_like(store.rendered)
            plan.mark_needs(need)
            _, pass_counts, _ = store.passes(
                need,
                np.stack(list(level_opacity.values())),
                np.stack(list(level_delta.values())),
            )
            return sum(
                (counts > 0)[spans.span_pair].astype(np.int64) for counts in pass_counts
            )

        full_bands, fov_bands = bands(scene), bands(fmodel.base, scanned)
        for scan, sizes in ((full_scan, full_bands), (fov_scan, fov_bands)):
            assert scan["spans"] == sizes.sum()
            assert scan["max_piece_spans"] <= max(budget, sizes.max())
            if budget < sizes.max():
                assert scan["pieces"] > 1


@functools.lru_cache(maxsize=4)
def _reference_foveated_inputs(overlap: bool, width: int, height: int):
    """A foveated model and a pose; ``overlap`` puts neighbouring bands
    closer than twice the band half-width, so blend bands overlap."""
    scene = generate_scene("kitchen", n_points=500)
    layout = (
        RegionLayout(boundaries_deg=(0.0, 8.0, 10.0, 12.5), blend_band_deg=1.5)
        if overlap
        else EVAL_REGION_LAYOUT
    )
    fmodel = uniform_foveated_model(scene, layout, EVAL_LEVEL_FRACTIONS)
    cameras = trace_cameras("kitchen", n_train=1, n_eval=1, width=width, height=height)
    return fmodel, cameras[0][0]


class TestFoveatedReferenceProperties:
    """Packed foveated frames stay within 1e-10 of the ``reference`` oracle
    at any gaze, on ragged grids and with overlapping blend bands.  The
    oracle blends every band pixel of a blend tile, so a band pixel the
    plan or the blend pass misses fails here."""

    @given(
        gx=st.floats(-0.5, 1.5),
        gy=st.floats(-0.5, 1.5),
        size=st.sampled_from([(64, 48), (70, 45)]),
        overlap=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_packed_matches_reference(self, gx, gy, size, overlap):
        fmodel, camera = _reference_foveated_inputs(overlap, *size)
        gaze = (gx * size[0], gy * size[1])
        ref = render_foveated(
            fmodel, camera, gaze=gaze, config=RenderConfig(backend="reference")
        )
        got = render_foveated(
            fmodel, camera, gaze=gaze, config=RenderConfig(backend="packed")
        )
        assert np.abs(got.image - ref.image).max() <= 1e-10
        assert got.stats.blend_pixels == ref.stats.blend_pixels
        assert np.array_equal(
            got.stats.sort_intersections_per_tile, ref.stats.sort_intersections_per_tile
        )
        assert np.allclose(
            got.stats.raster_intersections_per_tile,
            ref.stats.raster_intersections_per_tile,
            rtol=0.0,
            atol=1e-10,
        )


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


def _multi_view_batch():
    """Row spans of the :func:`_band_cut_views` views, in one batch."""
    return concat_spans(
        [expand_row_spans(seg, y_lo, counts) for seg, y_lo, counts, _ in _band_cut_views()]
    )


# Segment length vectors: empty batches, empty segments, and singletons all
# occur in practice once several views concatenate into one batch scan.
segment_lens = hnp.arrays(
    np.int64, st.integers(0, 12), elements=st.integers(0, 6)
)
# Span groups are never empty.
group_lens = hnp.arrays(np.int64, st.integers(0, 12), elements=st.integers(1, 6))


def _group_columns(index: SegmentIndex, groups: np.ndarray) -> np.ndarray:
    """The item columns of ``groups`` (in that order), concatenated."""
    lens = index.lens[groups]
    out = np.repeat(index.starts[groups] - (np.cumsum(lens) - lens), lens)
    return out + np.arange(out.shape[0])


def _class_scan(alphas, groups, has_last):
    """:func:`batch_transmittance` on batch-order inputs, results in batch
    order: ``(trans, final)``."""
    classes = LengthClasses.of(groups)
    trans, final = batch_transmittance(
        Workspace(), alphas[:, classes.span_order], classes,
        has_last[classes.group_order],
    )
    return trans[:, np.argsort(classes.span_order)], final[:, classes.group_rank]


def _misaligned(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` one float64 past the start of its own allocation."""
    out = np.empty(a.size + 1)[1:].reshape(a.shape)
    out[...] = a
    return out


def _class_composite(
    weights, final, colors, groups, background, place=np.ascontiguousarray
):
    """:func:`batch_composite` on batch-order inputs, pixels in batch order.

    ``place`` copies each class-order input into the C-order buffer the
    kernel reads, as the engine's workspace slots are.
    """
    classes = LengthClasses.of(groups)
    pixels = batch_composite(
        Workspace(),
        place(weights[:, classes.span_order]),
        place(final[:, classes.group_order]),
        place(colors[classes.span_order]),
        classes,
        background,
    )
    return pixels[classes.group_rank]


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

    @given(lens=group_lens)
    @settings(max_examples=60, deadline=None)
    def test_length_class_layout(self, lens):
        """Groups move stably by length; each keeps its spans in order."""
        index = SegmentIndex.from_lengths(lens)
        classes = LengthClasses.of(index)
        order = classes.group_order
        assert np.array_equal(order, np.argsort(lens, kind="stable"))
        assert np.array_equal(classes.group_rank[order], np.arange(lens.shape[0]))
        assert np.array_equal(classes.groups.lens, lens[order])
        assert np.array_equal(classes.span_order, _group_columns(index, order))
        # The blocks are the classes of length >= 2, side by side, after
        # the length-1 groups; each names its first group and column.
        g_end = int((lens == 1).sum())
        for c0, g0, n, length in classes.blocks:
            assert g0 == g_end and c0 == classes.groups.starts[g0]
            assert np.all(classes.groups.lens[g0 : g0 + n] == length)
            g_end = g0 + n
        assert g_end == lens.shape[0]
        assert sum(n * length for *_, n, length in classes.blocks) == int(
            lens[lens > 1].sum()
        )

    @given(lens=group_lens, seed=st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_cumsum_matches_naive(self, lens, seed):
        """The class suffix sums are each group's sequential back-to-front
        sums, bit for bit."""
        rng = np.random.default_rng(seed)
        classes = LengthClasses.of(SegmentIndex.from_lengths(lens))
        values = rng.normal(size=int(lens.sum()))
        got = suffix_sums(Workspace(), values, classes)
        for start, n in zip(classes.groups.starts, classes.groups.lens):
            seg = values[start : start + n]
            naive = np.append(np.cumsum(seg[:0:-1])[::-1], 0.0)
            assert np.array_equal(got[start : start + n], naive)

    @given(lens=group_lens, seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_cumsum_2d_lanes(self, lens, seed):
        """The suffix sums run along the last axis of a lanes-first matrix."""
        rng = np.random.default_rng(seed)
        classes = LengthClasses.of(SegmentIndex.from_lengths(lens))
        values = rng.normal(size=(3, int(lens.sum())))
        got = suffix_sums(Workspace(), values, classes)
        for lane in range(3):
            alone = suffix_sums(Workspace(), values[lane].copy(), classes)
            assert np.array_equal(got[lane], alone)

    @given(lens=group_lens, seed=st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_transmittance_matches_naive_cumprod(self, lens, seed):
        """The class scan is each group's ``np.cumprod``, bit for bit."""
        rng = np.random.default_rng(seed)
        alphas = rng.uniform(0.0, 0.999, size=(2, int(lens.sum())))
        alphas[rng.random(alphas.shape) < 0.2] = 0.0
        classes = LengthClasses.of(SegmentIndex.from_lengths(lens))
        trans, _ = batch_transmittance(
            Workspace(), alphas, classes, np.zeros(lens.shape[0], dtype=bool)
        )
        for start, n in zip(classes.groups.starts, classes.groups.lens):
            seg = alphas[:, start : start + n]
            naive = np.hstack([np.ones((2, 1)), np.cumprod(1.0 - seg, axis=1)[:, :-1]])
            assert np.array_equal(trans[:, start : start + n], naive)

    @given(
        lens=group_lens,
        cuts=st.lists(st.integers(0, 12), max_size=4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_view_restart_matches_lone_scans(self, lens, cuts, seed):
        """Every view of a batch scans bitwise like the view alone.

        View bounds may repeat (empty views, also at either end).
        """
        rng = np.random.default_rng(seed)
        alphas = rng.uniform(0.0, 0.99, size=(2, int(lens.sum())))
        has_last = rng.random(lens.shape[0]) < 0.5
        index = SegmentIndex.from_lengths(lens)
        trans, final = _class_scan(alphas, index, has_last)
        num_groups = lens.shape[0]
        offsets = [0, *sorted(min(c, num_groups) for c in cuts), num_groups]
        item_at = np.concatenate([[0], np.cumsum(lens)])
        for g0, g1 in zip(offsets[:-1], offsets[1:]):
            c0, c1 = item_at[g0], item_at[g1]
            lone_trans, lone_final = _class_scan(
                alphas[:, c0:c1], SegmentIndex.from_lengths(lens[g0:g1]),
                has_last[g0:g1],
            )
            assert np.array_equal(trans[:, c0:c1], lone_trans)
            assert np.array_equal(final[:, g0:g1], lone_final)

    @given(data=st.data(), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_band_aligned_cut_matches_uncut_batch(self, data, seed):
        """Any cut of a multi-view batch on band boundaries scans bitwise
        like the uncut batch."""
        views = _band_cut_views()
        batch = _multi_view_batch()
        rng = np.random.default_rng(seed)
        alphas = rng.uniform(0.0, 0.99, size=(4, batch.num_spans))
        trans, final = _class_scan(alphas, batch.groups, batch.group_has_tile_last)
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
            got_trans, got_final = _class_scan(
                alphas[:, s0:s1], piece.groups, piece.group_has_tile_last
            )
            assert np.array_equal(got_trans, trans[:, s0:s1])
            assert np.array_equal(got_final, final[:, g0:g1])
            s0, g0 = s1, g1
        assert (s0, g0) == (batch.num_spans, batch.num_groups)

    @given(data=st.data(), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_tile_aligned_cut_matches_uncut_batch(self, data, seed):
        """Any cut of a multi-view batch on tile boundaries scans bitwise
        like the uncut batch."""
        batch = _multi_view_batch()
        views = batch.views
        rng = np.random.default_rng(seed)
        alphas = rng.uniform(0.0, 0.99, size=(4, batch.num_spans))
        trans, final = _class_scan(alphas, batch.groups, batch.group_has_tile_last)
        tiles = [(v, t) for v, s in enumerate(views) for t in np.unique(s.group_tile)]
        cuts = data.draw(st.sets(st.integers(1, len(tiles) - 1)))
        bounds = [0, *sorted(cuts), len(tiles)]
        s0 = g0 = 0
        for b0, b1 in zip(bounds[:-1], bounds[1:]):
            slices = []
            for v, spans in enumerate(views):
                picked = [t for w, t in tiles[b0:b1] if w == v]
                if picked:
                    mask = np.zeros(spans.seg.grid.num_tiles, dtype=bool)
                    mask[picked] = True
                    slices.append(spans.subset(mask))
            piece = concat_spans(slices)
            s1, g1 = s0 + piece.num_spans, g0 + piece.num_groups
            got_trans, got_final = _class_scan(
                alphas[:, s0:s1], piece.groups, piece.group_has_tile_last
            )
            assert np.array_equal(got_trans, trans[:, s0:s1])
            assert np.array_equal(got_final, final[:, g0:g1])
            s0, g0 = s1, g1
        assert (s0, g0) == (batch.num_spans, batch.num_groups)

    @given(data=st.data(), seed=st.integers(0, 2**16), shuffle=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_group_partition_scans_like_uncut_batch(self, data, seed, shuffle):
        """Any partition of a multi-view batch at group boundaries, its
        groups in any order, scans bitwise like the uncut batch: a group's
        scan sees no other group."""
        batch = _multi_view_batch()
        groups, q = batch.groups, batch.num_groups
        rng = np.random.default_rng(seed)
        alphas = rng.uniform(0.0, 0.99, size=(4, batch.num_spans))
        alphas[rng.random(alphas.shape) < 0.2] = 0.0
        trans, final = _class_scan(alphas, groups, batch.group_has_tile_last)
        order = rng.permutation(q) if shuffle else np.arange(q)
        cuts = data.draw(st.sets(st.integers(1, q - 1), max_size=12))
        for part in np.split(order, sorted(cuts)):
            cols = _group_columns(groups, part)
            got_trans, got_final = _class_scan(
                alphas[:, cols], SegmentIndex.from_lengths(groups.lens[part]),
                batch.group_has_tile_last[part],
            )
            assert np.array_equal(got_trans, trans[:, cols])
            assert np.array_equal(got_final, final[:, part])

    def test_length_zero_batch(self):
        classes = LengthClasses.of(SegmentIndex.from_lengths(np.empty(0, dtype=np.int64)))
        assert classes.blocks == ()
        trans, final = batch_transmittance(
            Workspace(), np.empty((4, 0)), classes, np.empty(0, dtype=bool)
        )
        assert trans.shape == (4, 0)
        assert final.shape == (4, 0)
        assert suffix_sums(Workspace(), np.empty(0), classes).shape == (0,)


class TestCompositePremise:
    """A group's composited pixels are its own ``(ts, L) @ (L, 3)`` product.

    The packed composite runs one batched ``np.matmul`` per length class,
    so batch invariance rests on the BLAS giving each group the same bits
    whatever batch, class neighbours or buffer offset it comes with.
    """

    @given(
        lens=hnp.arrays(np.int64, st.integers(0, 24), elements=st.integers(1, 64)),
        seed=st.integers(0, 2**16),
    )
    @example(lens=np.empty(0, dtype=np.int64), seed=0)
    @example(lens=np.ones(9, dtype=np.int64), seed=1)
    @settings(max_examples=80, deadline=None)
    def test_group_pixels_independent_of_batch_and_offset(self, lens, seed):
        rng = np.random.default_rng(seed)
        ts, q, r = 16, lens.shape[0], int(lens.sum())
        groups = SegmentIndex.from_lengths(lens)
        weights = rng.uniform(size=(ts, r))
        weights[rng.random(weights.shape) < 0.2] = 0.0
        colors = rng.uniform(size=(r, 3))
        final = rng.uniform(size=(ts, q))
        background = rng.uniform(size=3)

        whole = _class_composite(weights, final, colors, groups, background)
        assert whole.shape == (q, ts, 3)
        shifted = _class_composite(
            weights, final, colors, groups, background, place=_misaligned
        )
        assert np.array_equal(shifted, whole)
        # Any partition at group boundaries, groups reordered.
        order = rng.permutation(q)
        cuts = np.sort(rng.choice(np.arange(1, q), size=rng.integers(0, q), replace=False)) if q else []
        for part in np.split(order, cuts):
            cols = _group_columns(groups, part)
            got = _class_composite(
                weights[:, cols], final[:, part], colors[cols],
                SegmentIndex.from_lengths(lens[part]), background,
            )
            assert np.array_equal(got, whole[part])


class TestReferenceTransmittanceProperties:
    """On a single tile, the class scan is bitwise the reference's.

    The reference composites a tile's whole ``(S, P)`` alpha stack with
    ``np.cumprod``; the packed engine scans each pixel row's group of
    spans, without the splats that miss the row.  Transmittance, weights
    and the final transmittance (with its early-termination gate at the
    tile's last splat) must agree to the bit.
    """

    @given(
        seed=st.integers(0, 2**32 - 1),
        splats=st.integers(1, 30),
        ts=st.sampled_from([2, 4, 8]),
        drop_last=st.booleans(),
        per_pixel_sort=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_single_tile_matches_reference(
        self, seed, splats, ts, drop_last, per_pixel_sort
    ):
        rng = np.random.default_rng(seed)
        # (S, rows, lanes): opaque-leaning, so pixels cross
        # TRANSMITTANCE_EPS mid-stack; some slots fail the intersect test.
        stack = rng.uniform(0.0, 0.999, size=(splats, ts, ts))
        stack[rng.random(stack.shape) < 0.2] = 0.0
        # Pixel (0, 0) crosses the threshold next to its edge: 0.1^4.
        stack[:, 0, 0] = 0.9
        if per_pixel_sort:
            # Every row keeps every splat (``full_rows``): the gate sits at
            # the per-pixel deepest one.  Coarse depths make ties.
            base = rng.integers(1, 4, splats).astype(np.float64)
            quad = rng.integers(0, 3, size=stack.shape) * 50.0
            keep = np.ones((splats, ts), dtype=bool)
        else:
            # Splats missing a whole row (but row 0) have no span there.
            miss = rng.random((splats, ts)) < 0.3
            miss[:, 0] = False
            stack[miss] = 0.0
            if drop_last:
                stack[-1] = 0.0
            keep = stack.any(axis=2)
        ref_alphas = stack.reshape(splats, -1)  # (S, P), row-major pixels
        if per_pixel_sort:
            depths = base[:, None] * (1.0 + 0.01 * quad.reshape(splats, -1))
            order = np.argsort(depths, axis=0, kind="stable")
            ref_alphas = np.take_along_axis(ref_alphas, order, axis=0)
        ref_weights, ref_final = _transmittance_weights(ref_alphas)
        ref_trans = np.vstack(
            [np.ones((1, ref_alphas.shape[1])), np.cumprod(1.0 - ref_alphas, axis=0)[:-1]]
        )
        assert splats < 6 or (ref_trans[:, 0] < TRANSMITTANCE_EPS).any()

        # Group y: the splats with a span on row y, in depth order.
        rows = np.flatnonzero(keep.any(axis=0))
        span_row, span_splat = np.nonzero(keep.T)
        index = SegmentIndex.from_lengths(keep[:, rows].sum(axis=0))
        has_last = span_splat[index.last] == splats - 1
        classes = LengthClasses.of(index)
        span_splat = span_splat[classes.span_order]
        span_row = span_row[classes.span_order]
        alphas = stack[span_splat, span_row].T.copy()  # (ts, R), class order
        if per_pixel_sort:
            fake_tables = types.SimpleNamespace(depths=base, span_pair=span_splat)
            perm = batch_per_pixel_permutation(
                fake_tables, quad[span_splat, span_row].T, classes.groups
            )
            alphas = np.take_along_axis(alphas, perm, axis=-1)
        ws = Workspace()
        trans, final = batch_transmittance(
            ws, alphas, classes, has_last[classes.group_order]
        )
        trans = trans.copy()
        weights = batch_weights(ws, trans.copy(), alphas)

        ref_pixel = rows[classes.group_order][:, None] * ts + np.arange(ts)  # (Q, ts)
        assert np.array_equal(final, ref_final[ref_pixel].T)
        for g, (start, n) in enumerate(zip(classes.groups.starts, classes.groups.lens)):
            cols = slice(start, start + n)
            pix = ref_pixel[g]
            # Slot i of a group is the i-th of its kept splats (per pixel
            # order when sorted); the reference scans every splat.
            if per_pixel_sort:
                slots = np.arange(splats)[:, None]
            else:
                slots = span_splat[cols][:, None]
            assert np.array_equal(trans[:, cols], ref_trans[slots, pix].T)
            assert np.array_equal(weights[:, cols], ref_weights[slots, pix].T)
        # Rows without a span see no splat: the reference leaves them clear.
        missed = np.setdiff1d(np.arange(ts), rows)
        assert np.all(ref_final.reshape(ts, ts)[missed] == 1.0)


class TestSigmoidProperties:
    @given(x=hnp.arrays(np.float64, st.integers(1, 50), elements=finite_floats))
    @settings(max_examples=50, deadline=None)
    def test_bounded_and_monotone(self, x):
        out = sigmoid(x)
        assert np.all((out >= 0) & (out <= 1))
        xs = np.sort(x)
        assert np.all(np.diff(sigmoid(xs)) >= -1e-15)
