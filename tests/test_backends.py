"""Backend equivalence: ``packed`` must match ``reference`` within 1e-10.

Frames are also held to the 2e-15 they actually reach (``EXACT_TOL``).

The packed engine replaces the per-tile loops with whole-frame segmented
span operations; these tests pin it to the reference oracle on images,
statistics and gradients across random scenes — including zero-splat tiles,
per-pixel sorting, non-tile-multiple resolutions, and foveated frames with
active blend bands — plus the backend table and its selection.
"""

import numpy as np
import pytest

from repro.foveation import render_foveated, render_multi_model, uniform_foveated_model
from repro.harness import EVAL_LEVEL_FRACTIONS, EVAL_REGION_LAYOUT
from repro.scenes import generate_scene, trace_cameras
from repro.splat import Camera, GaussianModel, RenderConfig, random_model, render
from repro.splat.backends import (
    DEFAULT_BACKEND,
    RasterBackend,
    Workspace,
    available_backends,
    describe_backends,
    get_backend,
    resolve_backend_name,
    set_default_backend,
    span_chunk_budget,
)
from repro.splat.backends.packed import (
    DEFAULT_SPAN_CHUNK_BUDGET,
    SPAN_BUDGET_ENV,
    TILE_BUDGET_ENV,
    _band_pieces,
    _Source,
    _ViewRows,
    tile_span_budget,
)
from repro.splat.backends.segments import build_row_spans, build_segments
from repro.splat.rasterizer import rasterize, rasterize_backward
from repro.splat.renderer import prepare_view

TOL = 1e-10
# What packed frames actually agree to: transmittance, weights and gates are
# bitwise the reference's, so only the colour sums differ (each group's own
# ``(ts, L) @ (L, 3)`` product against the reference's whole-tile product),
# in the last bits.
EXACT_TOL = 2e-15

PACKED_BACKENDS = ("packed",)


def random_scene(seed: int, n: int = 200) -> GaussianModel:
    return random_model(n, np.random.default_rng(seed), extent=2.0)


def camera(width=96, height=64) -> Camera:
    return Camera.from_fov(
        width=width,
        height=height,
        fov_x_deg=60.0,
        position=np.array([0.0, 0.0, -4.0]),
        look_at=np.array([0.0, 0.0, 0.0]),
    )


def assert_render_equivalent(model, cam, packed_backend="packed", **config_kwargs):
    config_kwargs.setdefault("collect_stats", True)
    ref = render(model, cam, RenderConfig(backend="reference", **config_kwargs))
    pk = render(model, cam, RenderConfig(backend=packed_backend, **config_kwargs))
    assert np.allclose(ref.image, pk.image, atol=TOL)
    assert np.abs(ref.image - pk.image).max(initial=0.0) <= EXACT_TOL
    if config_kwargs["collect_stats"]:
        assert ref.stats.dominated_pixels is not None
        assert np.array_equal(
            ref.stats.dominated_pixels, pk.stats.dominated_pixels
        )
    assert np.array_equal(
        ref.stats.intersections_per_tile, pk.stats.intersections_per_tile
    )
    assert np.array_equal(ref.stats.tiles_per_point, pk.stats.tiles_per_point)
    return ref, pk


class TestForwardEquivalence:
    @pytest.mark.parametrize("backend", PACKED_BACKENDS)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_scenes(self, seed, backend):
        assert_render_equivalent(random_scene(seed), camera(), packed_backend=backend)

    @pytest.mark.parametrize("backend", PACKED_BACKENDS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_per_pixel_sort(self, seed, backend):
        assert_render_equivalent(
            random_scene(seed), camera(), packed_backend=backend,
            per_pixel_sort=True,
        )

    def test_per_pixel_sort_early_termination_gate(self):
        # Regression: the per-pixel-sorted early-termination gate sits at the
        # per-pixel *deepest* splat of the full tile list.  A mid-depth
        # splat that is narrow in y (its spans prune away from most rows)
        # can still be the per-pixel deepest under the depth key
        # ``z (1 + 0.01 q)``, so the packed engine must keep every tile row
        # in this mode; with a white background the gate mismatch would
        # show up at ~1e-4.
        model = GaussianModel(
            positions=np.array(
                [[0.0, 0.0, 0.0], [0.1, 0.3, 1.0], [0.0, 0.0, 2.0]]
            ),
            log_scales=np.log(
                [[0.6, 0.6, 0.3], [0.5, 0.004, 0.3], [0.7, 0.7, 0.3]]
            ),
            rotations=np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)),
            opacity_logits=np.array([6.0, 2.0, 6.0]),
            sh=np.full((3, 1, 3), 0.4),
        )
        assert_render_equivalent(
            model, camera(), per_pixel_sort=True, background=(1.0, 1.0, 1.0)
        )

    @pytest.mark.parametrize("backend", PACKED_BACKENDS)
    def test_non_tile_multiple_resolution(self, backend):
        # 70x52 is not a multiple of the 16px tile: edge tiles have partial
        # rows and lanes.
        assert_render_equivalent(
            random_scene(7), camera(width=70, height=52), packed_backend=backend
        )

    def test_zero_splat_tiles(self):
        # A single tiny splat: almost every tile is empty.
        model = GaussianModel(
            positions=np.array([[0.0, 0.0, 0.0]]),
            log_scales=np.log(np.full((1, 3), 0.05)),
            rotations=np.array([[1.0, 0.0, 0.0, 0.0]]),
            opacity_logits=np.array([2.0]),
            sh=np.full((1, 1, 3), 0.5),
        )
        ref, pk = assert_render_equivalent(
            model, camera(), background=(0.2, 0.4, 0.6)
        )
        assert ref.stats.total_intersections > 0

    def test_fully_empty_frame(self):
        model = random_scene(11)
        model.positions[:, 2] = -100.0  # everything behind the camera
        ref, pk = assert_render_equivalent(model, camera())
        assert ref.stats.total_intersections == 0

    def test_kitchen_scene(self, small_scene, train_cameras):
        assert_render_equivalent(small_scene, train_cameras[0])


class TestBackwardEquivalence:
    @pytest.mark.parametrize("backend", PACKED_BACKENDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradients_match(self, seed, backend):
        model = random_scene(seed)
        cam = camera()
        projected, assignment = prepare_view(model, cam)
        image, _ = rasterize(
            projected, assignment, model.num_points, collect_stats=False,
            backend="reference",
        )
        grads = {
            be: rasterize_backward(
                projected,
                assignment,
                model.num_points,
                grad_image=image,
                backend=be,
            )
            for be in ("reference", backend)
        }
        for field in ("color", "opacity", "log_scale"):
            ref = getattr(grads["reference"], field)
            pk = getattr(grads[backend], field)
            assert np.allclose(ref, pk, atol=TOL), field

    def test_gradients_with_background(self):
        model = random_scene(5)
        cam = camera(width=70, height=52)
        background = np.array([0.3, 0.1, 0.8])
        projected, assignment = prepare_view(model, cam)
        grad_image = np.random.default_rng(0).normal(
            size=(cam.height, cam.width, 3)
        )
        ref = rasterize_backward(
            projected, assignment, model.num_points, grad_image=grad_image,
            background=background, backend="reference",
        )
        pk = rasterize_backward(
            projected, assignment, model.num_points, grad_image=grad_image,
            background=background, backend="packed",
        )
        for field in ("color", "opacity", "log_scale"):
            assert np.allclose(
                getattr(ref, field), getattr(pk, field), atol=TOL
            ), field


class TestFoveatedEquivalence:
    @pytest.fixture(scope="class")
    def fmodel(self, small_scene):
        return uniform_foveated_model(
            small_scene, EVAL_REGION_LAYOUT, EVAL_LEVEL_FRACTIONS
        )

    def assert_fr_equal(self, ref, pk):
        assert np.allclose(ref.image, pk.image, atol=TOL)
        assert np.abs(ref.image - pk.image).max(initial=0.0) <= EXACT_TOL
        assert ref.stats.blend_pixels == pk.stats.blend_pixels
        assert np.array_equal(
            ref.stats.sort_intersections_per_tile,
            pk.stats.sort_intersections_per_tile,
        )
        assert np.allclose(
            ref.stats.raster_intersections_per_tile,
            pk.stats.raster_intersections_per_tile,
            atol=TOL,
        )

    @pytest.mark.parametrize("backend", PACKED_BACKENDS)
    def test_foveated_with_active_blend_bands(self, fmodel, train_cameras, backend):
        ref = render_foveated(
            fmodel, train_cameras[0], config=RenderConfig(backend="reference")
        )
        pk = render_foveated(
            fmodel, train_cameras[0], config=RenderConfig(backend=backend)
        )
        # The scenario must actually exercise the two-level blending path.
        assert ref.stats.blend_pixels > 0
        self.assert_fr_equal(ref, pk)

    @pytest.mark.parametrize("gaze", [(0.0, 0.0), (-50.0, 500.0)])
    def test_foveated_gazes(self, fmodel, train_cameras, gaze):
        ref = render_foveated(
            fmodel, train_cameras[0], gaze=gaze,
            config=RenderConfig(backend="reference"),
        )
        pk = render_foveated(
            fmodel, train_cameras[0], gaze=gaze,
            config=RenderConfig(backend="packed"),
        )
        self.assert_fr_equal(ref, pk)

    def test_multi_model(self, fmodel, train_cameras):
        models = [fmodel.level_model(t) for t in range(1, fmodel.num_levels + 1)]
        ref = render_multi_model(
            models, fmodel.layout, train_cameras[0],
            config=RenderConfig(backend="reference"),
        )
        pk = render_multi_model(
            models, fmodel.layout, train_cameras[0],
            config=RenderConfig(backend="packed"),
        )
        assert ref.stats.blend_pixels > 0
        self.assert_fr_equal(ref, pk)


class TestBackendSelection:
    def test_available(self):
        assert set(available_backends()) >= {"packed", "reference"}

    def test_default_is_packed(self):
        assert DEFAULT_BACKEND == "packed"
        assert resolve_backend_name(None) in available_backends()

    def test_explicit_name_wins(self):
        assert get_backend("reference").name == "reference"
        assert get_backend("packed").name == "packed"

    def test_instance_passthrough(self):
        engine = get_backend("reference")
        assert get_backend(engine) is engine

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        assert resolve_backend_name(None) == "reference"
        assert get_backend(None).name == "reference"

    def test_set_default_backend_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "packed")
        set_default_backend("reference")
        try:
            assert resolve_backend_name(None) == "reference"
        finally:
            set_default_backend(None)

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown rasterization backend"):
            get_backend("does-not-exist")
        with pytest.raises(ValueError, match="unknown rasterization backend"):
            set_default_backend("does-not-exist")

    def test_trace_setup_with_reference_backend(self):
        # harness-level selection: ground truth renders run on the chosen
        # engine and match the default one.
        from repro.harness import setup_trace

        a = setup_trace("kitchen", n_points=120, width=48, height=32, backend="packed")
        b = setup_trace(
            "kitchen", n_points=120, width=48, height=32, backend="reference"
        )
        for ia, ib in zip(a.eval_targets, b.eval_targets):
            assert np.allclose(ia, ib, atol=TOL)


class TestRowSpansSubset:
    """``RowSpans.subset`` must keep span ordering and group offsets coherent.

    Previously only exercised indirectly through foveated blend bands; the
    batch path also relies on subset-produced spans concatenating cleanly.
    """

    @pytest.fixture(scope="class")
    def spans(self):
        from repro.splat.backends.segments import build_row_spans, build_segments

        model = random_scene(3, n=300)
        projected, assignment = prepare_view(model, camera())
        spans = build_row_spans(projected, build_segments(assignment))
        assert spans.num_spans > 0 and spans.num_groups > 10
        return spans

    @pytest.fixture(scope="class")
    def subset(self, spans):
        # Keep every other tile that actually carries spans.
        num_tiles = spans.seg.grid.num_tiles
        mask = np.zeros(num_tiles, dtype=bool)
        mask[np.unique(spans.span_tile)[::2]] = True
        sub = spans.subset(mask)
        assert 0 < sub.num_spans < spans.num_spans
        return mask, sub, mask[spans.span_tile]

    def test_span_ordering_preserved(self, spans, subset):
        mask, sub, keep_spans = subset
        # The kept spans are exactly the masked rows, in original order.
        assert np.array_equal(sub.span_pair, spans.span_pair[keep_spans])
        assert np.array_equal(sub.span_tile, spans.span_tile[keep_spans])
        assert np.array_equal(sub.span_y, spans.span_y[keep_spans])
        # Still sorted by (tile, row) with stable depth order inside groups.
        key = sub.span_tile * spans.seg.grid.tile_size + sub.span_y
        assert np.all(np.diff(key) >= 0)

    def test_group_offsets_consistent(self, spans, subset):
        mask, sub, _ = subset
        keep_groups = mask[spans.group_tile]
        # Group lengths survive; offsets are recomputed densely.
        assert np.array_equal(sub.groups.lens, spans.groups.lens[keep_groups])
        assert np.array_equal(
            sub.groups.starts, np.cumsum(sub.groups.lens) - sub.groups.lens
        )
        assert int(sub.groups.lens.sum()) == sub.num_spans
        # Group metadata rows align with the groups' first spans.
        assert np.array_equal(sub.group_tile, sub.span_tile[sub.groups.starts])
        assert np.array_equal(sub.group_y, sub.span_y[sub.groups.starts])
        assert np.array_equal(
            sub.group_has_tile_last, spans.group_has_tile_last[keep_groups]
        )

    def test_subset_concatenates_cleanly(self, spans, subset):
        from repro.splat.backends.segments import concat_spans

        mask, sub, _ = subset
        inverse = spans.subset(~mask)
        batch = concat_spans([sub, inverse])
        assert batch.num_spans == spans.num_spans
        assert batch.num_groups == spans.num_groups
        # from_lengths over the concatenated group lens reproduces each
        # view's internal offsets, shifted by the view's span offset.
        for v, part in enumerate(batch.views):
            got = batch.groups.starts[batch.view_groups(v)]
            assert np.array_equal(got, part.groups.starts + batch.span_offsets[v])


class TestSceneEquivalenceAtScale:
    @pytest.mark.parametrize("backend", PACKED_BACKENDS)
    def test_generated_scene_256(self, backend):
        scene = generate_scene("garden", n_points=800)
        (train, _) = trace_cameras(
            "garden", n_train=1, n_eval=1, width=160, height=112
        )
        assert_render_equivalent(scene, train[0], packed_backend=backend)


def _render_twice_around(render_x, render_y):
    """Render X on a freshly trimmed workspace, then Y, then X again.

    Every packed pass keeps its scratch in the engine's workspace, whose
    slots hold stale data from whatever ran before; a frame must not depend
    on it.  Y should be larger and differently shaped than X, so X's second
    render runs on grown slots full of Y's intermediates.
    """
    get_backend("packed")._ws.trim()
    first = render_x()
    render_y()
    return first, render_x()


@pytest.fixture(scope="module")
def large_camera():
    (train, _) = trace_cameras("kitchen", n_train=1, n_eval=1, width=160, height=112)
    return train[0]


@pytest.fixture(scope="module")
def fmodel_eval(small_scene):
    return uniform_foveated_model(small_scene, EVAL_REGION_LAYOUT, EVAL_LEVEL_FRACTIONS)


class TestPooledSingleViewForward:
    """Every packed pass — forward, foveated, multi-model and backward —
    runs on the engine's pooled, thread-local workspace."""

    @pytest.mark.parametrize("per_pixel_sort", [False, True])
    def test_forward_ignores_dirty_workspace(self, per_pixel_sort):
        model = random_scene(4, n=300)
        small = prepare_view(model, camera(width=70, height=52))
        large = prepare_view(model, camera(width=150, height=90))
        engine = get_backend("packed")
        background = np.array([0.2, 0.4, 0.6])

        def forward(view):
            return lambda: engine.forward_batch(
                [tuple(view)], model.num_points, background, True, per_pixel_sort
            )[0]

        (img, dom), (img_again, dom_again) = _render_twice_around(
            forward(small), forward(large)
        )
        assert np.array_equal(img, img_again)
        assert np.array_equal(dom, dom_again)

    def test_foveated_ignores_dirty_workspace(
        self, fmodel_eval, train_cameras, large_camera
    ):
        config = RenderConfig(backend="packed")

        def foveated(cam):
            return lambda: render_foveated(fmodel_eval, cam, config=config)

        first, again = _render_twice_around(
            foveated(train_cameras[0]), foveated(large_camera)
        )
        assert first.stats.blend_pixels > 0
        assert np.array_equal(first.image, again.image)

    def test_multi_model_ignores_dirty_workspace(
        self, fmodel_eval, train_cameras, large_camera
    ):
        models = [
            fmodel_eval.level_model(t) for t in range(1, fmodel_eval.num_levels + 1)
        ]
        config = RenderConfig(backend="packed")

        def multi_model(cam):
            return lambda: render_multi_model(
                models, fmodel_eval.layout, cam, config=config
            )

        first, again = _render_twice_around(
            multi_model(train_cameras[0]), multi_model(large_camera)
        )
        assert first.stats.blend_pixels > 0
        assert np.array_equal(first.image, again.image)

    def test_backward_ignores_dirty_workspace(self):
        model = random_scene(5)
        background = np.array([0.3, 0.1, 0.8])
        rng = np.random.default_rng(0)

        def backward(cam):
            projected, assignment = prepare_view(model, cam)
            grad_image = rng.normal(size=(cam.height, cam.width, 3))
            return lambda: rasterize_backward(
                projected, assignment, model.num_points, grad_image=grad_image,
                background=background, backend="packed",
            )

        first, again = _render_twice_around(
            backward(camera(width=70, height=52)), backward(camera(width=150, height=90))
        )
        for field in ("color", "opacity", "log_scale"):
            assert np.array_equal(getattr(first, field), getattr(again, field)), field

    def test_concurrent_renders_are_isolated(self, fmodel_eval, train_cameras):
        # The backend is a process-wide singleton and every pass runs on its
        # pooled arena; concurrent threads must not corrupt each other's
        # scans (the workspace is thread-local).
        import sys
        import threading

        model = random_scene(6, n=300)
        projected, assignment = prepare_view(model, camera())
        engine = get_backend("packed")
        args = ([(projected, assignment)], model.num_points, np.zeros(3), False, False)
        config = RenderConfig(backend="packed")
        [(expected, _)] = engine.forward_batch(*args)
        expected_fov = render_foveated(fmodel_eval, train_cameras[0], config=config)
        assert expected_fov.stats.blend_pixels > 0
        failures = []

        def worker():
            for _ in range(10):
                [(image, _)] = engine.forward_batch(*args)
                if not np.array_equal(image, expected):
                    failures.append("forward")
                fov = render_foveated(fmodel_eval, train_cameras[0], config=config)
                if not np.array_equal(fov.image, expected_fov.image):
                    failures.append("foveated")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads' kernels finely
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures

    def test_repeated_renders_reuse_workspace(self):
        model = random_scene(5)
        projected, assignment = prepare_view(model, camera())
        engine = get_backend("packed")
        args = ([(projected, assignment)], model.num_points, np.zeros(3), False, False)
        [(first, _)] = engine.forward_batch(*args)
        slots = dict(engine._ws._slots)
        [(again, _)] = engine.forward_batch(*args)
        # Same warm slots, same result: the pooled arena is actually shared.
        assert slots and all(engine._ws._slots[k] is v for k, v in slots.items())
        assert np.array_equal(first, again)


class TestWorkspace:
    def test_slot_reuse_and_growth(self):
        ws = Workspace()
        a = ws.take("slot", (4, 8))
        assert a.shape == (4, 8)
        b = ws.take("slot", (2, 8))  # smaller: sliced from the same buffer
        assert b.base is ws._slots["slot"]
        assert a.base is ws._slots["slot"]
        big = ws.take("slot", (64, 64))  # larger: grown with headroom
        assert big.size == 64 * 64
        assert ws._slots["slot"].size >= 64 * 64

    def test_dtype_switch_reallocates(self):
        ws = Workspace()
        f = ws.take("slot", (8,))
        i = ws.take("slot", (8,), np.int64)
        assert i.dtype == np.int64
        assert f.dtype == np.float64

    def test_trim_drops_slots(self):
        ws = Workspace()
        ws.take("slot", (8,))
        ws.trim()
        assert not ws._slots

    def test_slots_are_thread_local(self):
        import threading

        ws = Workspace()
        mine = ws.take("slot", (8,))
        theirs = {}

        def worker():
            theirs["buf"] = ws.take("slot", (8,))

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        # Two threads never share a scan buffer from the same arena.
        assert theirs["buf"].base is not mine.base


class TestBackendRegistry:
    def test_builtin_entries(self):
        assert set(available_backends()) >= {"packed", "reference"}

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown rasterization backend"):
            get_backend("does-not-exist")

    def test_describe_lists_everything(self):
        table = describe_backends()
        for name in available_backends():
            assert name in table
        assert table.splitlines()[0].split() == ["backend", "description"]

    def test_protocol_is_the_four_batch_entry_points(self):
        # A lone frame is a batch of one: no backend has a per-frame entry
        # point of the protocol, and both engines implement all four.
        declared = {
            name for name, value in vars(RasterBackend).items()
            if callable(value) and not name.startswith("_")
        }
        assert declared == {
            "forward_batch", "foveated_frame_batch", "backward", "multi_model_frame",
        }
        for name in available_backends():
            engine = get_backend(name)
            assert isinstance(engine, RasterBackend)
            assert get_backend(engine) is engine


class TestSpanBudgetHardening:
    """``REPRO_BATCH_SPAN_BUDGET`` must never crash or zero out the render
    path: bad values warn and fall back to the default."""

    @pytest.mark.parametrize("raw", ["banana", "12.5", "0", "-5", "  "])
    def test_bad_values_fall_back(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_BATCH_SPAN_BUDGET", raw)
        if raw.strip():
            with pytest.warns(RuntimeWarning, match="REPRO_BATCH_SPAN_BUDGET"):
                assert span_chunk_budget() == DEFAULT_SPAN_CHUNK_BUDGET
        else:
            assert span_chunk_budget() == DEFAULT_SPAN_CHUNK_BUDGET

    def test_valid_value_respected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_SPAN_BUDGET", "4096")
        assert span_chunk_budget() == 4096
        monkeypatch.delenv("REPRO_BATCH_SPAN_BUDGET")
        assert span_chunk_budget() == DEFAULT_SPAN_CHUNK_BUDGET

    def test_render_batch_survives_bad_budget(self, monkeypatch):
        from repro.splat import render_batch

        model = random_scene(2)
        cams = [camera(), camera(width=70, height=52)]
        config = RenderConfig(backend="packed")  # the budget is packed-only
        clean = render_batch(model, cams, config)
        monkeypatch.setenv("REPRO_BATCH_SPAN_BUDGET", "not-a-number")
        with pytest.warns(RuntimeWarning, match="non-integer"):
            bad = render_batch(model, cams, config)
        for a, b in zip(clean, bad):
            assert np.array_equal(a.image, b.image)


class TestSplitSpans:
    """Band-aligned splitting of a frame's spans into scan pieces."""

    def _view(self, seed=0, n=200, width=96, height=64):
        model = random_scene(seed, n)
        projected, assignment = prepare_view(model, camera(width, height))
        spans = build_row_spans(projected, build_segments(assignment))
        return spans, _ViewRows.build(projected, assignment)

    def _pieces(self, rows, budget):
        source = _Source(0, rows, [rows.counts], rows.tables)
        out = []
        for parts, n in _band_pieces([(source, rows.band_sizes(rows.counts))], budget):
            ((part, r0, r1),) = parts  # one view: one part per piece
            assert part is source
            piece = rows.expand(rows.counts, r0, r1)
            assert piece.num_spans == n
            out.append((piece, r0, r1))
        return out

    def test_within_budget_is_identity(self):
        spans, rows = self._view()
        ((piece, _, _),) = self._pieces(rows, spans.num_spans)
        for name in ("span_pair", "span_tile", "span_y", "group_tile", "group_has_tile_last"):
            assert np.array_equal(getattr(piece, name), getattr(spans, name)), name
        assert np.array_equal(piece.groups.starts, spans.groups.starts)

    @pytest.mark.parametrize("budget", [1, 7, 97, 1024])
    def test_pieces_cover_everything_in_order(self, budget):
        spans, rows = self._view()
        pieces = [p for p, *_ in self._pieces(rows, budget)]
        for name in ("span_pair", "span_y", "group_tile", "group_has_tile_last"):
            assert np.array_equal(
                np.concatenate([getattr(p, name) for p in pieces]), getattr(spans, name)
            ), name
        assert np.array_equal(
            np.concatenate([p.groups.lens for p in pieces]), spans.groups.lens
        )
        assert sum(p.num_spans for p in pieces) == spans.num_spans

    @pytest.mark.parametrize("budget", [7, 97])
    def test_budget_respected_or_single_oversized_group(self, budget):
        _, rows = self._view()
        tiles_x = rows.seg.grid.tiles_x
        for piece, r0, r1 in self._pieces(rows, budget):
            bands = np.unique(piece.group_tile // tiles_x)
            # Over budget only as one whole band (one tile row).
            assert piece.num_spans <= budget or bands.size == 1
            assert bands.min() >= r0 and bands.max() < r1
            assert int(piece.groups.lens.sum()) == piece.num_spans

    def test_pieces_share_pair_tables(self):
        spans, rows = self._view()
        for piece, _, _ in self._pieces(rows, 97):
            # Every piece indexes the frame's one set of pair tables.
            assert piece.seg is rows.seg
            assert piece.span_pair.max() < rows.seg.num_pairs
        assert all(len(t) == rows.seg.num_pairs for t in rows.tables.values())

    def test_invalid_budget_raises(self):
        _, rows = self._view()
        with pytest.raises(ValueError, match="budget"):
            list(_band_pieces([(rows, np.ones(4, dtype=np.int64))], 0))


class TestTiledBackend:
    """Band-piece scans: forcing many pieces must be invisible in the output."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equivalence_with_forced_tiny_tiles(self, monkeypatch, seed):
        # A 97-span budget forces a piece per band even on test frames.
        monkeypatch.setenv(SPAN_BUDGET_ENV, "97")
        assert_render_equivalent(random_scene(seed), camera())

    def test_per_pixel_sort_with_forced_tiny_tiles(self, monkeypatch):
        monkeypatch.setenv(SPAN_BUDGET_ENV, "97")
        assert_render_equivalent(random_scene(1), camera(), per_pixel_sort=True)

    def test_background_with_forced_tiny_tiles(self, monkeypatch):
        monkeypatch.setenv(SPAN_BUDGET_ENV, "61")
        assert_render_equivalent(
            random_scene(3), camera(width=70, height=52),
            background=(0.3, 0.1, 0.8),
        )

    def test_untiled_views_bitwise_match_packed(self, monkeypatch):
        # A view inside the budget is one piece; cut into one piece per
        # band it must render the very same bits.
        model = random_scene(2)
        cam = camera()
        config = RenderConfig(backend="packed", collect_stats=True)
        whole = render(model, cam, config)
        monkeypatch.setenv(SPAN_BUDGET_ENV, "1")
        banded = render(model, cam, config)
        assert np.array_equal(whole.image, banded.image)
        assert whole.stats.dominated_pixels is not None
        assert np.array_equal(
            whole.stats.dominated_pixels, banded.stats.dominated_pixels
        )

    def test_render_batch_with_forced_tiny_tiles(self, monkeypatch):
        from repro.splat import render_batch

        model = random_scene(4)
        cams = [camera(), camera(width=70, height=52)]
        clean = render_batch(model, cams, RenderConfig(backend="packed"))
        monkeypatch.setenv(SPAN_BUDGET_ENV, "97")
        tiled = render_batch(model, cams, RenderConfig(backend="packed"))
        for a, b in zip(clean, tiled):
            assert np.array_equal(a.image, b.image)

    def test_gradients_unaffected(self, monkeypatch):
        # The backward pass is one piece whatever the span budget.
        model = random_scene(1)
        projected, assignment = prepare_view(model, camera())
        grad_image = np.random.default_rng(0).normal(size=(64, 96, 3))
        ref = rasterize_backward(
            projected, assignment, model.num_points, grad_image=grad_image,
            backend="packed",
        )
        monkeypatch.setenv(SPAN_BUDGET_ENV, "97")
        td = rasterize_backward(
            projected, assignment, model.num_points, grad_image=grad_image,
            backend="packed",
        )
        for field in ("color", "opacity", "log_scale"):
            assert np.array_equal(getattr(ref, field), getattr(td, field)), field

    def test_tile_budget_env_hardening(self, monkeypatch):
        monkeypatch.setenv("REPRO_TUNE_PROFILE", "off")
        monkeypatch.setenv(TILE_BUDGET_ENV, "banana")
        with pytest.warns(RuntimeWarning, match=TILE_BUDGET_ENV):
            assert tile_span_budget() >= 1
        monkeypatch.setenv(TILE_BUDGET_ENV, "4096")
        assert tile_span_budget() == 4096
        assert tile_span_budget(123) == 123
        with pytest.raises(ValueError):
            tile_span_budget(0)
