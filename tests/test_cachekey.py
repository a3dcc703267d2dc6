"""ContentMemo: memoized fingerprints and model tables never go stale.

Every fingerprinted surface of a :class:`FoveatedModel` is edited in place
(or rebound) at random; after each edit the memoized fingerprint must equal
a fresh BLAKE2 digest of the bytes, and the memoized covariances and level
tables must equal freshly computed ones bit for bit.
"""

import asyncio
import hashlib
import multiprocessing
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.foveation import uniform_foveated_model
from repro.foveation.fr_renderer import _level_tables
from repro.harness import EVAL_LEVEL_FRACTIONS, EVAL_REGION_LAYOUT
from repro.obs.trace import Tracer
from repro.scenes import trace_cameras
from repro.serve import FrameRequest, ServeLoop, foveated_model_fingerprint
from repro.splat import cachekey, random_model
from repro.splat.cachekey import ContentMemo, content_fingerprint, digests_on_this_thread
from repro.splat.gaussians import quaternions_to_matrices

BASE_SURFACES = ("positions", "log_scales", "rotations", "opacity_logits", "sh")
HIERARCHY_SURFACES = ("quality_bounds", "mv_opacity_logits", "mv_sh_dc")
EDITS = ("value", "zero-sign", "nan-payload", "rebind-copy", "del-reuse")


def make_fmodel(seed: int = 0, n: int = 6):
    return uniform_foveated_model(
        random_model(n, np.random.default_rng(seed)),
        EVAL_REGION_LAYOUT,
        EVAL_LEVEL_FRACTIONS,
    )


def fresh_digest(*arrays) -> bytes:
    digest = hashlib.blake2b(digest_size=16)
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.digest()


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def owner(fmodel, surface):
    return fmodel.base if surface in BASE_SURFACES else fmodel


def apply_edit(fmodel, surface, kind, where, value):
    obj = owner(fmodel, surface)
    array = getattr(obj, surface)
    flat = array.reshape(-1)
    i = where % flat.size
    if kind == "value":
        flat[i] = value if array.dtype.kind == "f" else where % fmodel.num_levels + 1
    elif kind == "zero-sign" and array.dtype.kind == "f":
        flat[i] = 0.0 if np.signbit(flat[i]) else -0.0  # 0.0 <-> -0.0
    elif kind == "nan-payload" and array.dtype.kind == "f":
        bits = flat.view(np.uint64)
        bits[i] = np.uint64(0x7FF8000000000000) | np.uint64(where & 0xFFFFF | 1)
    elif kind == "rebind-copy":
        setattr(obj, surface, array.copy())
    elif kind == "del-reuse":
        # Free the array, then bind a new one that usually takes its id.
        content = array.copy()
        content.reshape(-1)[i] = content.reshape(-1)[i] + 1
        setattr(obj, surface, None)
        del array, flat
        replacement = np.empty_like(content)
        replacement[...] = content
        setattr(obj, surface, replacement)


def check_against_fresh(fmodel):
    base = fmodel.base
    expected = (
        fresh_digest(*(getattr(base, s) for s in BASE_SURFACES)),
        fresh_digest(*(getattr(fmodel, s) for s in HIERARCHY_SURFACES)),
        tuple(fmodel.layout.boundaries_deg),
        fmodel.layout.blend_band_deg,
    )
    assert foveated_model_fingerprint(fmodel) == expected

    rot = quaternions_to_matrices(base.rotations)
    scaled = rot * np.exp(base.log_scales)[:, None, :]
    covariances = base.covariances()
    assert same_bits(covariances, scaled @ scaled.transpose(0, 2, 1))
    assert not covariances.flags.writeable

    opacity, delta = _level_tables(fmodel)
    assert sorted(opacity) == list(range(1, fmodel.num_levels + 1))
    for t in opacity:
        assert same_bits(opacity[t], fmodel.level_opacities(t))
        assert same_bits(delta[t], fmodel.level_color_delta(t))
        assert not opacity[t].flags.writeable and not delta[t].flags.writeable


edit_strategy = st.tuples(
    st.sampled_from(BASE_SURFACES + HIERARCHY_SURFACES),
    st.sampled_from(EDITS),
    st.integers(min_value=0, max_value=10_000),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 3), edits=st.lists(edit_strategy, min_size=1, max_size=8))
def test_memoized_values_match_fresh_after_every_edit(seed, edits):
    fmodel = make_fmodel(seed)
    with np.errstate(all="ignore"):
        check_against_fresh(fmodel)
        for surface, kind, where, value in edits:
            apply_edit(fmodel, surface, kind, where, value)
            check_against_fresh(fmodel)


def test_zero_sign_and_nan_payload_are_changes():
    memo = ContentMemo()
    builds = []

    def build(a):
        builds.append(a.tobytes())
        return a.tobytes()

    array = np.array([0.0, np.nan])
    memo.get((array,), build)
    memo.get((array,), build)
    assert len(builds) == 1
    array[0] = -0.0  # == 0.0, but not the same bytes
    assert memo.get((array,), build) == array.tobytes()
    array.view(np.uint64)[1] ^= np.uint64(1)  # another NaN
    assert memo.get((array,), build) == array.tobytes()
    assert len(builds) == 3


def test_id_reuse_is_caught_by_the_compare():
    memo = ContentMemo()
    first = np.zeros(8)
    old_id = id(first)
    assert memo.get((first,), np.sum) == 0.0
    del first
    second = np.ones(8)
    # CPython hands the freed slot straight back; either way the value
    # follows the contents, not the id.
    reused = id(second) == old_id
    assert memo.get((second,), np.sum) == 8.0
    assert reused or len(memo._entries) == 2


def test_memo_is_bounded():
    memo = ContentMemo()
    arrays = [np.full(4, float(i)) for i in range(3 * cachekey.MEMO_ENTRIES)]
    for array in arrays:
        memo.get((array,), lambda a: a[0])
    assert len(memo._entries) == cachekey.MEMO_ENTRIES


def test_an_unchanged_model_is_compared_not_hashed():
    fmodel = make_fmodel(seed=7)
    foveated_model_fingerprint(fmodel)
    before = digests_on_this_thread()
    foveated_model_fingerprint(fmodel)
    assert digests_on_this_thread() == before
    fmodel.mv_sh_dc[0, 0, 0] += 1.0
    foveated_model_fingerprint(fmodel)
    assert digests_on_this_thread() == before + 1


def test_serve_request_spans_record_hashing():
    # A frozen model is digested at most once across a replay; a mutation
    # makes the next request digest again.
    fmodel = make_fmodel(seed=8, n=40)
    cameras = trace_cameras("kitchen", n_train=2, n_eval=2, width=32, height=24)[1]
    tracer = Tracer()

    async def scenario():
        async with ServeLoop(fmodel, tracer=tracer) as loop:
            for i, camera in enumerate(cameras * 2):
                await loop.submit(FrameRequest(i, camera, (10.0, 8.0)))
            fmodel.base.sh[0, 0, 0] += 1.0
            await loop.submit(FrameRequest(9, cameras[0], (10.0, 8.0)))

    asyncio.run(scenario())
    hashed = [s[6]["hashed"] for s in tracer.spans() if s[0] == "request"]
    assert len(hashed) == 5
    assert sum(hashed[:4]) <= 1 and hashed[4] == 1


def _fingerprint_in_child(conn):
    array = np.arange(16.0)
    conn.send(content_fingerprint(array))
    conn.close()


def test_forked_child_does_not_inherit_a_held_memo_lock():
    held, release = threading.Event(), threading.Event()

    def hold():
        with cachekey._FINGERPRINTS._lock:
            held.set()
            release.wait(30)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert held.wait(10)
        ctx = multiprocessing.get_context("fork")
        parent_end, child_end = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_fingerprint_in_child, args=(child_end,))
        child.start()
        child_end.close()
        child.join(timeout=20)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join()
        assert not hung, "the child blocked on the parent's memo lock"
        assert child.exitcode == 0
        assert parent_end.recv() == fresh_digest(np.arange(16.0))
    finally:
        release.set()
        holder.join()
