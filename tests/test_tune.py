"""Knob resolution: cost model, hand-written profiles, precedence, stamp.

The load-bearing contract is the resolution precedence every consumer
shares — explicit argument > environment variable > host profile >
built-in default — plus the degrade-don't-crash rules: malformed env
values warn and fall through, corrupted profiles warn and resolve as
"untuned", individually invalid profile knobs are dropped while the rest
still apply.  The benchmark's knob record (``perfbench/stamp.py``) reads
the same resolvers, so its sources are pinned here too.
"""

from __future__ import annotations

import importlib
import json
import os
import warnings

import pytest

from repro.serve.regions import (
    DEFAULT_FRAME_CACHE_BYTES,
    FRAME_CACHE_BYTES_ENV,
    FrameCache,
    resolved_cache_bytes,
)
from repro.serve.scheduler import (
    BATCH_BUDGET_ENV,
    BATCH_DEADLINE_ENV,
    DEFAULT_BATCH_BUDGET,
    ServeConfig,
    resolved_batch_budget,
    resolved_batch_deadline,
)
from repro.serve.shm import DEFAULT_SHM_BYTES, SHM_ENV, resolved_shm_bytes
from repro.serve.workers import (
    DEFAULT_WORKER_VIEWCACHE,
    VIEWCACHE_ENV,
    resolved_worker_viewcache,
)
from repro.splat.backends.packed import (
    DEFAULT_SPAN_CHUNK_BUDGET,
    DEFAULT_TILE_SPAN_BUDGET,
    SPAN_BUDGET_ENV,
    TILE_BUDGET_ENV,
    span_chunk_budget,
    tile_span_budget,
)
from repro.tune import invalidate_profile_cache, profile_source
from repro.tune.model import (
    CacheLevel,
    SpanCostModel,
    detect_cache_levels,
    llc_bytes,
    span_cost_model,
)
from repro.tune.profile import (
    PROFILE_ENV,
    HostProfile,
    host_fingerprint,
    load_host_profile,
    profile_value,
)


@pytest.fixture(autouse=True)
def _fresh_profile_cache():
    invalidate_profile_cache()
    yield
    invalidate_profile_cache()


def _write_profile(path, knobs, **extra):
    payload = {"version": 1, "host": "test", "knobs": knobs, **extra}
    with open(path, "w") as f:
        json.dump(payload, f)
    invalidate_profile_cache()
    return str(path)


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------


class TestCacheDetection:
    def _sysfs(self, tmp_path, levels):
        root = tmp_path / "cache"
        for i, (level, size, kind) in enumerate(levels):
            d = root / f"index{i}"
            d.mkdir(parents=True)
            (d / "level").write_text(f"{level}\n")
            (d / "size").write_text(f"{size}\n")
            (d / "type").write_text(f"{kind}\n")
        return str(root)

    def test_detects_levels(self, tmp_path):
        root = self._sysfs(
            tmp_path,
            [(1, "32K", "Data"), (1, "32K", "Instruction"),
             (2, "1024K", "Unified"), (3, "8M", "Unified")],
        )
        levels = detect_cache_levels(root)
        assert [(l.level, l.kind) for l in levels] == [
            (1, "Data"), (1, "Instruction"), (2, "Unified"), (3, "Unified"),
        ]
        assert levels[0].size_bytes == 32 << 10
        assert levels[3].size_bytes == 8 << 20

    def test_llc_is_largest_top_level_non_instruction(self, tmp_path):
        root = self._sysfs(
            tmp_path,
            [(1, "32K", "Data"), (2, "512K", "Unified"), (3, "16M", "Unified")],
        )
        assert llc_bytes(root) == 16 << 20

    def test_missing_sysfs_degrades(self, tmp_path):
        assert detect_cache_levels(str(tmp_path / "nope")) == ()
        assert llc_bytes(str(tmp_path / "nope")) is None
        assert span_cost_model(root=str(tmp_path / "nope")) is None

    def test_span_cost_model_prediction(self, tmp_path):
        root = self._sysfs(tmp_path, [(3, "8M", "Unified")])
        model = span_cost_model(root=root)
        assert model is not None
        expected = int((8 << 20) * 0.5 / model.bytes_per_span)
        assert model.predicted_span_budget == expected

    def test_model_math(self):
        m = SpanCostModel(llc_bytes=1000, bytes_per_span=100)
        assert m.predicted_span_budget == 5

    def test_bytes_per_span_matches_kernels(self):
        from repro.splat.backends.kernels import batch_scan_bytes_per_span

        assert batch_scan_bytes_per_span(16) == 5 * 16 * 8 + 2 * 16 + 64
        model = SpanCostModel(llc_bytes=1 << 20, bytes_per_span=1)
        assert model.predicted_span_budget >= 1
        assert CacheLevel(3, 1 << 20, "Unified").size_bytes == 1 << 20


# ----------------------------------------------------------------------
# Profiles
# ----------------------------------------------------------------------


class TestHostProfile:
    def test_save_and_load_roundtrip(self, tmp_path):
        profile = HostProfile(
            span_budget=4096,
            tile_spans=32768,
            cache_max_bytes=1 << 20,
            batch_budget=16,
            batch_deadline_s=0.002,
            host=host_fingerprint(),
            source="test",
        )
        path = _write_profile(
            tmp_path / "prof.json",
            profile.knobs(),
            host=profile.host,
            source=profile.source,
        )
        loaded = load_host_profile(path)
        assert loaded is not None
        assert loaded.knobs() == profile.knobs()
        assert loaded.host == profile.host

    def test_missing_file_is_none(self, tmp_path):
        assert load_host_profile(str(tmp_path / "absent.json")) is None

    def test_fingerprint_is_probed_once(self, monkeypatch):
        # The default profile path is resolved on every render call; the
        # machine shape is read once per process.
        first = host_fingerprint()
        calls = []
        monkeypatch.setattr(
            "platform.system", lambda: calls.append("system") or "other"
        )
        assert host_fingerprint() == first
        assert calls == []

    def test_corrupt_file_warns_and_degrades(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.warns(RuntimeWarning, match="unreadable tuning profile"):
            assert load_host_profile(str(path)) is None
        # The memo caches the verdict: no second warning for the same file.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_host_profile(str(path)) is None

    def test_wrong_root_type_degrades(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.warns(RuntimeWarning, match="unreadable tuning profile"):
            assert load_host_profile(str(path)) is None

    def test_invalid_knob_dropped_rest_apply(self, tmp_path):
        path = _write_profile(
            tmp_path / "p.json",
            {
                "span_budget": "lots",  # wrong type: dropped
                "batch_budget": 0,  # below minimum: dropped
                "tile_spans": True,  # bool is not a knob value: dropped
                "cache_max_bytes": 1 << 20,  # valid: applies
                "batch_deadline_s": 0.001,  # valid: applies
            },
        )
        with pytest.warns(RuntimeWarning, match="dropping invalid knob"):
            profile = load_host_profile(path)
        assert profile is not None
        assert profile.span_budget is None
        assert profile.batch_budget is None
        assert profile.tile_spans is None
        assert profile.cache_max_bytes == 1 << 20
        assert profile.batch_deadline_s == 0.001

    def test_unknown_knobs_ignored(self, tmp_path):
        path = _write_profile(
            tmp_path / "p.json", {"span_budget": 2048, "future_knob": 7}
        )
        profile = load_host_profile(path)
        assert profile is not None and profile.span_budget == 2048

    def test_env_disables(self, monkeypatch, tmp_path):
        path = _write_profile(tmp_path / "p.json", {"span_budget": 2048})
        for sentinel in ("off", "none", "0", "  "):
            monkeypatch.setenv(PROFILE_ENV, sentinel)
            assert load_host_profile() is None
            assert profile_value("span_budget") is None
        monkeypatch.setenv(PROFILE_ENV, path)
        assert profile_value("span_budget") == 2048

    def test_profile_value_unknown_knob_raises(self):
        with pytest.raises(KeyError, match="unknown tuning knob"):
            profile_value("warp_factor")

    def test_profile_source(self, monkeypatch, tmp_path):
        monkeypatch.setenv(PROFILE_ENV, "off")
        assert profile_source() == "off"
        absent = str(tmp_path / "absent.json")
        monkeypatch.setenv(PROFILE_ENV, absent)
        assert profile_source() == "none"
        path = _write_profile(tmp_path / "p.json", {"span_budget": 2048})
        monkeypatch.setenv(PROFILE_ENV, path)
        assert profile_source() == path

    def test_edit_invalidates_memo_via_stat(self, tmp_path):
        path = _write_profile(tmp_path / "p.json", {"span_budget": 1024})
        assert load_host_profile(path).span_budget == 1024
        os.utime(path, ns=(1, 1))  # force a distinct mtime signature
        _write_profile(tmp_path / "p.json", {"span_budget": 2048})
        assert load_host_profile(path).span_budget == 2048


# ----------------------------------------------------------------------
# Precedence: explicit > env > profile > default, for every consumer
# ----------------------------------------------------------------------


class TestPrecedence:
    @pytest.fixture()
    def profile_path(self, monkeypatch, tmp_path):
        path = _write_profile(
            tmp_path / "prof.json",
            {
                "span_budget": 3333,
                "tile_spans": 4444,
                "cache_max_bytes": 5 << 20,
                "batch_budget": 6,
                "batch_deadline_s": 0.007,
                "shm_bytes": 0,
                "worker_viewcache": 5,
            },
        )
        monkeypatch.setenv(PROFILE_ENV, path)
        return path

    @pytest.mark.parametrize(
        "resolve,env,explicit,from_profile,default",
        [
            (span_chunk_budget, SPAN_BUDGET_ENV, 1111, 3333,
             DEFAULT_SPAN_CHUNK_BUDGET),
            (resolved_batch_budget, BATCH_BUDGET_ENV, 11, 6,
             DEFAULT_BATCH_BUDGET),
            (resolved_cache_bytes, FRAME_CACHE_BYTES_ENV, 7 << 20, 5 << 20,
             DEFAULT_FRAME_CACHE_BYTES),
            # A profile's 0 means pickle only, not "unset": no 64 MiB arena.
            (resolved_shm_bytes, SHM_ENV, 1 << 20, 0, DEFAULT_SHM_BYTES),
            (resolved_worker_viewcache, VIEWCACHE_ENV, 7, 5,
             DEFAULT_WORKER_VIEWCACHE),
        ],
        ids=[
            "span_budget", "batch_budget", "cache_bytes", "shm_bytes",
            "worker_viewcache",
        ],
    )
    def test_chain(
        self, monkeypatch, profile_path, resolve, env, explicit, from_profile,
        default,
    ):
        # profile beats default
        assert resolve() == from_profile
        # env beats profile
        monkeypatch.setenv(env, "2222")
        assert resolve() == 2222
        # explicit beats env
        assert resolve(explicit) == explicit
        # no profile, no env -> default
        monkeypatch.delenv(env)
        monkeypatch.setenv(PROFILE_ENV, "off")
        assert resolve() == default

    def test_tile_budget_chain(self, monkeypatch, profile_path):
        assert tile_span_budget() == 4444
        monkeypatch.setenv(TILE_BUDGET_ENV, "2222")
        assert tile_span_budget() == 2222
        assert tile_span_budget(9999) == 9999
        monkeypatch.delenv(TILE_BUDGET_ENV)
        monkeypatch.setenv(PROFILE_ENV, "off")
        # fallback: model prediction where detectable, else the default
        from repro.splat.backends.packed import _predicted_tile_spans

        assert tile_span_budget() == (
            _predicted_tile_spans() or DEFAULT_TILE_SPAN_BUDGET
        )

    def test_batch_deadline_chain(self, monkeypatch, profile_path):
        assert resolved_batch_deadline() == 0.007
        monkeypatch.setenv(BATCH_DEADLINE_ENV, "0.05")
        assert resolved_batch_deadline() == 0.05
        assert resolved_batch_deadline(0.1) == 0.1
        monkeypatch.delenv(BATCH_DEADLINE_ENV)
        monkeypatch.setenv(PROFILE_ENV, "off")
        assert resolved_batch_deadline() == 0.0

    def test_serve_config_resolves_at_construction(
        self, monkeypatch, profile_path
    ):
        config = ServeConfig()
        assert config.batch_budget == 6
        assert config.batch_deadline_s == 0.007
        assert config.cache_max_bytes == 5 << 20
        # explicit args still win, and sentinel resolution leaves no "auto"
        explicit = ServeConfig(
            batch_budget=2, batch_deadline_s=0.0, cache_max_bytes=None
        )
        assert explicit.batch_budget == 2
        assert explicit.batch_deadline_s == 0.0
        assert explicit.cache_max_bytes is None

    def test_corrupt_profile_falls_back_with_warning(
        self, monkeypatch, tmp_path
    ):
        path = tmp_path / "bad.json"
        path.write_text("}{")
        monkeypatch.setenv(PROFILE_ENV, str(path))
        invalidate_profile_cache()
        with pytest.warns(RuntimeWarning, match="unreadable tuning profile"):
            assert span_chunk_budget() == DEFAULT_SPAN_CHUNK_BUDGET
        assert resolved_batch_budget() == DEFAULT_BATCH_BUDGET
        assert resolved_cache_bytes() == DEFAULT_FRAME_CACHE_BYTES

    def test_partial_profile_fills_from_defaults(self, monkeypatch, tmp_path):
        path = _write_profile(tmp_path / "p.json", {"batch_budget": 12})
        monkeypatch.setenv(PROFILE_ENV, path)
        assert resolved_batch_budget() == 12
        assert span_chunk_budget() == DEFAULT_SPAN_CHUNK_BUDGET
        assert resolved_cache_bytes() == DEFAULT_FRAME_CACHE_BYTES

    def test_malformed_env_falls_back_to_profile(
        self, monkeypatch, profile_path
    ):
        # The env warning must name the value actually used next in the
        # chain — the profile's, not the built-in default.
        monkeypatch.setenv(SPAN_BUDGET_ENV, "banana")
        with pytest.warns(RuntimeWarning, match="3333"):
            assert span_chunk_budget() == 3333

    def test_explicit_validation_still_raises(self):
        with pytest.raises(ValueError):
            span_chunk_budget(0)
        with pytest.raises(ValueError):
            resolved_batch_budget(0)
        with pytest.raises(ValueError):
            resolved_batch_deadline(-1.0)
        with pytest.raises(ValueError, match="sentinel"):
            ServeConfig(cache_max_bytes="lots")


class TestFrameCacheResolution:
    def test_env_disables_cache(self, monkeypatch):
        monkeypatch.setenv(FRAME_CACHE_BYTES_ENV, "0")
        assert resolved_cache_bytes() is None
        assert ServeConfig().cache_max_bytes is None
        with pytest.raises(ValueError, match="disabled"):
            FrameCache()

    def test_env_sets_budget(self, monkeypatch):
        monkeypatch.setenv(FRAME_CACHE_BYTES_ENV, str(2 << 20))
        assert FrameCache().max_bytes == 2 << 20

    def test_explicit_still_validated(self):
        with pytest.raises(ValueError, match="positive"):
            FrameCache(max_bytes=-1)


# ----------------------------------------------------------------------
# Env-knob hardening (the harmonized parsers)
# ----------------------------------------------------------------------


class TestEnvKnobHarmonization:
    def test_default_workers_warns_and_falls_back(self, monkeypatch):
        from repro.serve.workers import WORKERS_ENV, default_workers

        monkeypatch.setenv(WORKERS_ENV, "nope")
        with pytest.warns(RuntimeWarning, match="non-integer"):
            assert default_workers() == 0
        monkeypatch.setenv(WORKERS_ENV, "-2")
        with pytest.warns(RuntimeWarning, match="out-of-range"):
            assert default_workers() == 0
        monkeypatch.setenv(WORKERS_ENV, "2")
        assert default_workers() == 2

    def test_env_float_nan_rejected(self, monkeypatch):
        from repro.envknobs import env_float

        monkeypatch.setenv("REPRO_TEST_KNOB", "nan")
        with pytest.warns(RuntimeWarning, match="out-of-range"):
            assert env_float("REPRO_TEST_KNOB", 1.5, minimum=0.0) == 1.5

    def test_env_int_below_one_warns_non_positive(self, monkeypatch):
        from repro.envknobs import env_int

        monkeypatch.setenv("REPRO_TEST_KNOB", "0")
        with pytest.warns(RuntimeWarning, match="non-positive"):
            assert env_int("REPRO_TEST_KNOB", 1, minimum=1) == 1

    def test_env_int_blank_is_silent_fallback(self, monkeypatch):
        from repro.envknobs import env_int

        monkeypatch.setenv("REPRO_TEST_KNOB", "   ")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert env_int("REPRO_TEST_KNOB", 7) == 7


# ----------------------------------------------------------------------
# The benchmark's knob record reads these resolvers by name
# ----------------------------------------------------------------------

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestPerfbenchStamp:
    @pytest.fixture()
    def stamp(self, monkeypatch):
        # The repo root on the path, as when pytest collects perfbench/.
        monkeypatch.syspath_prepend(ROOT)
        # What perfbench's pin_environment does, undone after the test.
        for key in [k for k in os.environ if k.startswith("REPRO_")]:
            monkeypatch.delenv(key)
        monkeypatch.setenv(PROFILE_ENV, "off")
        return importlib.import_module("perfbench.stamp")

    @staticmethod
    def _record(stamp):
        knobs = stamp.resolved_knobs(ServeConfig())
        return {name: row["source"] for name, row in knobs.items()}, knobs

    def test_profile_off_reads_defaults(self, stamp):
        sources, knobs = self._record(stamp)
        tile = "llc-model" if span_cost_model() is not None else "default"
        assert sources.pop("tile_span_budget") == tile
        assert set(sources.values()) == {"default"}, sources
        assert knobs["span_chunk_budget"]["value"] == DEFAULT_SPAN_CHUNK_BUDGET
        assert knobs["shm_bytes"]["value"] == DEFAULT_SHM_BYTES
        assert knobs["serve.batch_budget"]["value"] == DEFAULT_BATCH_BUDGET
        assert stamp.environment_stamp(ROOT, {})["tune_profile"] == "off"

    def test_hand_written_profile_reads_profile(
        self, stamp, monkeypatch, tmp_path
    ):
        path = _write_profile(
            tmp_path / "p.json",
            {
                "span_budget": 3333,
                "tile_spans": 4444,
                "shm_bytes": 0,
                "worker_viewcache": 5,
                "batch_budget": 6,
            },
        )
        monkeypatch.setenv(PROFILE_ENV, path)
        sources, knobs = self._record(stamp)
        for name in (
            "span_chunk_budget", "tile_span_budget", "shm_bytes",
            "worker_viewcache", "serve.batch_budget", "serve.shm_bytes",
        ):
            assert sources.pop(name) == "profile", name
        assert set(sources.values()) <= {"default"}, sources
        assert knobs["span_chunk_budget"]["value"] == 3333
        assert knobs["tile_span_budget"]["value"] == 4444
        assert knobs["serve.shm_bytes"]["value"] == 0
        assert stamp.environment_stamp(ROOT, {})["tune_profile"] == path

    def test_env_override_reads_env(self, stamp, monkeypatch):
        monkeypatch.setenv(SPAN_BUDGET_ENV, "2222")
        sources, knobs = self._record(stamp)
        assert sources.pop("span_chunk_budget") == "env"
        assert knobs["span_chunk_budget"]["value"] == 2222
        sources.pop("tile_span_budget")
        assert set(sources.values()) == {"default"}, sources
        assert stamp.environment_stamp(ROOT, {})["tune_profile"] == "off"
