"""CLI subcommands: parsing and end-to-end execution."""

import json
import os

import pytest

from repro.cli import build_parser, main
from repro.splat.backends import resolve_backend_name, set_default_backend
from repro.tune.profile import PROFILE_ENV


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])

    def test_defaults(self):
        args = build_parser().parse_args(["render", "garden"])
        assert args.trace == "garden"
        assert args.points == 1000
        assert args.width == 128

    def test_prune_fraction_flag(self):
        args = build_parser().parse_args(["prune", "room", "--fraction", "0.3"])
        assert args.fraction == 0.3

    def test_batch_size_flag(self):
        args = build_parser().parse_args(["render", "garden", "--batch-size", "2"])
        assert args.batch_size == 2
        assert build_parser().parse_args(["render", "garden"]).batch_size is None


class TestBackendFlags:
    def test_backends_subcommand(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "packed" in out and "reference" in out
        assert "description" in out

    def test_backend_list_flag(self, capsys):
        # `--backend list` prints the backend table and runs no command.
        assert main(["render", "garden", "--backend", "list"]) == 0
        out = capsys.readouterr().out
        assert "reference" in out and "description" in out

    def test_unknown_backend_errors(self, capsys):
        assert main(["render", "garden", "--backend", "vulkan"]) == 2
        assert "unknown rasterization backend" in capsys.readouterr().err

    def test_overrides_end_with_the_call(self, tmp_path, monkeypatch):
        # `--backend` and `--profile` scope to one `main` call, on the
        # success path and on the error return alike.
        monkeypatch.setenv(PROFILE_ENV, "off")
        before = resolve_backend_name()
        argv = ["--profile", str(tmp_path / "none.json"), "render", "garden",
                "--points", "120", "--width", "32", "--height", "24"]
        assert main([*argv, "--backend", "reference"]) == 0
        assert resolve_backend_name() == before
        assert os.environ[PROFILE_ENV] == "off"
        set_default_backend("packed")
        try:
            assert main([*argv, "--backend", "vulkan"]) == 2
            assert resolve_backend_name() == "packed"
            assert os.environ[PROFILE_ENV] == "off"
        finally:
            set_default_backend(None)


class TestCommands:
    def test_traces(self, capsys):
        assert main(["traces"]) == 0
        out = capsys.readouterr().out
        assert "bicycle" in out and "deepblending" in out

    def test_render(self, capsys):
        code = main(["render", "bonsai", "--points", "200", "--width", "64",
                     "--height", "48"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tile intersections" in out and "FPS" in out
        # The active view cache is reported (satellite: counters surfaced).
        assert "cache-stats: view-cache hits=" in out

    def test_render_with_batch_size(self, capsys):
        code = main(["render", "bonsai", "--points", "200", "--width", "64",
                     "--height", "48", "--batch-size", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "batch size 1" in out and "FPS" in out

    def test_prune(self, capsys):
        code = main(["prune", "bonsai", "--points", "200", "--width", "64",
                     "--height", "48", "--fraction", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dense" in out and "pruned" in out

    def test_foveate(self, capsys):
        code = main(["foveate", "bonsai", "--points", "200", "--width", "64",
                     "--height", "48"])
        assert code == 0
        out = capsys.readouterr().out
        assert "FR speedup" in out
        # The single frame misses, the gaze trajectory then shares the pose.
        assert "cache-stats: view-cache hits=1 misses=1" in out

    @pytest.mark.parametrize("command", ["render", "foveate"])
    def test_trace_flag_writes_backend_spans(self, command, tmp_path, capsys):
        # Only the packed engine emits backend spans, so the run pins it
        # (whatever REPRO_BACKEND says); the pin ends with the call.
        path = tmp_path / "trace.json"
        code = main([command, "bonsai", "--points", "200", "--width", "64",
                     "--height", "48", "--trace", str(path),
                     "--backend", "packed"])
        assert code == 0
        assert "trace:" in capsys.readouterr().out
        events = [e for e in json.loads(path.read_text())["traceEvents"] if e["ph"] == "X"]
        for e in events:
            assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(e)
        assert {"alpha-scan", "composite"} <= {e["name"] for e in events}

    def test_serve_sim(self, capsys):
        code = main(["serve-sim", "bonsai", "--points", "150", "--width", "48",
                     "--height", "32", "--clients", "2", "--frames", "6",
                     "--poses", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "naive per-request" in out
        assert "serve-loop (batched+cached)" in out
        assert "cache-stats:" in out
        assert "serve speedup:" in out
        assert "hit rate" in out
        assert "deadlines:" not in out

        code = main(["serve-sim", "bonsai", "--points", "150", "--width", "48",
                     "--height", "32", "--clients", "2", "--frames", "6",
                     "--poses", "3", "--refresh-hz", "90"])
        assert code == 0
        out = capsys.readouterr().out
        assert "serve speedup:" in out
        # The serve loop accounts the trace's 1/90 s frame deadlines.
        assert "  deadlines: miss rate" in out
        assert "schedule oracle" not in out

    def test_serve_sim_cache_disabled(self, capsys):
        code = main(["serve-sim", "bonsai", "--points", "150", "--width", "48",
                     "--height", "32", "--clients", "2", "--frames", "4",
                     "--poses", "2", "--cache-mb", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "serve speedup:" in out
        assert "cache-stats:" not in out

    def test_serve_sim_flags(self):
        args = build_parser().parse_args(
            ["serve-sim", "garden", "--clients", "8", "--batch-budget", "4",
             "--zipf", "0.9"]
        )
        assert args.clients == 8
        assert args.batch_budget == 4
        assert args.zipf == 0.9
        # Both knobs now default to None -> resolved through the env /
        # host-profile / built-in precedence at ServeConfig construction.
        assert args.cache_mb is None
        assert build_parser().parse_args(
            ["serve-sim", "garden"]
        ).batch_budget is None

    def test_global_profile_flag(self):
        args = build_parser().parse_args(["--profile", "off", "traces"])
        assert args.profile == "off"
        assert build_parser().parse_args(["traces"]).profile is None

    def test_accel(self, capsys):
        code = main(["accel", "bonsai", "--points", "200", "--width", "64",
                     "--height", "48"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MetaSapiens-TM-IP" in out and "GSCore" in out
