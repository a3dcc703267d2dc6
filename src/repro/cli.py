"""Command-line interface: quick experiments without writing code.

    python -m repro.cli traces
    python -m repro.cli render garden --points 1200
    python -m repro.cli foveate room --trace /tmp/fov-trace.json
    python -m repro.cli prune bicycle --fraction 0.6
    python -m repro.cli foveate room
    python -m repro.cli accel flowers
    python -m repro.cli serve-sim kitchen --clients 4
    python -m repro.cli serve-sim kitchen --trace /tmp/serve-trace.json
    python -m repro.cli metrics kitchen

Each subcommand builds the relevant models at a small evaluation scale and
prints a compact report; flags control scene size and resolution.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np


def _common_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("trace", help="trace name (see `traces`)")
    parser.add_argument("--points", type=int, default=1000, help="scene point budget")
    parser.add_argument("--width", type=int, default=128)
    parser.add_argument("--height", type=int, default=96)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--backend",
        default=None,
        help="rasterization backend, or 'list' to print the backend table "
        "(packed|reference; default: $REPRO_BACKEND or packed)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="views per batched rasterization pass (default: all eval views "
        "share one pass)",
    )


def cmd_backends(_args: argparse.Namespace) -> int:
    from .splat.backends import describe_backends

    print(describe_backends())
    return 0


def cmd_traces(_args: argparse.Namespace) -> int:
    from .scenes import SCENE_SPECS

    print(f"{'trace':<12} {'dataset':<16} {'indoor':<7} {'complexity':>10}")
    for name, spec in SCENE_SPECS.items():
        print(f"{name:<12} {spec.dataset:<16} {str(spec.indoor):<7} {spec.complexity:>10.1f}")
    return 0


def _setup(args: argparse.Namespace):
    from .harness import setup_trace

    return setup_trace(
        args.trace, n_points=args.points, width=args.width, height=args.height,
        n_train=4, n_eval=2, seed=args.seed,
    )


def _trace_arg(parser: argparse.ArgumentParser, help_text: str) -> None:
    parser.add_argument(
        "--trace", dest="trace_out", default=None, metavar="PATH", help=help_text
    )


def _traced(command):
    """``command`` with the render backends' spans recorded when ``--trace``
    names a file, written there as Chrome/Perfetto trace-event JSON."""

    def run(args: argparse.Namespace) -> int:
        if not args.trace_out:
            return command(args)
        from .obs import Tracer, set_active_tracer

        tracer = Tracer()
        prev = set_active_tracer(tracer)
        try:
            code = command(args)
        finally:
            set_active_tracer(prev)
        tracer.write(args.trace_out)
        print(
            f"trace: {len(tracer)} spans -> {args.trace_out} "
            f"(load in Perfetto / chrome://tracing)"
        )
        return code

    return run


def _view_cache_stats(cache) -> str:
    """The `cache-stats` line render/foveate print when a cache is active."""
    return (
        f"cache-stats: view-cache hits={cache.hits} misses={cache.misses} "
        f"entries={len(cache)}"
    )


def cmd_render(args: argparse.Namespace) -> int:
    from .perf import DEFAULT_GPU, mean_workload, workload_from_render
    from .splat import ViewCache, render_batch

    setup = _setup(args)
    cache = ViewCache()
    results = render_batch(
        setup.scene, setup.eval_cameras, batch_size=args.batch_size, cache=cache
    )
    stats = results[0].stats
    fps = DEFAULT_GPU.fps(mean_workload([workload_from_render(r) for r in results]))
    batch = args.batch_size or len(results)
    print(
        f"{args.trace}: {setup.scene.num_points} points, "
        f"{len(results)} views (batch size {batch})"
    )
    print(f"projected splats: {stats.num_projected} (first view)")
    print(f"tile intersections: {stats.total_intersections} (first view)")
    print(f"mobile-GPU model: {fps:.1f} FPS (mean over views)")
    print(_view_cache_stats(cache))
    return 0


def cmd_prune(args: argparse.Namespace) -> int:
    from .baselines import make_3dgs
    from .core import compute_ce, prune_lowest_ce
    from .hvs import psnr
    from .perf import DEFAULT_GPU, workload_from_render
    from .splat import render

    setup = _setup(args)
    dense = make_3dgs(setup.scene, seed=args.seed)
    ce = compute_ce(dense.model, setup.train_cameras)
    pruned = prune_lowest_ce(dense.model, ce.ce, args.fraction).model

    for name, model in (("dense", dense.model), ("pruned", pruned)):
        result = render(model, setup.eval_cameras[0])
        fps = DEFAULT_GPU.fps(workload_from_render(result))
        quality = psnr(setup.eval_targets[0], result.image)
        print(f"{name:<7} {model.num_points:6d} pts  "
              f"{result.stats.total_intersections:6d} ints  "
              f"{fps:6.1f} FPS  {quality:5.1f} dB")
    return 0


def cmd_foveate(args: argparse.Namespace) -> int:
    import numpy as np

    from .baselines import make_mini_splatting_d
    from .foveation import render_foveated, render_foveated_batch
    from .harness import EVAL_LEVEL_FRACTIONS, EVAL_REGION_LAYOUT, quick_l1_model
    from .foveation import uniform_foveated_model
    from .perf import DEFAULT_GPU, workload_from_fr, workload_from_render
    from .scenes import gaze_trajectory
    from .splat import ViewCache, render

    setup = _setup(args)
    dense = make_mini_splatting_d(setup.scene, seed=args.seed)
    l1 = quick_l1_model(setup, dense, keep_fraction=args.keep)
    fmodel = uniform_foveated_model(l1, EVAL_REGION_LAYOUT, EVAL_LEVEL_FRACTIONS)

    cache = ViewCache()
    full = render(l1, setup.eval_cameras[0])
    fr = render_foveated(
        fmodel,
        setup.eval_cameras[0],
        prepared=cache.get(fmodel.base, setup.eval_cameras[0]),
    )
    fps_full = DEFAULT_GPU.fps(workload_from_render(full))
    fps_fr = DEFAULT_GPU.fps(workload_from_fr(fr.stats))
    print(f"L1 model: {l1.num_points} pts, level counts {list(fmodel.level_counts())}")
    print(f"non-foveated: {fps_full:6.1f} FPS "
          f"({full.stats.total_intersections} ints)")
    print(f"foveated:     {fps_fr:6.1f} FPS "
          f"({fr.stats.total_raster_intersections:.0f} ints, "
          f"{fr.stats.blend_pixels} blend px)")
    print(f"FR speedup: {fps_fr / fps_full:.2f}x")

    # Dynamic foveation: a simulated scanpath rendered in one batched
    # foveated pass (the pose's projection prefix is shared by every gaze
    # sample instead of re-running per frame).
    gazes = [
        tuple(g)
        for g in gaze_trajectory(
            args.width, args.height, args.gaze_frames, seed=args.seed
        )
    ]
    traj = render_foveated_batch(
        fmodel, setup.eval_cameras[0], gazes=gazes, batch_size=args.batch_size,
        cache=cache,
    )
    traj_fps = [DEFAULT_GPU.fps(workload_from_fr(r.stats)) for r in traj]
    print(f"gaze trajectory ({len(traj)} frames, batched): "
          f"{min(traj_fps):.1f} / {np.mean(traj_fps):.1f} / {max(traj_fps):.1f} "
          f"FPS (min/mean/max)")
    print(_view_cache_stats(cache))
    return 0


def cmd_serve_sim(args: argparse.Namespace) -> int:
    from .baselines import make_mini_splatting_d
    from .foveation import uniform_foveated_model
    from .harness import EVAL_LEVEL_FRACTIONS, EVAL_REGION_LAYOUT, quick_l1_model
    from .scenes import trace_cameras
    from .serve import (
        PredictorConfig,
        ServeConfig,
        WorkloadSpec,
        default_workers,
        generate_serve_trace,
        replay_naive,
        replay_trace,
    )

    setup = _setup(args)
    dense = make_mini_splatting_d(setup.scene, seed=args.seed)
    l1 = quick_l1_model(setup, dense, keep_fraction=args.keep)
    fmodel = uniform_foveated_model(l1, EVAL_REGION_LAYOUT, EVAL_LEVEL_FRACTIONS)

    _, poses = trace_cameras(
        args.trace, n_train=4, n_eval=args.poses, width=args.width,
        height=args.height, seed=args.seed,
    )
    spec = WorkloadSpec(
        n_clients=args.clients,
        frames_per_client=args.frames,
        zipf_s=args.zipf,
        refresh_hz=args.refresh_hz,
        seed=args.seed,
    )
    trace = generate_serve_trace(poses, spec)
    workers = default_workers() if args.workers is None else args.workers
    if workers < 0:
        print("error: --workers must be >= 0", file=sys.stderr)
        return 2
    if args.prefetch < 0 or args.time_scale < 0:
        print(
            "error: --prefetch and --time-scale must be non-negative",
            file=sys.stderr,
        )
        return 2
    serve_config = ServeConfig(
        batch_budget=args.batch_budget,
        cache_max_bytes=(
            "auto"
            if args.cache_mb is None
            else None
            if args.cache_mb <= 0
            else int(args.cache_mb * (1 << 20))
        ),
        workers=workers,
        refresh_hz=args.refresh_hz,
        prefetch=(
            PredictorConfig(horizon=args.prefetch) if args.prefetch > 0 else None
        ),
        shm_bytes=(
            "auto"
            if args.shm_mb is None
            else max(0, int(args.shm_mb * (1 << 20)))
        ),
    )

    tracer = None
    if args.trace_out:
        from .obs import Tracer

        tracer = Tracer()

    print(
        f"serve-sim {args.trace}: {spec.n_clients} clients x "
        f"{spec.frames_per_client} frames over {len(poses)} poses "
        f"(zipf {spec.zipf_s}, {trace.n_requests} requests, "
        f"{workers} worker{'s' if workers != 1 else ''})"
    )
    _, naive_report = replay_naive(fmodel, trace)
    _, serve_report = replay_trace(
        fmodel, trace, serve_config=serve_config,
        time_scale=args.time_scale, tracer=tracer,
    )
    for report in (naive_report, serve_report):
        for line in report.lines():
            print(line)
    print(
        f"serve speedup: {naive_report.wall_s / serve_report.wall_s:.2f}x "
        f"(hit rate {serve_report.cache_hit_rate:.0%}, "
        f"mean batch {serve_report.mean_batch_size:.2f})"
    )
    if tracer is not None:
        tracer.write(args.trace_out)
        print(
            f"trace: {len(tracer)} spans -> {args.trace_out} "
            f"(load in Perfetto / chrome://tracing)"
        )
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Replay a small serve workload and print the metrics registry."""
    from .baselines import make_mini_splatting_d
    from .foveation import uniform_foveated_model
    from .harness import EVAL_LEVEL_FRACTIONS, EVAL_REGION_LAYOUT, quick_l1_model
    from .obs import MetricsRegistry
    from .scenes import trace_cameras
    from .serve import (
        ServeConfig,
        WorkloadSpec,
        generate_serve_trace,
        replay_trace,
    )

    setup = _setup(args)
    dense = make_mini_splatting_d(setup.scene, seed=args.seed)
    l1 = quick_l1_model(setup, dense, keep_fraction=args.keep)
    fmodel = uniform_foveated_model(l1, EVAL_REGION_LAYOUT, EVAL_LEVEL_FRACTIONS)
    _, poses = trace_cameras(
        args.trace, n_train=4, n_eval=args.poses, width=args.width,
        height=args.height, seed=args.seed,
    )
    trace = generate_serve_trace(
        poses,
        WorkloadSpec(
            n_clients=args.clients,
            frames_per_client=args.frames,
            seed=args.seed,
        ),
    )
    serve_config = ServeConfig(workers=args.workers)
    registry = MetricsRegistry()
    replay_trace(fmodel, trace, serve_config=serve_config, registry=registry)
    print(registry.render_prometheus(), end="")
    return 0


def cmd_accel(args: argparse.Namespace) -> int:
    from .accel import (
        GSCORE,
        METASAPIENS_BASE,
        METASAPIENS_TM,
        METASAPIENS_TM_IP,
        area_mm2,
        energy_reduction,
        run_accelerator,
    )
    from .baselines import make_mini_splatting_d
    from .foveation import render_foveated, uniform_foveated_model
    from .harness import EVAL_LEVEL_FRACTIONS, EVAL_REGION_LAYOUT, quick_l1_model
    from .perf import workload_from_fr

    setup = _setup(args)
    dense = make_mini_splatting_d(setup.scene, seed=args.seed)
    l1 = quick_l1_model(setup, dense, keep_fraction=args.keep)
    fmodel = uniform_foveated_model(l1, EVAL_REGION_LAYOUT, EVAL_LEVEL_FRACTIONS)
    fr = render_foveated(fmodel, setup.eval_cameras[0])
    workload = workload_from_fr(fr.stats)
    ints = fr.stats.raster_intersections_per_tile

    print(f"{'design':<20} {'speedup':>8} {'util':>6} {'area':>7} {'energy':>8}")
    for config in (METASAPIENS_BASE, METASAPIENS_TM, METASAPIENS_TM_IP, GSCORE):
        run = run_accelerator(ints, workload, config)
        print(f"{config.name:<20} {run.speedup:7.1f}x {run.utilization:6.2f} "
              f"{area_mm2(config):6.2f} {energy_reduction(workload, config):7.1f}x")

    if fr.level_spans:
        # Span-driven row: the foveated frame's per-level filtered span
        # lists carry the fragments the pipeline actually streams; sorting
        # is additionally priced from the span group lengths.
        from .accel import foveated_sort_work, foveated_tile_counts

        span_ints = foveated_tile_counts(fr.level_spans)
        run = run_accelerator(
            span_ints, workload, METASAPIENS_TM_IP,
            sort_work_per_tile=foveated_sort_work(fr.level_spans),
        )
        print(f"{'TM-IP (span-driven)':<20} {run.speedup:7.1f}x "
              f"{run.utilization:6.2f} {area_mm2(METASAPIENS_TM_IP):6.2f} "
              f"{energy_reduction(workload, METASAPIENS_TM_IP):7.1f}x")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help="hand-written JSON profile to consult for knob defaults (sets "
        "$REPRO_TUNE_PROFILE for this run; 'off' disables profiles; "
        "default: the per-host cache path)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("traces", help="list the 13 evaluation traces")

    sub.add_parser(
        "backends",
        help="list the rasterization backends",
    )

    render_trace_help = (
        "record the render backends' alpha-scan and composite spans and "
        "write them as a Chrome/Perfetto trace-event JSON file"
    )
    p_render = sub.add_parser("render", help="render a trace, report workload/FPS")
    _common_args(p_render)
    _trace_arg(p_render, render_trace_help)

    p_prune = sub.add_parser("prune", help="CE-prune a dense model, compare")
    _common_args(p_prune)
    p_prune.add_argument("--fraction", type=float, default=0.6,
                         help="fraction of points to remove")

    p_fov = sub.add_parser("foveate", help="foveated vs full render workload")
    _common_args(p_fov)
    p_fov.add_argument("--keep", type=float, default=0.4, help="L1 keep fraction")
    p_fov.add_argument(
        "--gaze-frames",
        type=int,
        default=8,
        help="scanpath length of the batched gaze-trajectory sweep",
    )
    _trace_arg(p_fov, render_trace_help)

    p_accel = sub.add_parser("accel", help="accelerator design-space summary")
    _common_args(p_accel)
    p_accel.add_argument("--keep", type=float, default=0.4, help="L1 keep fraction")

    p_serve = sub.add_parser(
        "serve-sim",
        help="multi-client serve simulation: batched+cached vs per-request",
    )
    _common_args(p_serve)
    p_serve.add_argument("--keep", type=float, default=0.4, help="L1 keep fraction")
    p_serve.add_argument("--clients", type=int, default=4, help="concurrent clients")
    p_serve.add_argument(
        "--frames", type=int, default=24, help="frames requested per client"
    )
    p_serve.add_argument(
        "--poses", type=int, default=6, help="shared pose-set size"
    )
    p_serve.add_argument(
        "--zipf", type=float, default=1.1, help="pose-popularity skew exponent"
    )
    p_serve.add_argument(
        "--batch-budget", type=int, default=None,
        help="max requests coalesced into one batched render (default: "
        "$REPRO_SERVE_BATCH_BUDGET, the host tuning profile, or 8)",
    )
    p_serve.add_argument(
        "--cache-mb", type=float, default=None,
        help="frame-cache byte budget in MiB (<= 0 disables the cache; "
        "default: $REPRO_FRAME_CACHE_BYTES, the host tuning profile, "
        "or 64)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=None,
        help="render worker processes (default: $REPRO_SERVE_WORKERS or "
        "0 = render inline on the event loop)",
    )
    p_serve.add_argument(
        "--shm-mb", type=float, default=None,
        help="worker-pool shared-memory frame-transport arena in MiB "
        "(<= 0 forces the pickle path; default: $REPRO_SERVE_SHM, the "
        "host tuning profile, or 64)",
    )
    p_serve.add_argument(
        "--refresh-hz", type=float, default=None,
        help="client display refresh rate; sets a 1/refresh_hz frame "
        "deadline per request and enables deadline accounting "
        "(default: best-effort, no deadlines)",
    )
    p_serve.add_argument(
        "--prefetch", type=int, default=0, metavar="HORIZON",
        help="speculative gaze-prefetch horizon in frames "
        "(0 = disabled; predictions fill the frame cache at low priority)",
    )
    p_serve.add_argument(
        "--time-scale", type=float, default=0.0,
        help="replay pacing: stretch trace timestamps into real waits "
        "(0 = drain as fast as possible — the throughput mode; "
        "1 = real time, which is where prefetch gets idle gaps to run in)",
    )
    _trace_arg(
        p_serve,
        "record the replay's request lifecycle and write it as a "
        "Chrome/Perfetto trace-event JSON file (worker render spans are "
        "stitched into the same timeline)",
    )

    p_metrics = sub.add_parser(
        "metrics",
        help="replay a small serve workload and print the unified metrics "
        "registry in Prometheus text exposition format",
    )
    _common_args(p_metrics)
    p_metrics.add_argument("--keep", type=float, default=0.4, help="L1 keep fraction")
    p_metrics.add_argument("--clients", type=int, default=3, help="concurrent clients")
    p_metrics.add_argument(
        "--frames", type=int, default=8, help="frames requested per client"
    )
    p_metrics.add_argument("--poses", type=int, default=4, help="shared pose-set size")
    p_metrics.add_argument(
        "--workers", type=int, default=0, help="render worker processes"
    )

    return parser


COMMANDS = {
    "backends": cmd_backends,
    "traces": cmd_traces,
    "render": _traced(cmd_render),
    "prune": cmd_prune,
    "foveate": _traced(cmd_foveate),
    "accel": cmd_accel,
    "serve-sim": cmd_serve_sim,
    "metrics": cmd_metrics,
}


def _use_profile(path: str | None) -> None:
    """Point ``$REPRO_TUNE_PROFILE`` at ``path`` (``None`` unsets it)."""
    from .tune.profile import PROFILE_ENV, invalidate_profile_cache

    if path is None:
        os.environ.pop(PROFILE_ENV, None)
    else:
        os.environ[PROFILE_ENV] = path
    invalidate_profile_cache()


def main(argv: list[str] | None = None) -> int:
    """Run one command.

    ``--profile`` and ``--backend`` hold for this call only: the process's
    ``$REPRO_TUNE_PROFILE`` and default backend are restored on return,
    whether the command succeeded or not.
    """
    args = build_parser().parse_args(argv)
    backend = getattr(args, "backend", None)
    if backend == "list":
        from .splat.backends import describe_backends

        print(describe_backends())
        return 0
    with contextlib.ExitStack() as restore:
        if getattr(args, "profile", None):
            from .tune.profile import PROFILE_ENV

            restore.callback(_use_profile, os.environ.get(PROFILE_ENV))
            _use_profile(args.profile)
        if backend:
            from .splat.backends import set_default_backend

            try:
                previous = set_default_backend(backend)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            restore.callback(set_default_backend, previous)
        return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
