"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload frames --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` is the separate traced run that gives the per-layer metrics and writes
a Perfetto trace (``perfbench/out/trace-<workload>-seed<n>.json``, open
it at https://ui.perfetto.dev).  Every run also writes its full record —
metrics, work counters, frame digest, resolved knobs and host — next to
the trace.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

ROOT = os.getcwd()
sys.path.insert(0, ROOT)

from perfbench.catalog import WORKLOADS  # noqa: E402  (needs ROOT on the path)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join("perfbench", "out"), help="directory for traces and records")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no repro sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(1, src)

    from perfbench.stamp import pin_environment

    removed = pin_environment()  # before anything imports repro
    t_import = time.perf_counter()
    from perfbench import closed, openloop
    from perfbench.stamp import environment_stamp, resolved_knobs

    import_s = time.perf_counter() - t_import
    runners = {"frames": closed.run, "trajectory": closed.run, "serve-paced": openloop.run, "serve-pool": openloop.run}
    stamp = environment_stamp(ROOT, removed)
    os.makedirs(args.out, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        base = os.path.join(args.out, f"{name}-seed{args.seed}-trace{args.trace}")
        trace_path = os.path.join(args.out, f"trace-{name}-seed{args.seed}.json")
        t0 = time.perf_counter()
        result = runners[name](name, args.seed, args.seconds, bool(args.trace), trace_path)
        elapsed = time.perf_counter() - t0
        record = {
            "workload": name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "elapsed_s": elapsed,
            "import_s": import_s,
            "environment": stamp,
            "knobs": resolved_knobs(),
            "attempted": result.attempted,
            "failures": result.failures,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
            **result.record,
        }
        with open(base + ".json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, default=str)
        print(f"== {name} (seed {args.seed}, trace {args.trace}, {elapsed:.1f} s) ==")
        print(
            f"host: {stamp['cpu_model']} x{stamp['nproc']}  python {stamp['python']}  "
            f"numpy {stamp['numpy']}  rev {stamp['git_rev'] or 'unknown'}  profile {stamp['tune_profile']}"
        )
        print("knobs: " + "  ".join(f"{k}={v['value']}({v['source']})" for k, v in sorted(record["knobs"].items())))
        for line in result.report:
            print(line)
        print(f"error_rate {result.failed / result.attempted:.4f} ({result.failed} of {result.attempted})")
        for failure in result.failures:
            print(f"FAILED: {failure}")
        print("metrics:")
        for metric, (value, unit) in result.metrics.items():
            print(f"  {metric:<40s} {value:14.4f} {unit}")
        print(f"record: {base}.json")
        results.append(result)

    if len(results) == 1:
        metrics = results[0].metrics
    else:
        metrics = {f"{r.workload}.{k}": v for r in results for k, v in r.metrics.items()}
    failed = sum(r.failed for r in results)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(r.attempted for r in results),
                "failed": failed,
                "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def _reap_children() -> None:
    """Stop every process the run started and wait for each to end.

    Worker pools join their workers on close; this is the backstop for an
    error path, plus the ``multiprocessing`` resource tracker, which the
    shared-memory arena starts and which would otherwise outlive this
    process by a moment.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    code = 1
    try:
        code = main()
    except Exception:
        traceback.print_exc()
    finally:
        _reap_children()
    sys.exit(code)
