"""Tiny reporting helper: print paper-style tables and archive them."""

from __future__ import annotations

import os
import sys

import numpy as np

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
# Quick-smoke tables (titles tagged ``[quick]``) land here, untracked, so a
# CI or local ``--quick`` run never rewrites the archived records.
QUICK_DIR = os.path.join(os.path.dirname(__file__), "out")


def _blas_stamp() -> str:
    """numpy's version and the BLAS it links, e.g. ``numpy=2.4.6
    blas=scipy-openblas-0.3.31``.

    The packed composite is one matmul per length class, so an archived
    table's frame bits rest on the BLAS build it ran on.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"numpy={np.__version__} blas={blas['name']}-{blas['version']}"
    except Exception:
        return f"numpy={np.__version__} blas=unknown"


def _tuning_stamp() -> str | None:
    """One line describing the knob state a benchmark actually ran under.

    An env override or a hand-written host profile changes the numbers
    the same code produces; stamping the resolved span budget, render
    threads, cache bytes, batch budget, profile source and numpy/BLAS
    build into every archived table makes results comparable across
    machines.  Guarded: a broken knob resolver must never take the
    benchmarks down with it.
    """
    try:
        from repro.serve.regions import resolved_cache_bytes
        from repro.serve.scheduler import resolved_batch_budget
        from repro.splat.backends import render_threads, span_chunk_budget
        from repro.tune import profile_source

        cache = resolved_cache_bytes()
        return (
            f"[tuning: span_budget={span_chunk_budget()} "
            f"render_threads={render_threads()} "
            f"cache_bytes={'off' if cache is None else cache} "
            f"batch_budget={resolved_batch_budget()} "
            f"profile={profile_source()} "
            f"{_blas_stamp()}]"
        )
    except Exception:
        return None


def report(title: str, lines: list[str]) -> None:
    """Print a table (visible via -s and in captured bench output) and save
    it as <slug>.txt under benchmarks/results/, or under the untracked
    benchmarks/out/ when the title carries the ``[quick]`` tag."""
    out_dir = QUICK_DIR if "[quick]" in title else RESULTS_DIR
    os.makedirs(out_dir, exist_ok=True)
    slug = title.lower().replace(" ", "_").replace("/", "-")[:60]
    stamp = _tuning_stamp()
    header = [f"== {title} =="] + ([stamp] if stamp else [])
    text = "\n".join([*header, *lines, ""])
    # stderr survives pytest capture in most configurations.
    print(text, file=sys.stderr)
    with open(os.path.join(out_dir, f"{slug}.txt"), "w") as f:
        f.write(text)
