"""Tiny reporting helper: print paper-style tables and archive them."""

from __future__ import annotations

import os
import sys

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def _tuning_stamp() -> str | None:
    """One line describing the knob state a benchmark actually ran under.

    Tuned hosts and untuned hosts produce different numbers for the same
    code; stamping the resolved span budget, render threads, cache bytes,
    batch budget and profile source into every archived table makes
    results comparable across machines.  Guarded: a broken tuning stack must never take the
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
            f"profile={profile_source()}]"
        )
    except Exception:
        return None


def report(title: str, lines: list[str]) -> None:
    """Print a table (visible via -s and in captured bench output) and save
    it under benchmarks/results/<slug>.txt."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    slug = title.lower().replace(" ", "_").replace("/", "-")[:60]
    stamp = _tuning_stamp()
    header = [f"== {title} =="] + ([stamp] if stamp else [])
    text = "\n".join([*header, *lines, ""])
    # stderr survives pytest capture in most configurations.
    print(text, file=sys.stderr)
    with open(os.path.join(RESULTS_DIR, f"{slug}.txt"), "w") as f:
        f.write(text)
