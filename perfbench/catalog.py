"""The workload and metric names, read from ``BENCHMARK.json``.

Every workload reports every metric: the end-to-end ones are defined for
each workload (see ``README.md``), and a per-layer metric of a layer a
workload does not run reads 0.
"""

from __future__ import annotations

import json
import os

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")

with open(BENCHMARK_JSON, encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)

WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def empty_layers() -> dict[str, float]:
    """All per-layer metrics at 0, for a workload to fill in what it runs."""
    return {name: 0 for name in PER_LAYER}
