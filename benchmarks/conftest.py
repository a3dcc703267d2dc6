"""Shared benchmark environment.

Benchmarks reproduce the paper's tables/figures at evaluation scale (small
procedural scenes, 96×64 px — see DESIGN.md).  Model construction is cached
per session so each figure's bench times only its own pipeline.

Run with ``pytest benchmarks/ --benchmark-only``; each bench also prints the
paper-style table and archives it under ``benchmarks/results/`` (``--quick``
tables go to the untracked ``benchmarks/out/``).
"""

from __future__ import annotations

import pytest

import repro
from repro.baselines import build_baselines
from repro.foveation import FRTrainConfig, build_foveated_model
from repro.harness import EVAL_LEVEL_FRACTIONS, EVAL_REGION_LAYOUT, quick_l1_model
from repro.splat import ViewCache


def pytest_addoption(parser):
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="smoke-test scale: shrink benchmark workloads for CI",
    )


@pytest.fixture(scope="session")
def quick(request) -> bool:
    return request.config.getoption("--quick")

# Evaluation scale for all benchmarks.
BENCH_WIDTH = 96
BENCH_HEIGHT = 64
BENCH_POINTS = 800
BENCH_TRAIN = 3
BENCH_EVAL = 2


class BenchEnv:
    """Caches trace setups and derived models across benchmarks."""

    def __init__(self) -> None:
        self._setups: dict[str, repro.TraceSetup] = {}
        self._baselines: dict[tuple, dict] = {}
        self._l1: dict[str, object] = {}
        self._fr: dict[tuple, object] = {}
        # Shared view-preparation cache: one PreparedView per (model, pose),
        # reused across measurement repeats instead of re-projecting.
        self.view_cache = ViewCache(maxsize=512)

    def setup(self, trace: str) -> repro.TraceSetup:
        if trace not in self._setups:
            self._setups[trace] = repro.setup_trace(
                trace,
                n_points=BENCH_POINTS,
                width=BENCH_WIDTH,
                height=BENCH_HEIGHT,
                n_train=BENCH_TRAIN,
                n_eval=BENCH_EVAL,
            )
        return self._setups[trace]

    def baselines(self, trace: str, names: tuple) -> dict:
        key = (trace, names)
        if key not in self._baselines:
            setup = self.setup(trace)
            self._baselines[key] = build_baselines(
                setup.scene, setup.train_cameras, names=names
            )
        return self._baselines[key]

    def l1_model(self, trace: str, keep_fraction: float = 0.35):
        """MetaSapiens-H-style L1 model: CE-pruned from Mini-Splatting-D."""
        key = (trace, keep_fraction)
        if key not in self._l1:
            setup = self.setup(trace)
            dense = self.baselines(trace, ("Mini-Splatting-D",))["Mini-Splatting-D"]
            self._l1[key] = quick_l1_model(setup, dense, keep_fraction=keep_fraction)
        return self._l1[key]

    def study_l1(self, trace: str):
        """Study-grade L1: CE-pruned at 70%% keep + real fine-tuning."""
        key = ("study", trace)
        if key not in self._l1:
            from repro.train import TrainConfig, finetune as finetune_model

            setup = self.setup(trace)
            dense = self.baselines(trace, ("Mini-Splatting-D",))["Mini-Splatting-D"]
            l1 = quick_l1_model(setup, dense, keep_fraction=0.7)
            finetune_model(
                l1, setup.train_cameras, setup.train_targets, TrainConfig(iterations=10)
            )
            self._l1[key] = l1
        return self._l1[key]

    def study_model(self, trace: str):
        """Study-grade MetaSapiens-H: trained L1 + HVS-guided level training.

        This is the build whose HVSQ matches the dense baseline (Fig 11 and
        Table 1); slower to construct than :meth:`fr_model`.
        """
        key = ("study", trace)
        if key not in self._fr:
            setup = self.setup(trace)
            self._fr[key] = build_foveated_model(
                self.study_l1(trace),
                setup.train_cameras,
                setup.train_targets,
                EVAL_REGION_LAYOUT,
                FRTrainConfig(
                    level_fractions=(1.0, 0.6, 0.4, 0.25), finetune_iterations=15
                ),
                finetune=True,
            )
        return self._fr[key]

    def fr_model(self, trace: str, finetune: bool = False, keep_fraction: float = 0.35):
        key = (trace, finetune, keep_fraction)
        if key not in self._fr:
            setup = self.setup(trace)
            l1 = self.l1_model(trace, keep_fraction)
            result = build_foveated_model(
                l1,
                setup.train_cameras,
                setup.train_targets,
                EVAL_REGION_LAYOUT,
                FRTrainConfig(
                    level_fractions=EVAL_LEVEL_FRACTIONS, finetune_iterations=3
                ),
                finetune=finetune,
            )
            self._fr[key] = result
        return self._fr[key]


@pytest.fixture(scope="session")
def env() -> BenchEnv:
    return BenchEnv()
