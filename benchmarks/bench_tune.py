"""Autotuner validation: measured knees and model predictions.

Two tables, two contracts:

1. **Selection quality** — the span-budget sweep's knee fit must keep at
   least 95% of the best swept setting's throughput (the whole point of
   preferring the knee over the argmax is *not* giving up throughput for
   leanness).  Asserted always: the guarantee is part of the fit's
   definition, and the table shows the measured curve it held on.

2. **Cost model** — the analytic LLC model (:mod:`repro.tune.model`)
   predicts the span-budget knee from cache geometry alone; the table
   reports the predicted-vs-measured gap.  The gap is *reported*, not
   tightly gated: on hosts whose LLC dwarfs the bench workload (or CI
   runners with huge shared L3s) the measured curve is flat and the knee
   ill-defined, and an analytic model should be judged across hosts, not
   pinned to one.

Run with ``--quick`` for the CI-sized pass of the same assertions.
"""

from __future__ import annotations

import pytest

from repro.tune import span_cost_model
from repro.tune.sweep import sweep_span_budget

from _report import report


@pytest.fixture(scope="module")
def tag(request):
    return " [quick]" if request.config.getoption("--quick") else ""


def test_tuner_selection_quality(quick, tag):
    result = sweep_span_budget(quick=quick, seed=0)
    lines = result.lines()
    lines.append(
        f"selected keeps {result.fit.relative:.1%} of peak throughput "
        f"(gate: >= 95%)"
    )
    report(f"Autotune span-budget sweep{tag}", lines)
    # The knee fit's defining guarantee, shown holding on measured data.
    assert result.fit.relative >= 0.95
    # The selection must be one of the swept settings.
    assert result.fit.selected in result.settings


def test_cost_model_prediction(quick, tag):
    model = span_cost_model()
    result = sweep_span_budget(quick=quick, seed=1)
    lines = []
    if model is None:
        lines.append("cache geometry not detectable on this host (no sysfs)")
    else:
        lines.append(
            f"LLC {model.llc_bytes >> 20} MiB, {model.bytes_per_span} B/span, "
            f"residency fraction {model.residency_fraction}"
        )
        lines.append(f"predicted span-budget knee: {model.predicted_span_budget}")
        lines.append(f"measured knee (seed 1 sweep): {int(result.fit.selected)}")
        gap = model.predicted_span_budget / result.fit.selected
        lines.append(
            f"predicted-vs-measured gap: {gap:.2f}x "
            "(reported, not gated: flat curves leave the measured knee "
            "ill-defined on big-LLC hosts)"
        )
    report(f"Autotune cost model vs measurement{tag}", lines)
    if model is not None:
        assert model.predicted_span_budget >= 1
        assert model.working_set_bytes(model.predicted_span_budget) <= (
            model.llc_bytes
        )
