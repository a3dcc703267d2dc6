"""The open-loop generator against a fake server that stalls once.

The fake server blocks the event loop for ``STALL_S`` on one request, the
way an inline render does.  Requests due during the stall must show it in
their latency (counted from due time) and in the generator's lag, and
every request sent must come back as either a success or a failure.
"""

from __future__ import annotations

import asyncio
import time

from perfbench.loadgen import open_loop, percentile

RATE_HZ = 100.0
N_REQUESTS = 100
STALL_AT = 20
STALL_S = 0.25
FAIL_AT = 50


def _run(stall: bool):
    offsets = [i / RATE_HZ for i in range(N_REQUESTS)]

    async def submit(index: int) -> int:
        if stall and index == STALL_AT:
            time.sleep(STALL_S)  # blocks the loop, like an inline render
        if index == FAIL_AT:
            raise RuntimeError("fake render failure")
        await asyncio.sleep(0)
        return index

    return asyncio.run(open_loop(offsets, list(range(N_REQUESTS)), submit))


def test_stall_shows_in_latency_and_generator_lag():
    outcomes = _run(stall=True)
    assert len(outcomes) == N_REQUESTS
    succeeded = sum(o.ok for o in outcomes)
    failed = sum(not o.ok for o in outcomes)
    assert succeeded + failed == N_REQUESTS
    assert failed == 1 and not outcomes[FAIL_AT].ok

    stall_start = outcomes[STALL_AT].sent
    stall_end = stall_start + STALL_S
    during = [o for o in outcomes if stall_start < o.due < stall_end - 0.02]
    assert len(during) >= 10
    for o in during:
        # Sent only once the loop was free again, so charged the rest of the stall.
        assert o.latency >= (stall_end - o.due) - 0.005
        assert o.lag >= (stall_end - o.due) - 0.005
    lags = [o.lag for o in outcomes]
    assert percentile(lags, 95) >= 0.1


def test_no_stall_keeps_the_generator_on_time():
    outcomes = _run(stall=False)
    assert sum(o.ok for o in outcomes) == N_REQUESTS - 1
    assert percentile([o.lag for o in outcomes], 95) < STALL_S / 4
