"""Open-loop load generator.

Requests are sent on a fixed schedule whether or not earlier ones have
completed, so a stalled server builds a queue instead of slowing the
clients down.  Every request is timed from when it was *due*: a stall
that delays the generator itself (an inline render blocking the event
loop) is charged to the requests due during it, and ``lag`` records how
late each one was actually sent.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from typing import Any, Awaitable, Callable, Sequence

import numpy as np

# Requests still open this long after the last one was sent are cancelled.
DRAIN_TIMEOUT_S = 120.0


@dataclasses.dataclass
class Outcome:
    """One request's life: times are seconds on the generator's clock."""

    index: int
    due: float
    sent: float
    done: float
    result: Any = None
    error: BaseException | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def latency(self) -> float:
        """Response time counted from when the request was due."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        """How late the generator sent the request."""
        return self.sent - self.due


async def open_loop(
    offsets: Sequence[float],
    payloads: Sequence[Any],
    submit: Callable[[Any], Awaitable[Any]],
    *,
    on_result: Callable[[Outcome], None] | None = None,
) -> list[Outcome]:
    """Send ``payloads[i]`` at ``offsets[i]`` seconds after start.

    ``submit`` is awaited in its own task per request.  ``on_result`` sees
    each outcome as it completes (so callers can reduce a response and drop
    it instead of holding every frame).  Requests still open
    ``DRAIN_TIMEOUT_S`` after the last one was sent are cancelled and fail.
    Returns the outcomes in schedule order.
    """
    if len(offsets) != len(payloads):
        raise ValueError("need one offset per payload")
    if any(b < a for a, b in zip(offsets, offsets[1:])):
        raise ValueError("offsets must be non-decreasing")

    outcomes: list[Outcome | None] = [None] * len(offsets)

    async def one(index: int, due: float, payload: Any) -> None:
        sent = time.perf_counter()
        try:
            result = await submit(payload)
        except asyncio.CancelledError:
            outcomes[index] = Outcome(
                index, due, sent, time.perf_counter(), error=TimeoutError("request cancelled at drain timeout")
            )
            raise
        except Exception as exc:
            outcome = Outcome(index, due, sent, time.perf_counter(), error=exc)
        else:
            outcome = Outcome(index, due, sent, time.perf_counter(), result=result)
        if on_result is not None:
            on_result(outcome)
            outcome.result = None
        outcomes[index] = outcome

    tasks: list[asyncio.Task] = []
    t0 = time.perf_counter()
    for index, (offset, payload) in enumerate(zip(offsets, payloads)):
        due = t0 + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(index, due, payload)))
    if tasks:
        _, pending = await asyncio.wait(tasks, timeout=DRAIN_TIMEOUT_S)
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.wait(pending)
    for task in tasks:
        if not task.cancelled() and task.exception() is not None:
            raise task.exception()
    return [o for o in outcomes if o is not None]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100); NaN when empty."""
    return float(np.percentile(values, q)) if len(values) else float("nan")
