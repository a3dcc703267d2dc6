"""Host-speed probe: puts wall-clock times on a common scale across runs.

The benchmark shares its host with other tenants, and the host's speed
drifts by 10–25% between runs minutes apart — more than most changes the
benchmark has to resolve.  A fixed NumPy kernel (gather, ``exp``, prefix
sum and sort over 1M elements — the memory-bound operations the span
engine is made of, on a working set larger than the L2 cache) is timed
between the workload's operations, and its median measures how fast the
host is right then.  The end-to-end times (not the set-up time, which is
mostly interpreter work the probe does not track) are reported rescaled
to a probe median of ``REFERENCE_S``:
``reported = wall * REFERENCE_S / probe median``.  (On the closed loops a median taken per pass, to follow drift
within a run, gave no steadier figures; the serve workloads' saturation
rounds are each rescaled by the samples taken right after the round,
which brought serve-pool's spreads over ten seeds from 0.12–0.15 down
to 0.07–0.08.)  On the reference host (a 2-vCPU Xeon KVM guest) the two agree; a run on a slower moment or a slower host
reports the same figures to within the probe's tracking (measured: as
the host drifted by 45%, the ratio of a 256x192 ``render_foveated`` to
the probe stayed within 4%).  The raw wall-clock figures and every probe sample are printed
and recorded next to the rescaled ones.

The probe builds its arrays for each call to ``sample`` and frees them
after it, so it holds no memory between samples (none for a forked
render worker to inherit) and adds to the reported peak resident set only
if a sample runs at the process's peak; ``rss_mb`` records what the first
sample added.
"""

from __future__ import annotations

import resource
import statistics
import time

import numpy as np

# Probe median on the reference host, seconds.
REFERENCE_S = 0.015
_N = 1_000_000


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class HostProbe:
    """Times the fixed kernel on demand and keeps every sample."""

    def __init__(self) -> None:
        before = _maxrss_mb()
        self.samples: list[float] = []
        self.sample()  # the first call pays page faults; not a speed sample
        self.samples.clear()
        self.rss_mb = _maxrss_mb() - before

    def sample(self, repeats: int = 1) -> None:
        rng = np.random.default_rng(12345)
        values = rng.random(_N)
        index = rng.integers(0, _N, _N)
        for _ in range(repeats):
            t0 = time.perf_counter()
            x = values[index]
            np.negative(x, out=x)
            np.exp(x, out=x)
            np.cumsum(x, out=x)
            np.sort(x[::7])
            self.samples.append(time.perf_counter() - t0)

    @property
    def median_s(self) -> float:
        return statistics.median(self.samples)

    @property
    def scale(self) -> float:
        """Factor taking this run's wall-clock times to the reference host."""
        return REFERENCE_S / self.median_s

    def recent_scale(self, n: int) -> float:
        """:attr:`scale` from the last ``n`` samples only."""
        return REFERENCE_S / statistics.median(self.samples[-n:])
