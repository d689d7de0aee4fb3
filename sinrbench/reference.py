"""Reference kernel: the machine's current speed, measured in-run.

On a small shared VM the same op takes 30-50 % longer from one few-minute
stretch to the next (CPU time tracks wall time, so it is the vCPUs that
slow down, not waiting).  Each run therefore times this fixed kernel —
NumPy broadcasting like the distance build plus a pure-Python loop like
local search and peel — many times, and set-up time (plus the latency
and throughput of a calibrated workload) is reported at reference
speed: a raw time ``t`` becomes ``t * REFERENCE_S / median kernel
time``.  The kernel does not use the program, so a change to the
program moves the reported times exactly as it moves the raw ones.  It
tracks set-up and the dense solve op closely; serve arrivals and the
sparse/sharded solve correlate with it only loosely (about 0.5), so
their latencies stay wall times.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Median kernel time on the machine the bounds were set on (2 vCPUs).
REFERENCE_S = 0.06

_POINTS = np.random.default_rng(0).uniform(size=(1024, 2))


def reference_seconds() -> float:
    """Wall time of one pass of the reference kernel."""
    start = time.perf_counter()
    diff = _POINTS[:, None, :] - _POINTS[None, :, :]
    float(np.sqrt(np.sum(diff * diff, axis=-1)).sum())
    acc = 0
    for i in range(100_000):
        acc += i * i
    return time.perf_counter() - start


def sample(samples: List[float], repeats: int = 5) -> None:
    """Append *repeats* kernel timings to *samples*."""
    samples.extend(reference_seconds() for _ in range(repeats))


def speed_factor(samples: List[float]) -> float:
    """Multiplier from this run's raw times to reference-speed times."""
    return REFERENCE_S / statistics.median(samples)
