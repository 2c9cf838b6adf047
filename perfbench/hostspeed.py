"""Host speed, from a fixed kernel timed between the benchmark's ops.

On a shared host the same work runs 10–25 % faster or slower from one
half-minute to the next (other tenants on the same cores), and all host
times of a run move together.  The benchmark times :func:`kernel` — a
fixed mix of interpreter and small-array numpy work, like the program's
— between ops and reports host times scaled to the reference host's
speed: ``t * REF_KERNEL_S / median(kernel times)``.  The kernel does not
touch the program, so a change to the program moves the scaled times
exactly as it moves the raw ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median :func:`kernel` time on the reference host (2-vCPU Xeon at
#: 2.1 GHz, Python 3.11.7, numpy 2.4.6).
REF_KERNEL_S = 0.0065

_ARRAY = np.arange(20000.0)


def kernel() -> int:
    s = 0
    for i in range(60000):
        s += i * i % 7
    a = _ARRAY
    for _ in range(30):
        a = np.sqrt(a * 1.0001 + 1.0)
    return s


def sample() -> float:
    """Wall seconds of one :func:`kernel` run."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(samples: list[float]) -> float:
    """Factor that takes this run's host times to the reference speed."""
    return REF_KERNEL_S / statistics.median(samples)
