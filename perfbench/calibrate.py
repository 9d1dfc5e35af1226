"""Host-speed calibration: report times as if on a host of fixed speed.

A shared host's speed drifts by up to 1.5x within a minute (co-tenants take
cache and cores), and it drifts alike for wall time and CPU time.  So the
harness runs a short, fixed kernel that does not touch twogap between timed
calls, and scales every time by ``REFERENCE_S / kernel time`` measured around
it.  A change to the library changes the scaled time exactly as it changes the
wall time; a slow-down of the host changes both the call and the kernel, and
cancels.

The kernel mixes what twogap's calls spend their time on: interpreted float
arithmetic and dict work, and many numpy calls on small arrays.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time on the host the scaled times refer to (a 2-core shared VM,
# Python 3.11, numpy 2.4).  Scaled seconds are seconds on that host.
REFERENCE_S = 2.0e-3

_BASE = np.linspace(-1.0, 1.0, 48) + 0.5j * np.linspace(1.0, -1.0, 48)


def kernel() -> float:
    """Run the fixed kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(4000):
        s += (i % 7) * 0.5 - s * 1e-4
    d = {}
    for i in range(2000):
        k = i % 97
        d[k] = d.get(k, 0.0) + s
    a = _BASE
    for _ in range(60):
        a = np.exp(0.01j) * a + np.sort(a.real)[::-1] * 1e-3
        a = a / (1.0 + np.abs(a).max())
    if not np.isfinite(a).all() or len(d) != 97:
        raise RuntimeError("calibration kernel went wrong")
    return time.perf_counter() - t0


def factor(samples) -> float:
    """Scale factor REFERENCE_S / median kernel time."""
    return REFERENCE_S / statistics.median(samples)


def probe(n: int) -> float:
    """Scale factor from n kernel runs in a row."""
    return factor([kernel() for _ in range(n)])
