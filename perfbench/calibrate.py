"""Machine-speed calibration for wall-clock timings.

Shared hosts change speed by up to half within seconds, for every
process alike, so raw wall times of identical work spread far more from
run to run than any bound worth setting. Every timed section is
therefore bracketed by a fixed reference kernel, and the benchmark
reports calibrated time: raw time divided by :func:`speed`, the
kernel's time relative to ``REFERENCE_MS``. A calibrated millisecond is
a millisecond on a host where the kernel takes exactly
``REFERENCE_MS``. The kernel is benchmark code, so no change to mslab
can move it; raw times are printed beside the calibrated ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_MS = 2.0
_N = 9
_START = [[Fraction((i * 7 + j * 3) % 11 + 1, (i + j) % 3 + 1) if i != j
           else Fraction(0) for j in range(_N)] for i in range(_N)]


def _kernel() -> None:
    # exact shortest paths on a small rational matrix: the same mix of
    # Fraction arithmetic, comparisons and list indexing as mslab's work
    m = [row[:] for row in _START]
    for k in range(_N):
        mk = m[k]
        for i in range(_N):
            mi = m[i]
            mik = mi[k]
            for j in range(_N):
                v = mik + mk[j]
                if v < mi[j]:
                    mi[j] = v


def speed() -> float:
    """Median of three kernel times over REFERENCE_MS (above 1 = slower)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000 / REFERENCE_MS
