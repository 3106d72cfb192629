"""Machine-speed calibration for the end-to-end timings.

On a shared virtual machine the same fixed work runs 15 % faster or slower
from one second to the next, and up to 45 % from one minute to the next,
which swamps any regression bound. The slowdowns come and go within about
a second (a 40 ms kernel timed back to back correlates 0.74 with the next
run, 0.19 with the run one second later), so a calibration must sit right
next to the work it corrects. The benchmark therefore times a short fixed
kernel of its own (Python object churn plus small LAPACK/BLAS calls, like the
solver's own mix) between every two solves, and reports each solve time in
reference seconds: wall seconds scaled by REFERENCE_S / the mean of the
kernel times just before and just after it. On a machine that runs the
kernel in REFERENCE_S, reference seconds are wall seconds. The kernel shares
no code with the program, so a change to the program cannot move it.

A solve of several seconds averages the fast fluctuations itself, and one
4 ms kernel run would then add more noise than it removes. After a solve the
kernel is therefore repeated for CALIBRATION_SHARE of that solve's time, and
its mean is used: one run after a 10 ms solve, over a hundred after a 5 s one.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Median kernel time, run between solves, on the machine the benchmark was
# written on (2-vCPU Xeon VM, OpenBLAS with 2 threads).
REFERENCE_S = 0.0042
CALIBRATION_SHARE = 0.1
FIRST_CALIBRATION_S = 0.25

_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((32, 32)) + 1j * _rng.standard_normal((32, 32))
_B = _rng.standard_normal((96, 96)) + 1j * _rng.standard_normal((96, 96))
_C = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))


def _kernel() -> float:
    """Integer arithmetic, dict and complex-object churn, and small LAPACK
    and BLAS calls. Timed next to the cli-relax and random-mixed solves over
    12 s windows, the integer loop with the LAPACK/BLAS calls alone slowed
    down 0.84-0.91 times as much as the solves did, and the churn with a BLAS
    product 1.04-1.07 times; the mix of both follows them most closely."""
    t0 = perf_counter()
    acc = 0
    for i in range(7_500):
        acc += i * i % 7
    counts = {}
    for i in range(2_000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0.0) + 0.5 * i
    sorted(counts.items())
    [complex(i, 1) * complex(1, i) for i in range(1_500)]
    np.linalg.eig(_A)
    _B @ _B
    _C @ _C
    return perf_counter() - t0


def calibrate(min_seconds: float = 0.0) -> float:
    """Mean wall seconds of one kernel run, over runs repeated until they
    have taken `min_seconds` (at least one run)."""
    runs, total = 0, 0.0
    while runs == 0 or total < min_seconds:
        total += _kernel()
        runs += 1
    return total / runs


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference seconds for work done between
    two calibrations."""
    return REFERENCE_S / (0.5 * (before + after))
