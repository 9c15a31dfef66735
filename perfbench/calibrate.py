"""A fixed reference task that tracks how fast the machine runs right now.

On a shared host the CPU's speed drifts by up to 1.6x over seconds to
minutes, which moves every wall time with it.  The benchmark therefore times
this task just before and just after each measured piece of work, on the same
CPU, and scales the work's wall time by REFERENCE_S over their mean: the
result is the time the work would take on a machine on which the reference
task takes REFERENCE_S seconds ("reference seconds").  The task mixes what
loewnerkit spends its time on (interpreted loops, complex scalar arithmetic,
container churn, small NumPy array arithmetic and a Hermitian eigenvalue
solve) and never calls loewnerkit, so a change to the program moves the
scaled times and never the reference.

Import this module only where BLAS is pinned to one thread.
"""

import cmath
import time

import numpy as np

# About the median time of calibration() on the 2-CPU machine of the
# baseline; a constant, so scaled times read as seconds on that machine.
REFERENCE_S = 0.015

_RNG = np.random.default_rng(0)
_HERMITIAN = _RNG.standard_normal((48, 48)) + 1j * _RNG.standard_normal((48, 48))
_HERMITIAN = _HERMITIAN @ _HERMITIAN.conj().T
_LINE = np.linspace(0.0, 1.0, 20000) * (1.0 + 1.0j)


def _task():
    total = 0
    for i in range(60000):
        total += i * i
    z, acc = 0.3 + 0.2j, 0j
    for _ in range(8000):
        acc += cmath.log(1.0 - 0.99 * z) / (1.0 + z)
        z = 0.999 * z + 0.001j
    table = {}
    for i in range(15000):
        table[i % 1000] = (i, 0.5 * i, [i])
    for _ in range(6):
        np.linalg.eigvalsh(_HERMITIAN)
    for _ in range(5):
        np.abs(np.exp(_LINE) - _LINE * _LINE).sum()
    return total, acc, len(table)


def calibration() -> float:
    """Wall seconds of one run of the reference task."""
    start = time.perf_counter()
    _task()
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time in reference seconds, given the reference
    task's times just before and just after it."""
    return seconds * REFERENCE_S * 2.0 / (before + after)


def measure(work):
    """Run ``work() -> (wall seconds, result)`` between two runs of the
    reference task; returns (reference seconds, result)."""
    before = calibration()
    elapsed, result = work()
    return scaled(elapsed, before, calibration()), result
