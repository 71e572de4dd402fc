"""Reference clock: a fixed piece of interpreter work timed next to every job.

The benchmark runs on shared hardware whose speed changes many times a
second (a 2-vCPU guest runs the same code 1.5-2x slower while other tenants
load its cores; NOTES.md, last section).  A job's raw wall time mixes the
program's work with that speed.  The reference loop below does the same kind
of work as the program (``Fraction`` arithmetic, dict and tuple churn, small
numpy arrays) and is timed in the same process right before and right after
each job.  A job's *scaled* time is its wall time times
``NOMINAL_S / reference``, where ``reference`` is the mean of the two
reference samples around it: the job's time on a machine that runs the
reference loop in ``NOMINAL_S`` seconds.  Within one run, scaling took the
spread of single job times from 35-45% of their median to 9-14%.

The loop lives in the benchmark, so no change to the program can change it;
a faster program gives proportionally smaller scaled times.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# the reference loop's time in the fast state of the reference machine
# (2-vCPU Xeon guest, Python 3.11, numpy 2.4); only the unit depends on it
NOMINAL_S = 0.004

_M = np.arange(36, dtype=float).reshape(6, 6) / 36.0


def _work() -> None:
    acc = Fraction(0)
    third = Fraction(1, 3)
    table: dict = {}
    for i in range(1, 750):
        acc += third * Fraction(i, i + 7)
        key = (i % 13, i % 7)
        table[key] = table.get(key, 0) + i
    v = np.ones(6)
    for _ in range(150):
        v = _M @ v
        v = v / np.abs(v).max()


def sample() -> float:
    """Seconds the reference loop takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def scale(seconds: float, ref_a: float, ref_b: float) -> float:
    """``seconds`` scaled to the nominal speed by two reference samples taken
    next to it (before and after a job; after an import)."""
    return seconds * NOMINAL_S / (0.5 * (ref_a + ref_b))
