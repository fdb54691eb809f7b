"""Host-speed probe: a fixed piece of work whose time tracks the machine's speed.

The shared 2-vCPU host the bounds were set on runs the same code at speeds
about 1.5x apart, in phases that last from seconds to minutes; a run of
half a minute cannot average a phase out, so raw timings from two runs a
few minutes apart differ by more than any useful bound.  The workers
therefore run :func:`probe` before every timed task and after the last
one (outside the tasks' timing) and scale timings by

    REFERENCE_PROBE_S / (probe time)

so that a timing reads as seconds on a host where the probe takes
``REFERENCE_PROBE_S``.  The probe time for a task is the mean of two
estimates: the mean probe of its pass, which follows slow changes and
suits long tasks, and the mean of the probes just before and after it,
which follows the fast ones and suits short tasks (``run.py`` has the
details).  A change to qperm moves the task times but not the
probe, so the scaled timings still show it; a change of host speed moves
both and cancels.  The probe mixes the kinds of work the workloads do:
interpreted Python, many small numpy calls, a BLAS product and a
memory-bound copy.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_PROBE_S = 0.0025

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((16, 16))
_BLAS = _RNG.standard_normal((160, 160))
_MEMORY = np.zeros(1 << 18)


def probe() -> float:
    """Seconds taken by the fixed probe work (2.5 to 4.5 ms on the host above)."""
    t0 = perf_counter()
    s = 0
    for k in range(10_000):
        s += k * k
    x = _SMALL
    for _ in range(200):
        x = (_SMALL @ x) * 0.01 + _SMALL.T
    for _ in range(2):
        _BLAS @ _BLAS
        _MEMORY.copy().sum()
    return perf_counter() - t0
