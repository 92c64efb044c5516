"""A fixed probe of the host's speed, independent of the code under test.

On a shared virtual machine the core itself runs slower or faster in
phases of seconds to minutes, and process CPU time follows wall time, so
repeating a report does not average the host away.  The benchmark
therefore times this probe around and during every report and states
each report's time at reference speed: the measured time scaled by
``REF_S`` over the mean of those probe times (see ``child.py`` and
``run.py``).

The probe does a little of what the program does: exact ``Fraction``
arithmetic, ``np.longdouble`` 3x3 products, tuple-keyed dict updates and
an integer loop.  It uses only the standard library and numpy, so a
change to ``galilei21`` cannot change its time.  The cyclic garbage
collector is off while it runs: a collection started by the probe's own
allocations would traverse the program's heap, which grows with the
enveloping caches, and charge that to the probe.
"""

import gc
import time
from fractions import Fraction

import numpy as np

# About the probe's fastest time (2.9 ms) on the machine the bounds were set
# on, a shared 2-vCPU Intel Xeon VM with 80-bit long double.  It only fixes
# the scale of the normalised times; any constant would do.
REF_S = 0.003

_STEP = np.eye(3, dtype=np.longdouble) * np.longdouble(1.0000001)


def probe() -> float:
    """Seconds taken by the fixed probe work, on the wall clock."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _timed_work()
    finally:
        if enabled:
            gc.enable()


def _timed_work() -> float:
    start = time.perf_counter()
    step, total = Fraction(1, 3), Fraction(0)
    for i in range(1, 300):
        total += step * Fraction(i, i + 1)
    a = _STEP.copy()
    for _ in range(150):
        a = a @ _STEP
    table = {}
    for i in range(3000):
        table[(i, i & 7)] = i
    x = 0
    for i in range(20_000):
        x += i * i % 7
    return time.perf_counter() - start
