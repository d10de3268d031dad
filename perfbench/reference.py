"""A fixed reference job, timed before every operation to measure the host's speed.

The benchmark runs on a few cores of a shared host whose speed drifts by 10 to
40% over minutes.  The drift moves interpreter loops, small numpy calls and
sorts alike, so an operation's wall time divided by the time of this job, run
just before it, no longer carries the drift.  The end-to-end timings are
reported in these reference units.  The job never calls gibbslab, so a change
to the program cannot change it.
"""

from __future__ import annotations

import time

import numpy as np

# sized to take about 8 ms on a 2.1 GHz Xeon core: short next to an operation
LOOP_STEPS = 40_000
NUMPY_ROUNDS = 400
_VALUES = np.linspace(0.0, 1.0, 64)


def job() -> int:
    """Interpreter arithmetic, then small numpy calls like those of one Monte Carlo trial."""
    total = 0
    for i in range(LOOP_STEPS):
        total += i * i % 7
    for _ in range(NUMPY_ROUNDS):
        weights = np.exp(-50.0 * _VALUES)
        weights /= weights.sum()
        total += int(np.argmax(np.sort(weights)))
    return total


def timed_job() -> float:
    """Wall time of one run of the reference job, in seconds."""
    start = time.perf_counter()
    job()
    return time.perf_counter() - start
