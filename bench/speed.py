"""Wall-clock time corrected for the speed of a shared machine.

On a machine shared with other tenants the same code can run about twice
as slowly for seconds to minutes at a time, with no CPU steal visible to
the guest.  A run of a few tens of seconds cannot average that away, so
the benchmark times everything with a :class:`SpeedClock`: while it is
installed, a ``SIGALRM`` handler times a fixed probe (small numpy and
float work, like the kernels) every ``INTERVAL_S``.  Between two probes
the clock advances by the wall time elapsed times ``REFERENCE_PROBE_S``
over the latest probe's duration, and the probes' own time is left out.
An interval read on this clock is the time the work would have taken at
the speed at which the probe takes ``REFERENCE_PROBE_S``, which is about
the machine's uncontended speed.  A program that does more work still
reads slower; a machine that slows down does not.

The handler runs in the main thread between bytecodes, so no thread is
started, and it touches no state of the program under test.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

#: Probe duration that defines reference speed (the probe's time on an
#: uncontended 2.0 GHz Xeon vCPU).
REFERENCE_PROBE_S = 3.5e-4
INTERVAL_S = 0.02
_PROBE_STEPS = 40
_PROBE_WEIGHTS = np.array([0.91, 0.05, 0.03, 0.01])


def _probe_work() -> float:
    acc = 0.0
    for i in range(_PROBE_STEPS):
        v = np.clip(_PROBE_WEIGHTS * (1.0 + 1e-3 * (i % 7)), 0.0, 1.0)
        v = v / v.sum()
        acc += math.exp(-float(v[1])) + float(np.maximum(v, 0.02).sum())
    return acc


def probe_speed() -> float:
    """Current speed relative to reference speed, from one timed probe."""
    start = time.perf_counter()
    _probe_work()
    return REFERENCE_PROBE_S / (time.perf_counter() - start)


class SpeedClock:
    """Reference-speed clock, live while installed as a context manager.
    ``now()`` may be called freely; only differences are meaningful."""

    def __init__(self):
        # (reference time, wall time, speed) at the end of the latest probe,
        # replaced as one tuple so that now() never sees a half update.
        self._mark = (0.0, time.perf_counter(), 1.0)

    def now(self) -> float:
        ref, wall, speed = self._mark
        return ref + (time.perf_counter() - wall) * speed

    def _tick(self, signum=None, frame=None) -> None:
        ref, wall, speed = self._mark
        start = time.perf_counter()
        ref += (start - wall) * speed
        new_speed = probe_speed()
        self._mark = (ref, time.perf_counter(), new_speed)

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
