"""Timing adjusted for the speed of a shared host.

On a shared host the same pure-Python work can take half as long again a
minute later, with no change to the code, and the speed changes within
seconds.  ``HostClock`` times a block of work and, every ``TICK_S`` seconds
of it, runs a fixed probe from a ``SIGALRM`` handler in the same thread.
The probe's duration measures how fast the host runs at that moment.  The
work's time, less the time spent in probes, is scaled to a host on which one
probe takes ``REFERENCE_PROBE_S``:

    reference_s = work_s * mean(REFERENCE_PROBE_S / probe_s over the ticks)

A change to the program moves ``reference_s`` as it moves the wall time;
a change in host speed moves the probe as well, and cancels out.  The probe
is the benchmark's own code and calls nothing in ``liecodim``.

    with HostClock() as clock:
        work()
    clock.wall_s, clock.reference_s
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

TICK_S = 0.02
# Seconds one probe takes at the reference speed.  On the 2-core Xeon VM the
# benchmark was written on, a probe took about 0.5 ms.
REFERENCE_PROBE_S = 0.0005


def probe() -> float:
    """Seconds for a fixed pure-Python workload of ``Fraction`` arithmetic,
    the kind of work the sweeps' exact linear algebra does.  A loop of
    integer arithmetic slowed less than the sweeps when the host slowed."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
    return time.perf_counter() - start


class HostClock:
    """Context manager: wall time and host-speed-adjusted time of a block.

    Installs a ``SIGALRM`` handler, so it runs only in the main thread, and
    blocks do not nest.
    """

    def __init__(self, tick_s: float = TICK_S, probe=probe):
        self.tick_s = tick_s
        self.probe = probe
        self.probes: list[float] = []
        self.wall_s = 0.0  # the block's wall time
        self.work_s = 0.0  # wall time less the time spent in probes

    def _tick(self, signum, frame) -> None:
        self.probes.append(self.probe())

    def __enter__(self) -> "HostClock":
        self.probes = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall_s = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.work_s = self.wall_s - sum(self.probes)
        if not self.probes:  # a block shorter than one tick
            self.probes.append(self.probe())

    @property
    def speed(self) -> float:
        """Mean host speed over the block; 1.0 is the reference speed."""
        return sum(REFERENCE_PROBE_S / p for p in self.probes) / len(self.probes)

    @property
    def reference_s(self) -> float:
        """Seconds the block's work would take at the reference speed."""
        return self.work_s * self.speed
