"""A clock that counts time at a fixed reference speed of the processor.

On a shared virtual machine the speed at which the same Python code runs
changes by up to half, in spells of a second to minutes, with other
guests' load. Wall time of identical work follows it. This clock takes
that out: every PERIOD_S of wall time a SIGALRM handler runs a fixed
piece of pure-Python work (the probe) and times it. Wall time until the
next probe is scaled by REFERENCE_PROBE_S over the median of the last
three probe times, and the probes' own time is left out. The probes cost
about 1% of the time. A pass timed with this clock reads about what it
would take in a fast spell, however busy the host is.

    clock = SpeedClock()
    clock.start()
    t0 = clock.now(); work(); elapsed = clock.now() - t0
    clock.stop()

Only the main thread of one process may use it, and nothing else in that
process may use SIGALRM or ITIMER_REAL.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
# Chosen so that on the 2-vCPU machine of BASELINE.md the clock reads
# close to wall time in a fast spell. Only ratios of times on the same
# benchmark code mean anything, so it never needs to change.
REFERENCE_PROBE_S = 0.00045
PROBE_ROUNDS = 1000


def probe() -> int:
    """Interpreter-bound work like the program's: integer arithmetic,
    small tuples and dict stores and lookups."""
    table = {}
    total = 0
    for i in range(PROBE_ROUNDS):
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + i * 3 // 7
        total += table[key] % 11
    return total


class SpeedClock:
    def __init__(self):
        self.ref = 0.0  # reference seconds up to self.last
        self.last = time.perf_counter()
        self.factor = 1.0
        self.start_factor = 1.0
        self.generation = 0
        self.probes: list[float] = []

    def _tick(self, signum, frame):
        begin = time.perf_counter()
        self.ref += (begin - self.last) * self.factor
        probe()
        end = time.perf_counter()
        self.probes.append(end - begin)
        # The median of the last three probes, so one disturbed probe does
        # not rescale a whole period.
        self.factor = REFERENCE_PROBE_S / statistics.median(self.probes[-3:])
        self.last = end
        self.generation += 1

    def start(self) -> None:
        # Three probes first, so the first period is scaled by a measured
        # speed and not by that of a probe whose code runs for the first time.
        for _ in range(3):
            self._tick(None, None)
        self.start_factor = self.factor
        self.probes.clear()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        while True:
            generation = self.generation
            value = self.ref + (time.perf_counter() - self.last) * self.factor
            if generation == self.generation:  # no probe ran in between
                return value

    def slowdown(self) -> float:
        """Median probe time over the reference."""
        return statistics.median(self.probes) / REFERENCE_PROBE_S if self.probes else 1.0
