"""The benchmark's clock: seconds at a reference speed of the host.

The benchmark shares its host with other tenants, and the host's speed
drifts in phases that last seconds to minutes: the same Python loop
takes up to 1.8x as long in a slow phase, in CPU time as much as in
wall time, so a CPU clock does not remove the drift (the process is
not waiting, it runs slower).

:class:`ReferenceClock` divides the drift out.  While it ticks, a
profiling timer interrupts the process every ``PERIOD_S`` of CPU time
and runs :func:`probe`, fixed work that the program never runs.  The
clock advances at wall speed times ``NOMINAL_S / t``, where ``t`` is
the median of the last ``WINDOW`` probe times, and it stands still
while a probe runs.  A reference second is a wall second on a host
where the probe takes ``NOMINAL_S``.

Twelve 6 s runs each of ``read_cold`` and of a like workload of
cache-hit pages met host slowdowns from 1.15x to 1.8x.  On the wall
clock the middle half of their page p50s and capacities spread by
12-35% of the median; on this clock, by 3.5-8%.  The probe's two
halves, and the window of four probes, were chosen on those runs:
with the dictionary half alone the cache-hit capacity spread by
12.5%, and a window of eight probes (0.4 s) lagged the drift enough
that the cache-hit p50 spread by 8% instead of 3.5%.  The clock does
not always do as well for work that fine: in a later set of ten runs
the cache-hit p50 spread by 25%, which is why the benchmark has no
such workload.

The probe runs inside whatever Python code was executing when the
timer fired (between two bytecodes, on the main thread), so it can
interrupt the program anywhere; it touches nothing of the program's.
"""

from __future__ import annotations

import contextlib
import random
import signal
import statistics
import time
from collections import deque

#: CPU seconds between probes.
PERIOD_S = 0.05
#: probe times the speed estimate is the median of (0.2 s of CPU).
WINDOW = 4
#: iterations of the probe's two loops (about equal time each).
DICT_STEPS = 2000
BITSET_STEPS = 800
#: the probe's time at the reference speed: about its time in this
#: host's fast phases (a 2.0 GHz Xeon vCPU, Python 3.11).
NOMINAL_S = 0.0005
#: operands of the probe's bitset loop: the kernel keeps its sets as
#: Python integers of about this width.
_WORDS = tuple(random.Random(0).getrandbits(2048) for _ in range(256))


def probe() -> int:
    """The fixed calibration work: small-integer arithmetic with
    dictionary stores, then bitset arithmetic on big integers — the two
    kinds of work the program's hot paths do."""
    total = 0
    table = {}
    for index in range(DICT_STEPS):
        total += index * index % 7
        table[index & 1023] = total
    bits = 0
    for index in range(BITSET_STEPS):
        word = _WORDS[index & 255] & _WORDS[index * 7 & 255]
        bits |= word >> (index & 63)
        bits ^= word
    return total + bits.bit_count()


class ReferenceClock:
    """Seconds at the reference speed; call it like ``time.perf_counter``.

    Outside :meth:`ticking` it runs at the speed the last probes
    measured (at wall speed before any probe)."""

    def __init__(self):
        #: every probe time, in wall seconds.
        self.probes: list[float] = []
        self._recent: deque[float] = deque(maxlen=WINDOW)
        #: wall seconds per reference second.
        self.slowdown = 1.0
        self._base = 0.0
        self._base_wall = time.perf_counter()

    def __call__(self) -> float:
        return self._base + (time.perf_counter() - self._base_wall) / self.slowdown

    def calibrate(self, *_signal) -> None:
        """Time one probe and update the speed estimate; the clock
        does not advance while the probe runs.  Also the timer's signal
        handler."""
        now = self()
        started = time.perf_counter()
        probe()
        took = time.perf_counter() - started
        self.probes.append(took)
        self._recent.append(took)
        self.slowdown = statistics.median(self._recent) / NOMINAL_S
        self._base = now
        self._base_wall = time.perf_counter()

    def median_slowdown(self) -> float:
        """The host's median slowdown over every probe so far."""
        return statistics.median(self.probes) / NOMINAL_S

    @contextlib.contextmanager
    def ticking(self):
        """Probe every ``PERIOD_S`` of CPU time until the block ends
        (after a full window of probes up front)."""
        for _ in range(WINDOW):
            self.calibrate()
        previous = signal.signal(signal.SIGPROF, self.calibrate)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)
