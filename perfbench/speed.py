"""Host-speed probe: scales statement times to a reference interpreter speed.

On a shared host the interpreter's speed drifts by tens of percent over tens
of seconds (on the 2-core host this benchmark was tuned on, one JOB pass
took 2.2 s to 3.7 s within one process, with CPU time tracking wall time,
so the work itself ran slower).  The probe is a fixed piece of interpreter
work -- hash probes into a 2048-entry dict, a filter and a sort -- timed
before a JOB pass's first statement and after every statement, and on
``serve-mixed`` between sends once every read has completed and between
closed-loop rounds.  A statement's time is reported as
``wall seconds * REFERENCE_PROBE_S / probe seconds``: the time it would have
taken on a host where the probe takes ``REFERENCE_PROBE_S``.  The probe
seconds are the median of the probes taken within ``SPEED_WINDOW_S`` of the
statement, and always the probes just before and after it.  One probe alone
is too noisy: scaled by its two neighbours alone, the ``serve-mixed`` reads'
p90 and top-20 spread more over ten seeds (0.13 and 0.12) than unscaled
(0.06).  A quarter-second window holds several probes (eight to twenty
around a JOB statement) and still follows the drift.  The unscaled figures are
printed next to the scaled ones.

The divisor must not depend on the engine, so the probe is kept small and
warm: its working set (about 200 KB) fits in a core's private cache, and
each measurement runs it twice in a row and keeps the second timing.  The
first run reloads whatever the statement before it evicted; the second then
reads the speed of the host, not the engine's cache footprint.  Being small,
the probe also leaves the engine's data in the shared cache between
statements.  On that host, passes with and without the probe between
statements took the same time within pass-to-pass noise (median ratio 1.02
on ``job-cold``, 0.94 on ``job-large``), the probe correlated 0.93 and 0.77
with pass time, and scaling cut the pass-to-pass quartile spread from 0.18
to 0.04 (``job-cold``) and from 0.11 to 0.02 (``job-large``).  Over ten
seeds per workload it cut the quartile spread of the JOB metrics from
0.11-0.25 to 0.02-0.07, but that of ``serve-mixed`` only from 0.14-0.23 to
0.04-0.12: the probe is single-threaded and seems to miss contention that
slows the threaded server more than one thread.  Set-up times, which the
probe cannot follow step by step, stay unscaled.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time
from typing import List

#: Probe time of the reference host; scaled figures read as if measured there.
REFERENCE_PROBE_S = 0.0003
#: Probes taken this many seconds before or after an interval count towards
#: its speed estimate.
SPEED_WINDOW_S = 0.25


class SpeedProbe:
    """A fixed interpreter workload, built once and timed many times."""

    def __init__(self) -> None:
        rng = random.Random(2019)
        keys = [rng.randrange(10**9) for _ in range(2_048)]
        self._table = {key: index for index, key in enumerate(keys)}
        self._lookups = [keys[rng.randrange(len(keys))] for _ in range(2_000)]
        self._rows = [(rng.randrange(1000), str(rng.randrange(10**6)), i)
                      for i in range(800)]

    def _once(self) -> float:
        started = time.perf_counter()
        total = 0
        for key in self._lookups:
            total += self._table[key]
        kept = [row for row in self._rows if row[0] < 500]
        kept.sort(key=lambda row: row[1])
        return time.perf_counter() - started

    def time(self) -> float:
        """Seconds one warm probe takes now (the second of two back-to-back runs)."""
        self._once()
        return self._once()


class SpeedTrace:
    """Probe timings taken through a measurement, and the host speed over
    any interval of it."""

    def __init__(self, probe: SpeedProbe) -> None:
        self._probe = probe
        self.taken: List[float] = []  # when each probe ran, ascending
        self.seconds: List[float] = []  # what it took

    def sample(self) -> None:
        self.taken.append(time.perf_counter())
        self.seconds.append(self._probe.time())

    def probe_seconds(self, start: float, end: float) -> float:
        """Median probe time within ``SPEED_WINDOW_S`` of ``[start, end]``,
        always including the last probe before ``start`` and the first after
        ``end``."""
        last = len(self.taken) - 1
        before = max(0, bisect.bisect_right(self.taken, start) - 1)
        after = min(last, bisect.bisect_left(self.taken, end))
        low = min(before, bisect.bisect_left(self.taken, start - SPEED_WINDOW_S))
        high = max(after, bisect.bisect_right(self.taken, end + SPEED_WINDOW_S) - 1)
        return statistics.median(self.seconds[low:high + 1])

    def scaled(self, start: float, end: float) -> float:
        """The wall time from ``start`` to ``end``, scaled to the reference speed."""
        return scaled(end - start, self.probe_seconds(start, end))


def scaled(seconds: float, probe_seconds: float) -> float:
    """``seconds`` of wall time scaled to the reference host's speed."""
    return seconds * REFERENCE_PROBE_S / probe_seconds
