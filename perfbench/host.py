"""Host-speed probe: wall times scaled to a nominal host speed.

The machines this benchmark runs on have slow phases lasting from seconds
to minutes, during which the same work takes up to 1.7 times longer.  Raw
wall times then differ by 20 % or more between runs of identical code.  A
``HostClock`` runs a fixed pure-Python probe at most every ``CADENCE_S``
seconds between operations and scales each operation's wall time by
``PROBE_NOMINAL_S / probe time``, the probe time being the mean of the
probes just before and just after the operation.  The probe uses no
wknots code, so a change to wknots moves the scaled times exactly as it
moves the wall times, while a slow host phase moves the probe as well.
"""

import bisect
import time
from fractions import Fraction

# probe time on the host the reference figures were taken on (2 vCPUs,
# Python 3.11); scaled times read as seconds on that host in its usual phase
PROBE_NOMINAL_S = 0.07


def probe():
    """Tuple churn and sparse rational elimination, like wknots' hot loops."""
    for _ in range(2):
        out = set()

        def matchings(arrows, free):
            if not free:
                out.add(tuple(sorted(arrows)))
                return
            t = free[0]
            for h in free[1:]:
                rest = [x for x in free if x not in (t, h)]
                matchings(arrows + [(t, h)], rest)
                matchings(arrows + [(h, t)], rest)

        matchings([], list(range(1, 9)))
        rows = {}
        for r in range(120):
            row = {(r * 7 + j * 13) % 211: Fraction((r + j) % 5 + 1, j % 3 + 1)
                   for j in range(10)}
            for c in sorted(row):
                piv = rows.get(c)
                if piv is None or c not in row:
                    continue
                f = row[c]
                for pc, pv in piv.items():
                    w = row.get(pc, Fraction(0)) - f * pv
                    if w:
                        row[pc] = w
                    else:
                        row.pop(pc, None)
            if row:
                p = min(row)
                inv = 1 / row[p]
                rows[p] = {c: v * inv for c, v in row.items()}


class HostClock:
    """Probes the host now and then, and scales wall-time intervals."""

    CADENCE_S = 1.0

    def __init__(self):
        self.starts = []   # start of each probe (perf_counter)
        self.probes = []   # duration of each probe
        self.tick()

    def tick(self):
        start = time.perf_counter()
        probe()
        self.starts.append(start)
        self.probes.append(time.perf_counter() - start)

    def tick_if_due(self):
        if time.perf_counter() - self.starts[-1] >= self.CADENCE_S:
            self.tick()

    def scaled(self, start, seconds):
        """The interval [start, start + seconds) in seconds at nominal host
        speed; call after a probe that follows the interval."""
        before = bisect.bisect_right(self.starts, start) - 1
        after = min(bisect.bisect_left(self.starts, start + seconds),
                    len(self.starts) - 1)
        local = (self.probes[before] + self.probes[after]) / 2
        return seconds * PROBE_NOMINAL_S / local
