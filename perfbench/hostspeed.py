"""Host speed sampling, so that times are reported at a reference speed.

On a shared host the same figure_all pass ran between 0.7x and 1.3x its
median time from one minute to the next, in cpu time as in wall time,
with phases of 30 to 60 s.  Raw times of two runs then differ by more
than any bound worth gating.  ``HostSpeed`` runs a fixed pure-Python loop
from a SIGALRM handler every ``INTERVAL_S`` of wall time.  The loop's
time at that moment, against ``REF_KERNEL_S``, gives the host's speed.
An interval measured under sampling is reported with the handler's own
time taken out and the rest scaled by the mean speed of the samples
inside it, i.e. as its length at the speed where the loop takes
``REF_KERNEL_S``.  On figure_all this cut the spread of pass times from
0.20 to 0.04 of their median; a loop timed only between calls cut it to
0.09.

Handlers run between bytecodes of the main thread, so a long call into C
delays a sample until it returns; the mean then leans on the Python-level
parts of the interval.  Interrupted system calls are restarted.
"""

import signal
import time

INTERVAL_S = 0.05
KERNEL_LOOPS = 5000
REF_KERNEL_S = 0.0004     # about the loop's median time on a 2.1 GHz Xeon


class HostSpeed:
    """Samples the loop's (wall, cpu) time while started."""

    def __init__(self):
        self.walls = []
        self.cpus = []

    def _sample(self, *_):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        acc = 0
        for i in range(KERNEL_LOOPS):
            acc += i * i % 7
        self.cpus.append(time.process_time() - cpu0)
        self.walls.append(time.perf_counter() - wall0)

    def start(self):
        """Take one sample now, then one every INTERVAL_S."""
        signal.signal(signal.SIGALRM, self._sample)
        signal.siginterrupt(signal.SIGALRM, False)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        """The number of samples so far: take one right before an
        interval's start time and one right after its end time."""
        return len(self.walls)

    def at_reference(self, start, end, wall, cpu):
        """(wall, cpu) seconds measured between marks ``start`` and
        ``end``, less the time the samples between them took, at the
        reference speed.  An interval with no sample of its own uses the
        latest one before it."""
        walls = self.walls[start:end] or self.walls[start - 1:start]
        cpus = self.cpus[start:end] or self.cpus[start - 1:start]
        wall -= sum(self.walls[start:end])
        cpu -= sum(self.cpus[start:end])
        wall_speed = sum(REF_KERNEL_S / w for w in walls) / len(walls)
        cpu_speed = sum(REF_KERNEL_S / max(c, 1e-9) for c in cpus) / len(cpus)
        return wall * wall_speed, cpu * cpu_speed
