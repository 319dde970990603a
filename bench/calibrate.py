"""How fast the machine ran during the timed work, so run times can be compared.

The benchmark runs on a few cores of a shared host, and the host changes how
fast the same code runs in two ways.  It takes cores away from this VM to run
something else (steal time): a fig4 run at two threads took 12.6 s with 0.4 s
stolen and 18.0 s with 8.2 s stolen.  And it shares each core with its
hyperthread sibling, so a core runs the same code up to twice as fast or as
slow from one second to the next.  Both drift from one minute to the next, and
a job of many seconds sees several switches, so timing a kernel between the
jobs does not tell how fast a job ran.  So each job's wall time is corrected
for both while it runs:

    reference wall = wall * (1 - stolen share) * REFERENCE_S / slowness
    reference CPU  = CPU  * REFERENCE_S / slowness

The stolen share is the steal ticks over busy + steal ticks of all cores in
``/proc/stat`` between the start and the end of the job (no correction where
the file is missing).  Idle ticks are left out, so a one-thread job on a
two-core machine is corrected by the steal of the core it ran on.

The slowness comes from a ``Sampler``: an interval timer raises SIGALRM every
``INTERVAL_S`` seconds, and the handler, in the main thread, runs the kernel
once to warm it and then times a second pass in CPU time
(``time.thread_time``, which counts neither steal nor waiting for a core or
for the GIL, only how fast the core ran).  The slowness is the mean of the
samples taken during the job without the top and bottom ``TRIM`` share, so
that one interrupted sample does not move it.  Measured times include the
handler's own time, about 4% of the work on every workload alike.

The kernel formats floats and joins them into lines, as the CSV writer does.
On a 2-vCPU VM, over 150 s of each workload's jobs, it took the standard
deviation of the log of a job's stolen-corrected time from 8-21% to 3-12%; a
kernel of small FFTs, ``scipy.special`` calls and eigenproblems did worse on
figures-closed and solve-spectral and about as well on the other two.  It is
fixed code that imports nothing, and it is timed warm, so a change to the
program does not change the factor; it tracks only the machine.

    python3 bench/calibrate.py            # warm kernel time of this machine at rest
"""

from __future__ import annotations

import signal
import statistics
import time

# Typical slowness on the reference machine (2-vCPU Intel Xeon VM, Python
# 3.11) during the workloads, as the run's info line reports it in
# ``kernel_s``.  It only fixes the unit, so that reference seconds are close
# to seconds there: parent and change are scaled by the same constant.
REFERENCE_S = 0.0005
INTERVAL_S = 0.025
TRIM = 0.1

# 40 rows of 8 floats, a fixed pseudo-random spread of magnitudes and signs
_ROWS = [[(-1.0) ** (i + j) * ((i * 8 + j) * 0.6180339887498949 % 1.0) * 10.0 ** ((i + 3 * j) % 9 - 4)
          for j in range(8)] for i in range(40)]


def kernel() -> int:
    """One pass of the fixed work; returns a checksum so nothing is skipped."""
    total = 0
    for row in _ROWS:
        total += len(",".join(format(v, ".17g") for v in row))
    return total


def sample() -> float:
    """CPU seconds of one pass of the kernel now, in this thread."""
    start = time.thread_time()
    kernel()
    return time.thread_time() - start


def slowness(times: list) -> float:
    """Mean of ``times`` without the top and bottom ``TRIM`` share."""
    ordered = sorted(times)
    cut = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[cut:len(ordered) - cut] or ordered)


class Sampler:
    """Samples the kernel every ``INTERVAL_S`` seconds while it is active.

    ``take()`` returns the samples since the last ``take()`` and ``scale``
    turns them into the factor from measured to reference seconds.  The
    sampler installs a SIGALRM handler, so it must be entered in the main
    thread, and it restores the previous handler on exit.
    """

    def __init__(self):
        self.times: list = []
        self._previous = None

    def _tick(self, signum, frame):
        kernel()  # warm: the timed pass should not pay for what the job evicted
        self.times.append(sample())

    def __enter__(self):
        kernel()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def take(self) -> list:
        taken, self.times = self.times, []
        return taken


def cpu_ticks():
    """(busy, stolen) clock ticks of all cores of this machine so far, or None.

    Busy is user + nice + system + irq + softirq time; stolen is the time the
    hypervisor ran something else while a core of this VM had work to do.
    """
    try:
        with open("/proc/stat") as fh:
            user, nice, system, _idle, _iowait, irq, softirq, steal = (
                int(v) for v in fh.readline().split()[1:9])
    except (OSError, ValueError):
        return None
    return user + nice + system + irq + softirq, steal


def stolen_share(before, after) -> float:
    """Share of the busy time between two ``cpu_ticks()`` readings that the host took."""
    if before is None or after is None:
        return 0.0
    busy, stolen = after[0] - before[0], after[1] - before[1]
    return stolen / (busy + stolen) if busy + stolen > 0 else 0.0


def scale(times: list) -> float:
    """Factor that turns seconds measured while ``times`` were sampled into reference seconds."""
    return REFERENCE_S / slowness(times)


if __name__ == "__main__":
    kernel()
    times = [sample() for _ in range(2000)]
    print(f"kernel CPU time: median {statistics.median(times):.6f} s, "
          f"trimmed mean {slowness(times):.6f} s (REFERENCE_S = {REFERENCE_S})")
