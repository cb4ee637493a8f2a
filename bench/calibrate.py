"""Factor the machine's momentary speed out of wall times.

The benchmark runs on shared machines, where the same code runs 20-50%
slower for seconds to minutes while neighbours load the core.  Process CPU
time does not help: it slows by the same factor as wall time (the core is
slower, not descheduled; on the reference machine below, raw wall time and
CPU time of ``dense`` both spread by 0.20 over five seeds).  A fixed
calibration kernel (interpreter work plus small numpy calls, like the
program's hot path) slows down by a similar factor, so the ratio of the
two is far steadier (see README.md for the spreads).

While a call is measured, a SIGALRM timer takes a kernel sample every
``INTERVAL_S`` between the program's bytecodes, plus once before and once
after the call.  A sample runs the kernel twice and times only the second
run: the first refills the caches the program evicted, so the timed run
reads the core's speed, not the program's cache footprint.  The call's time
minus the time spent in samples, divided by the mean timed kernel run over
``REFERENCE_S``, is the time the call would have taken on a core where the
kernel takes ``REFERENCE_S``, its uncontended time on the reference machine
(a 2-core Intel Xeon VM at 2.1 GHz).  Results therefore read as seconds on
that machine.  The mean, not the median: the core switches between fast and
slow spells and a call's time adds up both, as the mean does; normalizing
by the median spread ``dense`` by 0.11 over six seeds, by the mean 0.05.

Each sample also asks a reference process (this file run as a script: a
process that never runs the program) for one timed kernel run, at the same
moment, while the program waits.  ``run.py`` checks the premise on every
run: the kernel time inside the workload process must match that in the
reference process (the median ratio of the paired samples) within the
wall-time bound.  If the program ever slows the kernel itself (by its heap,
its garbage or its caches), the run fails instead of reporting a normalized
time that may read as a gain.
"""

from __future__ import annotations

import math
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

INTERVAL_S = 0.1
REFERENCE_S = 0.002
_MATRIX = np.arange(9.0).reshape(3, 3)


def _kernel() -> float:
    v = np.ones(3)
    acc = 0.0
    for i in range(80):
        acc += math.sin(i) * i
        v = _MATRIX @ v / 7.0
        acc += float(np.cross(v, _MATRIX[0])[0])
    return acc


def kernel_seconds() -> float:
    """Warm the kernel, then run it once more; returns the second run's duration."""
    _kernel()
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class Calibrator:
    """Interleaves kernel samples with measured calls (main thread only)."""

    def __init__(self):
        self.samples: list[float] = []  # timed kernel runs
        self.reference: list[float] = []  # the same, in the reference process
        self.spent: list[float] = []  # whole duration of each sample
        self._previous = None
        self._helper = None

    def _sample(self, *_):
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        t0 = time.perf_counter()
        self.samples.append(kernel_seconds())
        self._helper.stdin.write(b"\n")
        self._helper.stdin.flush()
        self.reference.append(float(self._helper.stdout.readline()))
        self.spent.append(time.perf_counter() - t0)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def __enter__(self):
        self._helper = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        self._helper.stdout.readline()  # ready
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._helper.stdin.close()
        self._helper.wait()

    def measure(self, fn):
        """Run ``fn()``; returns (result, raw seconds, normalized seconds).

        Raw seconds exclude the kernel samples taken during the call."""
        self._sample()
        first = len(self.samples)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            # no sample may land between reading the clock and summing the samples
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
            elapsed = time.perf_counter() - t0
            inside = sum(self.spent[first:])
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
            self._sample()
        raw = elapsed - inside
        return result, raw, raw * REFERENCE_S / statistics.fmean(self.samples[first - 1 :])


if __name__ == "__main__":
    # the reference process: one timed kernel run per line read
    print("ready", flush=True)
    for _ in sys.stdin:
        print(kernel_seconds(), flush=True)
