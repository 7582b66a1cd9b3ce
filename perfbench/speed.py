"""How fast the machine runs right now, from a fixed pure-Python loop.

The measuring machine shares its cores with other machines' loads, and that
load comes in phases of tens of seconds in which all code, interpreter and
numpy alike, runs up to 1.5 times slower.  A phase like that moves a whole
run.  So every timed piece of work is measured together with this loop, and
its wall time is scaled to the speed the loop has on a quiet machine:

    scaled = wall * CAL_REF_S / (mean time of the loop around and during it)

The loop does not touch frwave, so a change to the program does not move it.
"""

import signal
import statistics
import time

#: iterations of one calibration loop (about 1.4 ms on a quiet machine)
CAL_ITERATIONS = 20000
#: loops per calibration before and after a piece of work; their mean is the
#: calibration.  The mean, not the median, because the work's time takes in
#: the brief stalls too, and 15 loops (about 20 ms) average enough of them
CAL_REPEATS = 15
#: while work runs, one loop every this many seconds (about 3 % of the time,
#: which is taken out of the work's wall time)
SAMPLE_INTERVAL_S = 0.05
#: mean loop time on the reference machine (2-core Xeon VM, Python 3.11).
#: A fixed constant: it only sets the scale of the scaled times, which are
#: comparable between commits on any machine
CAL_REF_S = 1.4e-3


def _loop():
    s = 0
    for i in range(CAL_ITERATIONS):
        s += i * i
    return s


def calibration_s():
    """Mean wall time of CAL_REPEATS runs of the calibration loop."""
    times = []
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return statistics.fmean(times)


class Sampler:
    """Context manager that times one calibration loop every
    SAMPLE_INTERVAL_S seconds, from a SIGALRM handler in the main thread,
    while the work in its body runs.  `samples` holds the loop times and
    `spent` their sum, which the caller takes out of the body's wall time."""

    def __enter__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _loop()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt


def scale(calibrations):
    """Factor that takes a wall time to the reference machine's quiet speed,
    from the calibrations taken around and during it."""
    return CAL_REF_S / statistics.fmean(calibrations)
