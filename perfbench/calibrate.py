"""Host-speed calibration for the end-to-end timings.

The benchmark runs on a few vCPUs of a shared host, whose speed drifts by
20-40% over seconds as other tenants load it: a fixed pure-Python loop
reads an IQR of 15-20% between 5-s windows, wall and CPU time alike, with
no steal time to account for it. Drift that large swamps any change to
the program, so every end-to-end time is rescaled to a fixed reference
speed:

    scaled = wall * REFERENCE_BLOCK_S * mean(1 / time of block())

over the blocks timed during and around that wall: the mean speed over
the interval, as the harmonic mean of the block times.

`block()` is fixed pure-Python work (modular multiplication, list, dict,
string and small-object work, the mix pkarith's layers do) that no change
to the package can touch. A `SpeedSampler` times it every `PERIOD_S` of
wall time from a SIGALRM handler, so long commands are sampled while they
run, and the time spent in the handler is taken out of the measured wall.
Scaled time is what the wall time would have been at the reference
speed. A change to the program moves it in proportion; a slow host does
not.
"""

import signal
import statistics
import time

# A typical time of one block() between pkarith commands on the shared
# 2-vCPU VM (Python 3.11) the benchmark was tuned on, where the median of
# a run ranged over 2.0-3.2 ms; scaled times are in seconds at that speed.
REFERENCE_BLOCK_S = 0.0025
PERIOD_S = 0.1
# a wall is scaled by the samples taken within this margin of it
WINDOW_S = 0.25

_MODULUS = 2_147_483_647


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def block() -> int:
    """Fixed work: the same instructions on every call."""
    x, acc, table, points = 7, [], {}, []
    for i in range(5_000):
        x = x * 48_271 % _MODULUS
        acc.append(x & 1_023)
        table[i & 255] = x
        if i % 8 == 0:
            points.append(_Point(x, i))
    text = ",".join(str(v) for v in acc[:1_000])
    return len(text) + len(table) + sum(p.x & 1 for p in points)


def time_block() -> float:
    start = time.perf_counter()
    block()
    return time.perf_counter() - start


def scale(samples) -> float:
    """Factor taking a wall measured while `samples` were read to the
    reference speed."""
    if not samples:
        raise ValueError("no calibration samples")
    return REFERENCE_BLOCK_S / statistics.harmonic_mean(samples)


class SpeedSampler:
    """Times block() every PERIOD_S of wall time while running.

    `spent` is the total time spent in the handler, to be taken out of any
    wall that spans it. Only one sampler may run at a time in a process:
    it owns SIGALRM and ITIMER_REAL. Children made by fork inherit no
    interval timer, so a process pool is not sampled.
    """

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        block()
        elapsed = time.perf_counter() - start
        self.times.append(start)
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def around(self, start: float, end: float) -> list[float]:
        """Samples read within WINDOW_S of the interval [start, end], or
        the nearest one if none was."""
        near = [s for t, s in zip(self.times, self.samples)
                if start - WINDOW_S <= t <= end + WINDOW_S]
        if near:
            return near
        middle = (start + end) / 2
        return [min(zip(self.times, self.samples), key=lambda ts: abs(ts[0] - middle))[1]]

    def scaled(self, start: float, end: float, wall: float) -> float:
        """`wall`, measured over [start, end], at the reference speed."""
        return wall * scale(self.around(start, end))
