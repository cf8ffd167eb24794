"""Job times at reference CPU speed, for a core whose speed drifts.

On a shared machine the speed of one core swings between states about
1.7x apart, switching every 0.5 to 5 seconds, and the two cores of a
small VM swing independently.  A run of a few tens of seconds cannot
average that out, so each timed interval is also converted to reference
speed.  A fixed probe is timed right before the interval, right after
it, and every INTERVAL_S inside it (from a SIGALRM handler in the same
thread, so it sees the same core).  Each stretch between two samples
counts as stretch * nominal / (median of the latest SMOOTH probe times).
The handler's own time is excluded from both the raw and the scaled time.

The probes are independent of discinterp, so a faster program reads
faster and the reference speed is a property of the machine only.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.1
# the median of this many latest probes scales a stretch; it damps the
# probe's own jitter, and the speed states last longer than that window
SMOOTH = 3


class PythonProbe:
    """Interpreted loop; used where numpy is not imported yet (set-up)."""

    # probe time that defines reference speed; the probe takes 0.8-0.9 ms
    # in the fast state of a 2-vCPU x86_64 VM with Python 3.11
    nominal = 1.0e-3

    def __call__(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(10000):
            acc += i * i
        return time.perf_counter() - start


class NumpyProbe:
    """The program's kinds of work: small LAPACK calls, FFTs, interpreted loops.

    The numpy entry points are captured at construction, before any
    tracing wraps them.
    """

    # probe time that defines reference speed; the probe takes 0.8-1.3 ms
    # on a 2-vCPU x86_64 VM with Python 3.11, numpy 2.4, one OpenBLAS thread
    nominal = 1.0e-3

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        self._a = a + a.T
        self._m = rng.standard_normal((8, 8))
        self._x = rng.standard_normal(4096)
        self._eigvalsh = np.linalg.eigvalsh
        self._svd = np.linalg.svd
        self._fft = np.fft.fft

    def __call__(self) -> float:
        eigvalsh, svd, fft = self._eigvalsh, self._svd, self._fft
        start = time.perf_counter()
        for _ in range(50):
            eigvalsh(self._a)
        for _ in range(5):
            svd(self._m)
        for _ in range(4):
            fft(self._x)
        acc = 0
        for i in range(3000):
            acc += i * i
        return time.perf_counter() - start


class Speedometer:
    """Times one interval at a time: ``start()`` ... ``stop()``.

    With ``interval=0`` the probe runs only before and after the interval,
    so nothing runs inside it (traced rounds, whose spans must hold only
    the program's own time).
    """

    def __init__(self, probe, interval: float = INTERVAL_S):
        self._probe = probe
        self._interval = interval
        self._active = False
        self._previous = signal.getsignal(signal.SIGALRM)
        self._recent: list[float] = []

    def _sample(self) -> None:
        begin = time.perf_counter()
        self._recent = self._recent[1 - SMOOTH:] + [self._probe()]
        end = time.perf_counter()
        self._scaled += (begin - self._mark) * self._probe.nominal / statistics.median(self._recent)
        self._raw += begin - self._mark
        self._mark = end

    def _tick(self, signum, frame) -> None:
        if self._active:
            self._sample()

    def start(self) -> None:
        self._raw = self._scaled = 0.0
        self._recent = self._recent[1 - SMOOTH:] + [self._probe()]
        signal.signal(signal.SIGALRM, self._tick)
        self._active = True
        self._mark = time.perf_counter()
        if self._interval:
            signal.setitimer(signal.ITIMER_REAL, self._interval, self._interval)

    def stop(self) -> tuple[float, float]:
        """End the interval; return (raw seconds, seconds at reference speed)."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._active = False
        self._sample()
        signal.signal(signal.SIGALRM, self._previous)
        return self._raw, self._scaled
