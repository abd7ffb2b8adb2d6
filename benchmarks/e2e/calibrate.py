"""Machine-speed samples for the end-to-end benchmark.

The benchmark shares its machine with other work, and the speed of one
core drifts by 10-30% within seconds.  While a timed call runs,
:class:`SpeedSampler` interrupts it every :data:`PERIOD_S` seconds with
``SIGALRM`` and times one unit of a fixed kernel, taking turns among
three that use no code of ``repro``: error-free transformations on
small NumPy arrays (the tracker's launch shapes), the same on medium
arrays (the dense solver's), and plain Python object arithmetic (the
interpreter glue between them).  The handler touches nothing of the
program, so results stay bitwise identical, and its own time is taken
out of every duration the benchmark reads.

:meth:`SpeedSampler.slowdown` is the geometric mean of the kernels'
median unit times relative to :data:`REFERENCE_S`, so a call's
*reference seconds* (its own seconds divided by the slowdown while it
ran) are what it would take on the reference machine at rest.  The
kernels never change with the library, so a faster library still shows
as fewer reference seconds.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

__all__ = ["PERIOD_S", "REFERENCE_S", "SpeedSampler"]

#: Geometric mean of the three kernels' median unit times, in seconds,
#: measured at rest on a 2-vCPU Intel Xeon virtual machine.
REFERENCE_S = 2.3e-4

#: Seconds between two samples.
PERIOD_S = 0.03

#: Samples every kernel gets at least; calls too short to collect them
#: are topped up right after the call.
MIN_SAMPLES = 5

_rng = np.random.default_rng(0)
_SMALL = (_rng.standard_normal((4, 64)), _rng.standard_normal((4, 64)))
_MEDIUM = (_rng.standard_normal((2, 100, 100)), _rng.standard_normal((2, 100, 100)))


def _eft(x, y, rounds):
    for _ in range(rounds):
        s = x + y
        v = s - x
        e = (x - (s - v)) + (y - v)
        x, y = s, e + x * y * 1e-3
    return x


def _small():
    return _eft(*_SMALL, 15)


def _medium():
    return _eft(*_MEDIUM, 2)


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def step(self, other):
        return _Pair(self.a + other.b * 0.5, self.b - other.a * 0.25)


def _python():
    p, q, seen = _Pair(1.0, 2.0), _Pair(0.5, 0.25), {}
    for i in range(600):
        p = p.step(q)
        seen[i & 63] = p.a
    return p


KERNELS = (_small, _medium, _python)


class SpeedSampler:
    """Samples the machine's speed inside each ``with`` block.

    One sampler serves a whole measurement: :meth:`clock` is
    ``time.perf_counter`` with every sample's time taken out, so
    durations read from it exclude the sampling; :meth:`slowdown`
    covers the samples of the latest ``with`` block.
    """

    def __init__(self):
        #: seconds all samples took so far
        self.spent = 0.0
        self.samples = [[] for _ in KERNELS]
        self._turn = 0
        self._previous = None

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _sample(self, *_):
        start = time.perf_counter()
        kernel = self._turn % len(KERNELS)
        self._turn += 1
        KERNELS[kernel]()
        elapsed = time.perf_counter() - start
        self.samples[kernel].append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "SpeedSampler":
        self.samples = [[] for _ in KERNELS]
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        """The machine's slowness during the latest ``with`` block,
        relative to the reference: 1.0 at rest on the reference machine,
        1.2 when everything ran 20% longer.  Blocks too short for
        :data:`MIN_SAMPLES` per kernel are topped up first."""
        while min(len(times) for times in self.samples) < MIN_SAMPLES:
            self._sample()
        medians = [statistics.median(times) for times in self.samples]
        return statistics.geometric_mean(medians) / REFERENCE_S
