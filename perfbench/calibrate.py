"""Correct measured times for the speed of a shared host.

On a host shared with other tenants the speed of pure-Python code drifts
by up to about 70 % in phases that last from seconds to minutes, so the
median of a 25 s run depends on when the run happened.  The timed runs
therefore run a fixed reference kernel, owned by the benchmark and
independent of the library, between operations (about 5 % of a run), and
scale every measured time by ``(REFERENCE_S / kernel time) ** SENSITIVITY``
around it: an estimate of the time the operation would have taken while
the kernel runs in REFERENCE_S.  The raw wall-clock times are reported
next to the scaled ones.

The kernel mimics the interpreter work of the library's dynamic programs
(list comprehensions over bit masks, dict and set lookups, tuple
unpacking, small function calls) and allocates nothing that outlives a
sample, so the garbage collector and the library's heap do not reach it.
It reacts to the host somewhat more than the library does: one instance
of each workload run for 80 s, with ops and kernel samples grouped in 3 s
bins, gave log(op time) against log(kernel time) slopes of 0.69 (chain),
0.73 (wide), 0.89 (extended) and 0.93 (pipeline), and whole pipeline runs
in the host's fast phase read about 8 % above those in its slow phase
when scaled with a slope of 1; hence SENSITIVITY.  The kernel is sampled
often, since short ops need a sample close in time.
"""
from __future__ import annotations

import statistics
import time

# kernel time, in seconds, that scaled times refer to (a sample takes
# about 4-9 ms on the 2-CPU host the baseline was recorded on)
REFERENCE_S = 0.006
SENSITIVITY = 0.8       # d log(op time) / d log(kernel time), see above
EVERY_S = 0.1           # least time between samples in a loop of ops
WINDOW = 2              # samples on each side of an interval that set its speed

_COST = {m: (m * 2654435761) & 0xFFFF for m in range(256)}
_ODD = frozenset(range(1, 256, 2))
_EDGES = tuple((i, (i * 7) & 255, i & 7) for i in range(64))


def _add(a, b, _sh=16, _mask=0xFFFF):
    return (((a >> _sh) + (b >> _sh)) << _sh) | (((a & _mask) + (b & _mask)) & _mask)


def _kernel():
    cost, odd, edges, add = _COST, _ODD, _EDGES, _add
    acc = 0
    for r in range(2):
        table = [cost[m] for m in range(256)]
        shifted = [table[((m >> (r + 1)) << r) | (m & ((1 << r) - 1))] for m in range(256)]
        for m in range(256):
            best = shifted[m]
            for (x, y, w) in edges:
                if (m ^ x) in odd and y & m:
                    best = add(best, w)
            acc ^= best
    return acc


def sample():
    """Time, in seconds, of one kernel run."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class Speed:
    """Kernel samples interleaved with timed intervals.

    ``start()`` before an interval returns its token; ``tick()`` after it
    takes a sample when EVERY_S has passed since the last one (always, with
    ``force``).  ``scale(seconds, token)`` converts the interval's time to
    reference seconds, using the median of the WINDOW samples on each side
    of it (the interval lies between samples ``token`` and ``token + 1``).
    Call ``tick(force=True)`` once after the last interval.
    """

    def __init__(self):
        self.samples = [sample()]
        self.last = time.perf_counter()

    def start(self):
        return len(self.samples) - 1

    def tick(self, force=False):
        if force or time.perf_counter() - self.last >= EVERY_S:
            self.samples.append(sample())
            self.last = time.perf_counter()

    def factor(self, token):
        window = self.samples[max(0, token + 1 - WINDOW):token + 1 + WINDOW]
        return (REFERENCE_S / statistics.median(window)) ** SENSITIVITY

    def scale(self, seconds, token):
        return seconds * self.factor(token)
