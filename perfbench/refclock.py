"""Reference clock: turns measured seconds into reference seconds.

The machine this benchmark was written on changes speed by up to 1.8x
between minutes (a busy neighbour on the shared host), and process CPU
time drifts with wall time, so raw timings of identical work disagree
between runs by far more than any useful bound. The benchmark therefore
times a fixed pure-Python slice of work next to every chunk of measured
work and reports

    reference time = measured time * REF_SLICE_S / (local slice time)

where the local slice time is the mean of the slices timed just before
and just after the chunk. REF_SLICE_S is the slice time on the reference
machine (see README), so on that machine at its usual speed reference
seconds equal wall seconds. Work in child interpreters is timed the same
way against a bare child interpreter (REF_CHILD_S).

The slice mixes the operations the library spends its time in: sha256
stream derivation and Random seeding, big-integer draws and modular
powers, Fraction arithmetic and bisection over a sorted Fraction list,
small frozen dataclasses, dicts, sorting and float exponentials. It
imports nothing from the library, so a change to the library never moves
the reference. Changing this file changes the unit of every time the
benchmark reports.
"""
from __future__ import annotations

import bisect
import hashlib
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

# Wall time of one slice between measured chunks on the reference machine
# (Intel Xeon, 2 vCPUs, Python 3.11.7). Timed alone in a fresh process the
# slice runs faster, about 2.6 ms there: the chunk before it leaves the
# caches and the allocator in another state.
REF_SLICE_S = 0.0040

# Wall time of a bare `python -c pass` child on the reference machine.
# Work done in child interpreters (process start, imports, page faults)
# follows the machine's speed changes better than a slice in the parent
# does, so child processes are timed against such a child instead.
REF_CHILD_S = 0.050

_SLICE_ITERATIONS = 60
_GRID = [Fraction(k, 7) for k in range(1, 2000)]


@dataclass(frozen=True)
class _Node:
    a: int
    b: Fraction


def _slice() -> int:
    out = 0
    draw = random.Random(777)
    for i in range(_SLICE_ITERATIONS):
        digest = hashlib.sha256(repr((i, "slice")).encode()).digest()
        stream = random.Random(int.from_bytes(digest[:8], "big"))
        m = stream.randrange(3 ** 10)
        x = Fraction(draw.randrange(1, 1 << 30), draw.randrange(1, 1 << 20))
        j = bisect.bisect_right(_GRID, x)
        nodes = {k: _Node(pow(m + k, 65537, 1000003), x / (k + 1))
                 for k in range(8)}
        first = sorted(nodes.items(), key=lambda kv: kv[1].a)[0][1]
        out += j + first.a + int(math.exp(-(float(x) % 5)) * 100)
    return out


def slice_seconds() -> float:
    """Wall time of one reference slice on this machine, now."""
    t0 = time.perf_counter()
    _slice()
    return time.perf_counter() - t0


class RefClock:
    """Alternates reference samples with measured chunks.

    Call tick() before the first chunk and after every chunk; the value
    it returns converts the chunk just finished to reference seconds.
    By default a sample is one slice in this process; `sample` and
    `nominal` substitute another reference and its time on the reference
    machine.
    """

    def __init__(self, sample=slice_seconds, nominal: float = REF_SLICE_S):
        self.sample = sample
        self.nominal = nominal
        self.samples: list[float] = []

    def tick(self) -> float:
        """Time one sample; return the factor for the chunk before it."""
        self.samples.append(self.sample())
        if len(self.samples) < 2:
            return 1.0
        return self.nominal / ((self.samples[-2] + self.samples[-1]) / 2)
