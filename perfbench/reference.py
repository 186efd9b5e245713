"""Fixed reference kernels that measure the host's speed at a moment.

The benchmark's host is shared: the same call on the same input takes
anywhere from 1x to 2x its fastest time, in spells that last from seconds to
minutes, and the slowdown hits every process on it alike.  So the run times
a reference kernel next to every timed item and divides the host's speed
out:

    normalized time = raw time * REF_SECONDS / (kernel time next to the item)

That is the time the item would take on a host where the kernel takes
REF_SECONDS.  The kernel is a mix of parts, each like some of the work the
library spends its time on, because a slow spell does not slow every kind
of work by the same factor:

- "python": interpreted Python, integer arithmetic into a dict;
- "numpy": numpy row operations on a small dense tableau, as in the simplex
  and in GF(q) row reduction;
- "fraction": exact rational arithmetic with `fractions.Fraction`, as in the
  witness checks.

Building instances and the LP workloads' ops use python + numpy; the
certify workload's ops, which are exact witness checks, use python +
fraction.  The kernels are benchmark code and never change with the
library, so a change to the library moves normalized times and a change in
the host's speed mostly does not.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

_TABLEAU = np.random.default_rng(0).standard_normal((160, 320))


def _python():
    acc = 0
    table = {}
    for i in range(24000):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = acc
    return acc


def _numpy():
    a = _TABLEAU.copy()
    for k in range(48):
        col = a[:, k]
        row = int(np.argmax(np.abs(col)))
        a -= np.outer(col, a[row] / a[row, k]) * 0.5
    return float(a[0, 0])


def _fraction():
    total = Fraction(0)
    for i in range(1, 1400):
        total += Fraction(i % 7 + 1, i % 11 + 2)
    return total


PARTS = {"python": _python, "numpy": _numpy, "fraction": _fraction}
LP_MIX = ("python", "numpy")
EXACT_MIX = ("python", "fraction")

# each part's median time on the 2-vCPU host the benchmark was defined on
# (Python 3.11, numpy 2.4, one BLAS thread), so normalized times read close
# to that host's raw times
REF_SECONDS = {"python": 0.004, "numpy": 0.006, "fraction": 0.005}


class SpeedProbe:
    """Kernel timings: a sample of each part before each timed item, and one
    at the end.

    An item timed after mark() returned i lies between samples i and i+1;
    its factor uses the median of the four samples i-1 .. i+2 around it.
    """

    def __init__(self, parts):
        self.samples: dict[str, list[float]] = {part: [] for part in parts}

    def mark(self) -> int:
        for part, times in self.samples.items():
            start = perf_counter()
            PARTS[part]()
            times.append(perf_counter() - start)
        return len(times) - 1

    def mix(self, parts) -> list[float]:
        """Each sample's time for the kernel made of these parts."""
        return [sum(sample) for sample in zip(*(self.samples[p] for p in parts))]

    def scale(self, parts):
        """mark index -> REF_SECONDS / (kernel time around that mark)."""
        times = self.mix(parts)
        ref = sum(REF_SECONDS[p] for p in parts)
        return lambda index: ref / statistics.median(times[max(0, index - 1):index + 3])
