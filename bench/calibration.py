"""Machine-speed factors from fixed reference computations.

The sandboxes this benchmark runs in change speed by up to 2x, within
seconds and for minutes at a time, and each core on its own: other
tenants share the host, and CPU time tracks wall time, so it is not
scheduling.  A fixed reference computation is timed next to every
operation; its time divided by its nominal time is the slowdown factor at
that moment, and the benchmark divides each operation's wall time by the
mean of the factors measured just before and just after it.  The reported
times are therefore wall times at the reference speed.

Two references, matched to what they correct:

* ``slowdown`` times an in-process chunk that mixes object allocation,
  method calls, dict stores and small rationals.  Of the kernels tried
  (pure float math; random reads from a large list; this mix), it slowed
  down in the same proportion as the compare-rational rounds in both fast
  and slow phases: over 90 s the per-round ratio of round time to chunk
  time varied by 2.8% (coefficient of variation) against 18% for the raw
  round time, with no correlation between the ratio and the speed.
* ``process_slowdown`` times a fresh ``python -c pass``.  Cold processes
  (the CLI workload, set-up time) spend their time in process start and
  imports, which the in-process chunk does not track: over 100 s of CLI
  rounds the ratio varied by 5.6% with the chunk and by 2.0% with this
  child, against 7.1% for the raw rounds.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

# nominal times on the reference machine (Intel Xeon family 6 model 207,
# 2 vCPU, Python 3.11.7) in its fast phase; constants, so that factors
# compare across runs and commits
NOMINAL_S = 0.0015
NOMINAL_PROCESS_S = 0.04


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def at(self, x):
        return self.a * x + self.b / x


def _chunk():
    acc = 0.0
    table = {}
    for i in range(1, 500):
        p = _Point(i * 0.1, 2.0)
        acc += p.at(1.5)
        table[i & 255] = p
        acc += float(Fraction(i, 3) * Fraction(7, i + 1))
    return acc


def slowdown(chunks=1):
    """Current slowdown against the reference speed (1.0 = reference)."""
    t0 = time.perf_counter()
    for _ in range(chunks):
        _chunk()
    return (time.perf_counter() - t0) / (chunks * NOMINAL_S)


def process_slowdown():
    """Current slowdown of a cold interpreter start against the reference."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return (time.perf_counter() - t0) / NOMINAL_PROCESS_S
