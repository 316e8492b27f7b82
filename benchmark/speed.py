"""Host-speed samples, so run-to-run drift of a shared host can be taken out.

A shared host's speed drifts by 10-30% over seconds to minutes, which moves
raw times from run to run by more than the benchmark's bounds.  A sample
times fixed work of the two kinds the ops do: a pure-Python loop over small
ints, dicts and tuples, and integer matrix-vector products over a 4 MiB
array.  A measured time scaled by `factor` of the samples taken while it
ran reads as seconds on a host whose mean sample is REF_S.  The worker
takes the samples while it runs the ops; see Sampler.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# A typical mean sample on the 2-core 2.1 GHz Xeon host the benchmark was
# defined on.
REF_S = 0.0125
EVERY_S = 0.25  # process CPU time between samples in the worker
LOOP = 10000  # iterations of the pure-Python loop
PRODUCTS = 8  # products with the 512 x 1024 int64 matrix


def factor(samples: list[float]) -> float:
    """REF_S over the mean sample: below 1 on a host running fast."""
    if not samples:
        raise ValueError("no host-speed sample")
    return REF_S / statistics.fmean(samples)


class Sampler:
    """Takes a sample every EVERY_S of process CPU time while installed.

    The samples run in a SIGVTALRM handler, between the bytecodes of
    whatever op is running.  `spent` is the time they took, which op
    latencies and the run's wall time leave out.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._matrix = (np.arange(512 * 1024, dtype=np.int64) % 7 - 3).reshape(512, 1024)
        self._vector = np.arange(1024, dtype=np.int64) % 5

    def sample(self) -> float:
        """Seconds the fixed work takes now."""
        t0 = time.perf_counter()
        table, x = {}, 1
        for i in range(LOOP):
            x = (x * 1103515245 + i) % (1 << 61)
            key = (i & 1023, x & 7)
            table[key] = table.get(key, 0) + x
        for _ in range(PRODUCTS):
            x += int((self._matrix @ self._vector).sum())
        return time.perf_counter() - t0

    def _tick(self, signum, frame):
        dt = self.sample()
        self.samples.append(dt)
        self.spent += dt

    def take(self) -> list[float]:
        """The samples so far; later ones start a new list."""
        samples, self.samples = self.samples, []
        return samples

    def install(self) -> None:
        signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, EVERY_S, EVERY_S)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)
