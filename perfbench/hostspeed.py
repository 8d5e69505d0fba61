"""Host-speed calibration.

On a shared 2-core x86_64 VM, identical work ran up to a third slower for
seconds to minutes at a time, and CPU time slowed with wall time, so the
variation came from the host, not from waiting. A fixed kernel that shares
no code with opencon is timed before and after every repetition, and on
``s1-sweep`` also between the variants. It mixes what a training iteration
does: small matmuls, row normalisation, exponentials, a Python loop of tiny
NumPy updates, and passes over an 8 MiB table, so that it also slows under
cache and memory-bandwidth contention, which the K = 100 workload feels
most. Its mean time over NOMINAL_S is the host factor of that repetition,
and timings divided by it read as they would on that host at nominal speed.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Median kernel time on that host: a 2-core x86_64 VM, Python
# 3.11.7, NumPy 2.4.6 with OpenBLAS 0.3.31 pinned to one thread.
NOMINAL_S = 0.23
ROUNDS = 300
TABLE_EVERY = 30


class Kernel:
    """The calibration kernel with its inputs made once."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((128, 64))
        self.w = rng.standard_normal((64, 128))
        self.protos = rng.standard_normal((10, 128))
        self.table = rng.standard_normal((8192, 128))
        self.proj = rng.standard_normal((128, 64))

    def seconds(self) -> float:
        protos = self.protos.copy()
        start = perf_counter()
        for i in range(ROUNDS):
            z = self.x @ self.w
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            s = z @ z.T
            np.exp(s - s.max(axis=1, keepdims=True)).sum(axis=1)
            for j in range(40):
                v = 0.9 * protos[j % 10] + 0.1 * z[j]
                protos[j % 10] = v / np.linalg.norm(v)
            if i % TABLE_EVERY == 0:
                (self.table @ self.proj).sum()
        return perf_counter() - start


def factor(samples: list[float]) -> float:
    """Host factor of work bracketed (and possibly interleaved) by these
    kernel timings."""
    return sum(samples) / len(samples) / NOMINAL_S
