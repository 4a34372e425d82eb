"""A fixed reference computation that gauges how fast the host runs now.

On a shared VM the speed of one vCPU swings by up to 2x in stretches of
seconds to minutes, and an op's process CPU time swings with its wall
time. The benchmark times this kernel right before and right after each
op and scales the op's times by ``REFERENCE_S / kernel time``: the times
it reports are those of a host on which the kernel takes ``REFERENCE_S``.

The kernel uses numpy and scipy only, never ``dlnflow``, so no change to
the program can move it. About 70% of its time is 128x128 Cholesky
factorizations and 30% a Python loop over small numpy operations, the
two kinds of work the ops do; of the mixes tried in a five-minute run
alternating the three workloads with the kernel, this one left the least
drift in the scaled op times.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import linalg

# A round figure within the kernel's range (about 2 to 4.5 ms) on a
# 2-vCPU Intel Xeon VM; it only sets the unit of the reported times.
REFERENCE_S = 0.004
REPEATS = 3

_rng = np.random.default_rng(0)
_B = _rng.standard_normal((128, 128))
_SPD = _B @ _B.T + 128.0 * np.eye(128)
_RHS = _rng.standard_normal(128)
_A = _rng.random((8, 8))
_X = _rng.random(8)


def _kernel() -> None:
    for _ in range(12):
        linalg.cho_solve(linalg.cho_factor(_SPD), _RHS)
    x = _X
    for _ in range(150):
        y = _A @ x
        x = y / np.linalg.norm(y)


def kernel_s() -> float:
    """Best wall time of the kernel over ``REPEATS`` runs."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale_of(fn):
    """Run ``fn()``; return its result and the host-speed scale around it."""
    before = kernel_s()
    result = fn()
    return result, 2.0 * REFERENCE_S / (before + kernel_s())
