"""Embedded Dormand-Prince 5(4) integration with quartic dense output.

Plain explicit adaptive stepping: the systems integrated here have bounded
right-hand sides by construction, so no stiff machinery is needed. The
dense output is the classical order-4 continuous extension built from the
seven stages, evaluated in Horner form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OutOfRange, StepUnderflow

# Dormand & Prince (1980) tableau; the first weight row propagates (order 5),
# E is the difference against the embedded order-4 row.
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
# Weights of the order-4 continuous extension (Hairer, Norsett & Wanner).
_D = np.array(
    [
        -12715105075 / 11282082432,
        0.0,
        87487479700 / 32700410799,
        -10690763975 / 1880347072,
        701980252875 / 199316789632,
        -1453857185 / 822651844,
        69997945 / 29380423,
    ]
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER_EXP = -1.0 / 5.0


@dataclass
class IntegratorStats:
    """Counters exposed on every integration result."""

    steps: int = 0
    rejected: int = 0
    max_step: float = 0.0
    rhs_evaluations: int = 0


class DenseOutput:
    """Piecewise-quartic interpolant over the accepted steps from s = 0, and
    the counters of the run that made them.

    The one query-range rule of a trajectory: [0, s_max], and a relative
    1e-12 past s_max, which reads the value at s_max.
    """

    def __init__(self, lefts: np.ndarray, widths: np.ndarray, cont: np.ndarray,
                 stats: IntegratorStats):
        self._lefts = lefts          # (nseg,)
        self._widths = widths        # (nseg,)
        self._cont = cont            # (nseg, 5, n)
        self.s_max = float(lefts[-1] + widths[-1])
        self.stats = stats

    def __call__(self, s):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        if not (np.all(s_arr >= 0.0)
                and np.all(s_arr <= self.s_max * (1 + 1e-12) + 1e-15)):
            raise OutOfRange(f"s must lie in [0, {self.s_max}]")
        # The first left end is 0, so every query lies right of one.
        seg = np.searchsorted(self._lefts, s_arr, side="right") - 1
        tau = (s_arr - self._lefts[seg]) / self._widths[seg]
        tau = np.clip(tau, 0.0, 1.0)
        c = self._cont[seg]          # (m, 5, n)
        tau = tau[:, None]
        omt = 1.0 - tau
        out = c[:, 0] + tau * (c[:, 1] + omt * (c[:, 2] + tau * (c[:, 3] + omt * c[:, 4])))
        return out[0] if np.ndim(s) == 0 else out


def _doubled(a: np.ndarray) -> np.ndarray:
    """``a`` followed by as many unwritten rows."""
    out = np.empty((2 * len(a),) + a.shape[1:])
    out[: len(a)] = a
    return out


def _initial_step(f, y0, f0, s_end, scale):
    """Hairer-style starting step guess, clipped to the span."""
    d0 = np.sqrt(np.mean((y0 / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, s_end)
    f1 = f(y0 + h0 * f0)
    d2 = np.sqrt(np.mean(((f1 - f0) / scale) ** 2)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, s_end)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    y0,
    s_end: float,
    tol: float,
    max_step: float,
    step_callback: Callable[[float, np.ndarray, float, np.ndarray], bool],
) -> DenseOutput:
    """Integrate the autonomous y' = f(y) from s = 0 to s_end and return the
    dense output, which carries the run's ``stats``.

    Error control is mixed (tol + tol * |y|) and RMS-normed over every
    component; no step exceeds ``max_step``. After each accepted step
    ``step_callback(s_old, y_old, s_new, y_new)`` may raise to abort with a
    domain-specific diagnosis, or return true to end the integration there:
    the dense output's ``s_max`` is then that step's endpoint. A span too
    short for one step is ``OutOfRange``.
    """
    # The loop's end test, applied at s = 0.
    s_stop = s_end - 1e-14 * max(1.0, s_end)
    if not s_stop > 0.0:
        raise OutOfRange(f"span [0, {s_end:g}] is too short for one integration step")
    y = np.array(y0, dtype=float)
    n = y.size

    k = np.empty((7, n))
    k[0] = f(y)
    h = min(_initial_step(f, y, k[0], s_end, tol + tol * np.abs(y)), max_step)

    # Accepted steps write their dense rows in place, doubling full buffers.
    # Starting at the rows a run at the step cap fills avoids most doublings.
    cap = max(64, int(min(s_end / max_step, 2**16)))
    lefts, widths, cont = np.empty(cap), np.empty(cap), np.empty((cap, 5, n))
    steps, rejected, max_h = 0, 0, 0.0
    s = 0.0
    while s < s_stop:
        h = min(h, s_end - s, max_step)
        if not h >= 1e-14 * max(1.0, s):
            raise StepUnderflow(f"step {h:.3e} underflowed at s={s:.6g}")

        for i in range(1, 7):
            k[i] = f(y + h * _A[i].dot(k[:i]))
        y_new = y + h * _B.dot(k)

        err_vec = h * _E.dot(k)
        scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
        q = err_vec / scale
        # The RMS norm; np.mean sums and divides the same way.
        err_norm = math.sqrt(np.add.reduce(q * q) / n)

        # inf and NaN fail too, and max() makes their factor _MIN_FACTOR.
        if not err_norm <= 1.0:
            rejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * err_norm ** _ORDER_EXP)
            continue

        if steps == len(lefts):
            lefts, widths, cont = map(_doubled, (lefts, widths, cont))
        ydiff = y_new - y
        bspl = h * k[0] - ydiff
        cont[steps] = (y, ydiff, bspl, ydiff - h * k[6] - bspl, h * _D.dot(k))
        lefts[steps] = s
        widths[steps] = h
        steps += 1
        max_h = max(max_h, h)
        done = step_callback(s, y, s + h, y_new)
        s += h
        y = y_new
        k[0] = k[6]  # FSAL
        if done:
            break

        if err_norm == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err_norm ** _ORDER_EXP))
        h *= factor

    # Six evaluations per attempted step, two before the first one.
    stats = IntegratorStats(steps, rejected, max_h, 2 + 6 * (steps + rejected))
    return DenseOutput(lefts[:steps], widths[:steps], cont[:steps], stats)
