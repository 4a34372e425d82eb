"""Embedded Dormand-Prince 5(4) integration of the log-coordinate flow
w' = M theta - r, theta = exp(L w), L = log(epsilon), with quartic dense output.

Each stage is kept as its theta and Q = L (M theta - r): its exponent is
L w + h (a . Q), and one product gives its Q. The right-hand side is bounded
along trajectories, so plain explicit adaptive stepping suffices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OutOfRange, StepUnderflow

# Dormand & Prince (1980) tableau, strictly lower-triangular; its last row is
# the propagating order-5 weights (FSAL).
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
# Weights, one row each: B propagates (order 5), E is its difference against
# the embedded order-4 row, D gives the order-4 continuous extension
# (Hairer, Norsett & Wanner).
_WEIGHTS = np.array([
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40],
    [-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
     -10690763975 / 1880347072, 701980252875 / 199316789632,
     -1453857185 / 822651844, 69997945 / 29380423],
])
_B, _E, _D = _WEIGHTS

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

    A step's row holds w at its start, its increment, and h k = h Q / L of its
    first and last stage and their D-combination; a query forms the quartic
    of the steps it reads. The one query-range rule of a trajectory:
    [0, s_max], and past it a relative 1e-12 plus an absolute 1e-15, up to
    s_max (1 + 1e-12) + 1e-15, which reads the value at s_max.
    """

    def __init__(self, knots: np.ndarray, rows: np.ndarray, stats: IntegratorStats):
        self._knots = knots          # (nseg + 1,): 0, the step ends, s_max
        self._rows = rows            # (nseg, 5, n)
        self.s_max = float(knots[-1])
        self.stats = stats

    @property
    def step_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """s and w at 0 and at every step end, bit for bit what a query there
        reads: each step's starting w, then the last one's plus its increment."""
        last = self._rows[-1:]
        return self._knots, np.concatenate([self._rows[:, 0], last[:, 0] + last[:, 1]])

    def __call__(self, s):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        if not (np.all(s_arr >= 0.0)
                and np.all(s_arr <= self.s_max * (1 + 1e-12) + 1e-15)):
            raise OutOfRange(f"s must lie in [0, {self.s_max}]")
        # The first knot is 0, so every query lies right of one.
        seg = np.searchsorted(self._knots[:-1], s_arr, side="right") - 1
        left = self._knots[seg]
        # A step end reads exactly the w the loop accepted there.
        tau = np.clip((s_arr - left) / (self._knots[seg + 1] - left), 0.0, 1.0)[:, None]
        # Coefficients in place in this copy: h k0 - dw, then h k6 - dw + that.
        c = self._rows[seg]          # (m, 5, n)
        c[:, 2] -= c[:, 1]
        c[:, 3] -= c[:, 1]
        c[:, 3] += c[:, 2]
        omt = 1.0 - tau
        out = c[:, 0] + tau * (c[:, 1] + omt * (c[:, 2] + tau * (omt * c[:, 4] - c[:, 3])))
        return out[0] if np.ndim(s) == 0 else out


def _doubled(a: np.ndarray) -> np.ndarray:
    """``a`` followed by as many unwritten rows."""
    out = np.empty((2 * len(a),) + a.shape[1:])
    out[: len(a)] = a
    return out


def integrate(
    f: Callable[[np.ndarray, np.ndarray], object],
    log_eps: float,
    w0,
    s_end: float,
    tol: float,
    max_step: float,
    step_callback: Callable[[np.ndarray], bool] | None = None,
) -> DenseOutput:
    """Integrate w' = M theta - r, theta = exp(log_eps * w), from w(0) = w0
    at s = 0 to s_end and return the dense output, which carries the run's
    ``stats``.

    ``f(x, out)`` writes log_eps * (M theta - r) into ``out`` for
    x = [theta, 1], as ``flow_product`` builds it. The RMS-normed error weight
    is an absolute ``tol`` in w, that is a relative ``|log_eps| tol`` in theta;
    no step exceeds ``max_step``. The first attempt is ``max_step`` clipped to
    the span, after one evaluation of ``f`` at w0: a stable cap, like
    ``simulate``'s, needs no guessed start, and the controller shrinks a first
    attempt that the error estimate rejects. If given,
    ``step_callback(theta_new)`` is called after each accepted step and may
    return true to end the integration there: the dense output's ``s_max`` is
    then that step's endpoint.
    ``theta_new`` is a copy of the step's last stage exp(log_eps * w_new), bit
    for bit exp(log_eps * w) at that end of ``step_ends``. Without it the loop
    makes no per-step call. A span too short for one step is ``OutOfRange``.
    """
    # The loop's end test, applied at s = 0.
    s_stop = s_end - 1e-14 * max(1.0, s_end)
    if not s_stop > 0.0:
        raise OutOfRange(f"span [0, {s_end:g}] is too short for one integration step")
    y = np.array(w0, dtype=float)
    n = y.size

    # Row i of x is stage i's [theta, 1], and Q[i] its product.
    x, Q = np.ones((7, n + 1)), np.empty((7, n))
    ly = log_eps * y
    np.exp(ly, out=x[0, :-1])
    f(x[0], Q[0])
    h = max_step

    # Accepted steps write their dense rows in place, doubling full buffers.
    # Starting at the rows a run at the step cap fills avoids most doublings.
    cap = max(64, int(min(s_end / max_step, 2**16)))
    knots, rows = np.zeros(cap + 1), np.empty((cap, 5, n))
    # At these sizes a step costs numpy calls, not flops: each attempt scales
    # the tableau into hA and hW with one call each, and every view a step
    # reads is bound here.
    hA, hW = np.empty_like(_A), np.empty_like(_WEIGHTS)
    stages = [(hA[i, :i], Q[:i], x[i, :n], x[i], Q[i]) for i in range(1, 6)]
    hb, he, hd, Q_b = hW[0, :6], hW[1], hW[2], Q[:6]
    theta_new, x_new, Q_new, Q_first, Q_ends = x[6, :n], x[6], Q[6], Q[0], Q[::6]
    steps, rejected, max_h = 0, 0, 0.0
    s = 0.0
    while s < s_stop:
        h = min(h, s_end - s, max_step)
        if not h >= 1e-14 * max(1.0, s):
            raise StepUnderflow(f"step {h:.3e} underflowed at s={s:.6g}")

        np.multiply(_A, h, out=hA)
        for a, Q_prev, theta, xi, Qi in stages:
            np.exp(ly + a.dot(Q_prev), out=theta)
            f(xi, Qi)
        hl = h / log_eps
        np.multiply(_WEIGHTS, hl, out=hW)
        ydiff = hb.dot(Q_b)
        y_new = y + ydiff
        ly_new = log_eps * y_new
        np.exp(ly_new, out=theta_new)
        f(x_new, Q_new)

        q = he.dot(Q) / tol
        err_norm = math.sqrt(q.dot(q) / n)

        # inf and NaN fail too, and max() makes their factor _MIN_FACTOR.
        if not err_norm <= 1.0:
            rejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * err_norm ** _ORDER_EXP)
            continue

        if steps == len(rows):
            knots, rows = _doubled(knots), _doubled(rows)
        row = rows[steps]
        row[0] = y
        row[1] = ydiff
        np.multiply(Q_ends, hl, out=row[2:4])
        hd.dot(Q, out=row[4])
        s += h
        steps += 1
        knots[steps] = s
        max_h = max(max_h, h)
        y, ly = y_new, ly_new
        Q_first[...] = Q_new  # FSAL
        if step_callback is not None and step_callback(theta_new.copy()):
            break

        if err_norm == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err_norm ** _ORDER_EXP))
        h *= factor

    # Six evaluations per attempted step, one before the first one.
    stats = IntegratorStats(steps, rejected, max_h, 1 + 6 * (steps + rejected))
    return DenseOutput(knots[: steps + 1], rows[:steps], stats)


def flow_product(M: np.ndarray, r: np.ndarray, log_eps: float):
    """The ``f`` of ``integrate`` for the flow of (M, r) at log(epsilon)."""
    return (log_eps * np.column_stack([M, -np.asarray(r)])).dot
