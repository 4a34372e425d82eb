"""Embedded Dormand-Prince 5(4) integration of the log-coordinate flow
w' = M theta - r, theta = exp(L w), L = log(epsilon), with quartic dense output.

The state is u = L w = log theta. Each stage is kept as its theta and
Q = du/ds = L (M theta - r), with u in the row above the Q's, so a stage is
three calls: one dot of [1, h a] with those rows for its exponent
u + h (a . Q), one exp and one product (the last stage adds the step's
increment to u instead). The right-hand side is bounded along
trajectories, so plain explicit adaptive stepping suffices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OutOfRange, StepUnderflow

# Dormand & Prince (1980) tableau, strictly lower-triangular; its last row is
# the propagating order-5 weights B (FSAL).
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
# E is B's difference against the embedded order-4 weights, and D gives the
# order-4 continuous extension (Hairer, Norsett & Wanner).
_E, _D = np.array([
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40],
    [-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
     -10690763975 / 1880347072, 701980252875 / 199316789632,
     -1453857185 / 822651844, 69997945 / 29380423],
])

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
    """Piecewise-quartic interpolant of u over the accepted steps from s = 0,
    and the counters of the run that made them.

    A step's row holds u at its start, its increment, and h Q of its first
    and last stage and their D-combination; a query forms the quartic of the
    steps it reads. The one query-range rule of a trajectory: [0, s_max],
    and past it a relative 1e-12 plus an absolute 1e-15, up to
    s_max (1 + 1e-12) + 1e-15, which reads the value at s_max.
    """

    def __init__(self, knots: np.ndarray, rows: np.ndarray, stats: IntegratorStats):
        self._knots = knots          # (nseg + 1,): 0, the step ends, s_max
        self._rows = rows            # (nseg, 5, n)
        self.s_max = float(knots[-1])
        self.stats = stats

    @property
    def step_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """s and u at 0 and at every step end, bit for bit what a query there
        reads: each step's starting u, then the last one's plus its increment."""
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
        # A step end reads exactly the u the loop accepted there.
        tau = np.clip((s_arr - left) / (self._knots[seg + 1] - left), 0.0, 1.0)[:, None]
        # Coefficients in place in this copy: h Q0 - du, then h Q6 - du + that.
        c = self._rows[seg]          # (m, 5, n)
        c[:, 2] -= c[:, 1]
        c[:, 3] -= c[:, 1]
        c[:, 3] += c[:, 2]
        omt = 1.0 - tau
        out = c[:, 0] + tau * (c[:, 1] + omt * (c[:, 2] + tau * (omt * c[:, 4] - c[:, 3])))
        return out[0] if np.ndim(s) == 0 else out


def integrate(
    f: Callable[[np.ndarray, np.ndarray], object],
    log_eps: float,
    w0,
    s_end: float,
    tol: float,
    max_step: float,
    step_callback: Callable[[np.ndarray], bool] | None = None,
) -> DenseOutput:
    """Integrate u = log_eps * w from w(0) = w0 at s = 0 to s_end and return
    its dense output, which carries the run's ``stats``.

    ``f(x, out)`` writes Q = du/ds = log_eps * (M theta - r) into ``out`` for
    x = [theta, 1], as ``flow_product`` builds it. The RMS-normed error weight
    is ``tol |log_eps|`` in u: an absolute ``tol`` in w, a relative
    ``|log_eps| tol`` in theta. No step exceeds ``max_step``, and the first
    attempt is ``max_step`` clipped to the span. If given,
    ``step_callback(theta_new)`` is called after each accepted step and may
    return true to end the run there, at the dense output's ``s_max``;
    ``theta_new`` is a copy of the step's last stage, bit for bit exp(u) at
    that end of ``step_ends``. A span too short for one step is ``OutOfRange``.
    """
    # The loop's end test, applied at s = 0.
    s_stop = s_end - 1e-14 * max(1.0, s_end)
    if not s_stop > 0.0:
        raise OutOfRange(f"span [0, {s_end:g}] is too short for one integration step")
    u0 = log_eps * np.asarray(w0, dtype=float)
    n = u0.size

    # Row i of x is stage i's [theta, 1]. R = [u, Q_0 ... Q_6], so stage i's
    # exponent is [1, h A[i, :i]] . R[:i + 1].
    x, R = np.ones((7, n + 1)), np.empty((8, n))
    u, Q = R[0], R[1:]
    u[...] = u0
    np.exp(u, out=x[0, :n])
    f(x[0], Q[0])
    h = max_step

    # Accepted steps write their dense rows in place, doubling full buffers.
    # Starting at the rows a run at the step cap fills avoids most doublings.
    cap = max(64, int(min(s_end / max_step, 2**16)))
    knots, rows = np.zeros(cap + 1), np.empty((cap, 5, n))
    # At these sizes a step costs numpy calls, not flops: each attempt scales
    # the tableau (behind hA's column of ones) and the error and dense
    # weights with one call each, and every view a step reads is bound here.
    hA, W = np.ones((7, 8)), np.array([_E / (tol * abs(log_eps)), _D])
    hA_h, hW = hA[:, 1:], np.empty_like(W)
    stages = [(hA[i, :i + 1], R[:i + 1], x[i, :n], x[i], Q[i]) for i in range(1, 6)]
    hb, he, hd, Q_b = hA[6, 1:7], hW[0], hW[1], Q[:6]
    u_new, theta_new, x_new, Q_new, Q_ends = np.empty(n), x[6, :n], x[6], Q[6], Q[::6]
    steps, rejected, max_h, s, row = 0, 0, 0.0, 0.0, rows[0]
    while s < s_stop:
        h = min(h, s_end - s, max_step)
        if not h >= 1e-14 * max(1.0, s):
            raise StepUnderflow(f"step {h:.3e} underflowed at s={s:.6g}")

        np.multiply(_A, h, out=hA_h)
        np.multiply(W, h, out=hW)
        for a, R_prev, theta, xi, Qi in stages:
            np.exp(a.dot(R_prev), out=theta)
            f(xi, Qi)
        # The last stage is at u + increment, as the step's dense row reads.
        hb.dot(Q_b, out=row[1])
        np.add(u, row[1], out=u_new)
        np.exp(u_new, out=theta_new)
        f(x_new, Q_new)

        q = he.dot(Q)
        err_norm = math.sqrt(q.dot(q) / n)

        # inf and NaN fail too, and max() makes their factor _MIN_FACTOR.
        if not err_norm <= 1.0:
            rejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * err_norm ** _ORDER_EXP)
            continue

        row[0] = u
        np.multiply(Q_ends, h, out=row[2:4])
        hd.dot(Q, out=row[4])
        s += h
        steps += 1
        knots[steps] = s
        max_h = max(max_h, h)
        u[...] = u_new
        Q[0] = Q_new  # FSAL
        if steps == len(rows):
            knots, rows = np.resize(knots, 2 * steps + 1), np.resize(rows, (2 * steps, 5, n))
        row = rows[steps]
        if step_callback is not None and step_callback(theta_new.copy()):
            break

        h *= (_MAX_FACTOR if err_norm == 0.0
              else min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err_norm ** _ORDER_EXP)))

    # Six evaluations per attempted step, one before the first one.
    stats = IntegratorStats(steps, rejected, max_h, 1 + 6 * (steps + rejected))
    return DenseOutput(knots[: steps + 1], rows[:steps], stats)


def flow_product(M: np.ndarray, r: np.ndarray, log_eps: float):
    """The ``f`` of ``integrate`` for the flow of (M, r) at log(epsilon)."""
    return (log_eps * np.column_stack([M, -np.asarray(r)])).dot
