"""Embedded Dormand-Prince 5(4) integration of the log-coordinate flow
w' = M theta - r, theta = exp(L w), L = log(epsilon), with quartic dense output.

The state is u = L w = log theta. Each stage is kept as its theta and
Q = du/ds = L (M theta - r), with a copy of u in the row above the Q's, so a
stage is three calls: one dot of [1, h a] with those rows for its exponent
u + h (a . Q), one exp and one product (the last stage adds the step's
increment to u instead). A run that starts below a floor far under the
roundoff of Q takes max(u, floor) for that row until every coordinate has
climbed to the floor, which keeps subnormal theta out of the products. The
right-hand side is bounded along trajectories, so plain explicit adaptive
stepping suffices. Quiet stretches, where the coordinates that matter sit
at a stationary point and the others grow log-linearly, are stepped over
in one closed-form row each.
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
# Times h and the stages Q, the dense coefficients h Q0 - du, 2 du - h (Q0 +
# Q6) and h D.Q of a step whose increment is du = h B.Q.
_FIRST, _LAST = np.eye(7)[[0, 6]]
_DENSE = np.array([_FIRST - _A[6], 2 * _A[6] - _FIRST - _LAST, _D])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER_EXP = -1.0 / 5.0
# The quiet test runs only after a step at the cap whose RMS error estimate
# in w is below this, the roundoff of an O(1) state: the stages of a step
# in a quiet stretch differ by roundoff, and no other step pays the test.
_QUIET_ERR = 1e-15
# Stage exponents of a floored run start no lower than this, 58 above the
# band where exp(u) is subnormal (u < -708.4) and a product with it runs
# several times slower; the floor also stays below theta_min times the unit
# roundoff over n.
_FLOOR = -650.0


@dataclass
class IntegratorStats:
    """Counters exposed on every integration result."""

    steps: int = 0
    rejected: int = 0
    max_step: float = 0.0
    rhs_evaluations: int = 0
    jumps: int = 0


class DenseOutput:
    """Piecewise-quartic interpolant of u over the accepted steps from s = 0,
    and the counters of the run that made them.

    A row holds the coefficients c of its step's quartic in tau, the
    fraction of the step: u = c0 + tau (c1 + (1 - tau) (c2 + tau (c3 +
    (1 - tau) c4))). A step's are u at its start, its increment du,
    h Q0 - du, 2 du - h (Q0 + Q6) and h D.Q; a jump's are u, du and 0, the
    line between its ends. The one query-range rule of a trajectory:
    [0, s_max], and past it a relative 1e-12 plus an absolute 1e-15, up to
    s_max (1 + 1e-12) + 1e-15, which reads the value at s_max. ``on_step``
    reads one step's row alone, bit for bit as a query inside that step.
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
        out = _quartic(self._rows[seg].swapaxes(0, 1), tau)
        return out[0] if np.ndim(s) == 0 else out

    def on_step(self, j: int, s: float) -> np.ndarray:
        """u at s on step j's row, for s between knots j and j + 1."""
        left = self._knots.item(j)
        return _quartic(self._rows[j], (s - left) / (self._knots.item(j + 1) - left))


def _quartic(c, tau):
    """The Horner form of a row's quartic, c[i] its coefficient i."""
    omt = 1.0 - tau
    return c[0] + tau * (c[1] + omt * (c[2] + tau * (c[3] + omt * c[4])))


def integrate(
    f: Callable[[np.ndarray, np.ndarray], object],
    log_eps: float,
    w0,
    s_end: float,
    tol: float,
    max_step: float,
    step_callback: Callable[[np.ndarray], bool] | None = None,
    quiet: tuple[np.ndarray, float] | None = None,
) -> DenseOutput:
    """Integrate u = log_eps * w from w(0) = w0 at s = 0 to s_end and return
    its dense output, which carries the run's ``stats``.

    ``f(x, out)`` writes Q = du/ds = log_eps * (M theta - r) into ``out`` for
    x = [theta, 1], as ``flow_product`` builds it. The RMS-normed error weight
    is ``tol |log_eps|`` in u: an absolute ``tol`` in w, a relative
    ``|log_eps| tol`` in theta. No step exceeds ``max_step``, and the first
    attempt is ``max_step`` clipped to the span. If given,
    ``step_callback(theta_new)`` is called after each accepted step and each
    jump, and may return true to end the run there, at the dense output's
    ``s_max``; ``theta_new`` is a copy of the last stage's theta, which at
    every step end, in every run, is exp(u) bit for bit at that end of
    ``step_ends``. A span too short for one step is ``OutOfRange``.

    ``quiet = (q_max, theta_min)`` steps over quiet stretches in closed form.
    A coordinate matters when its theta exceeds ``theta_min``. A step end is
    quiet when every coordinate that matters has ``|Q_i| <= q_max_i`` and the
    theta of the others sum below ``theta_min``. The test runs only after an
    accepted step of ``max_step`` whose RMS error estimate in w,
    ``err_norm * tol``, is below ``_QUIET_ERR``. From a quiet end the run
    jumps to the s at which the first coordinate that does not matter
    reaches ``theta_min``, or to ``s_end``, if that is more than ``max_step``
    away. The coordinates that matter are frozen, every other u_i moves by
    its Q_i times the jump's length, and the dense output stores the jump as
    one linear row. One evaluation of ``f`` at the jump's end refreshes the
    first stage, the hook is called there, and stepping resumes at
    ``max_step``. A stop never becomes true inside a jump unless it is true
    at one of its ends or holds with some theta_i <= ``theta_min``: inside,
    the frozen coordinates keep their values, and the others stay at or
    below ``theta_min``.

    Given ``quiet``, a run whose u0 has an entry below
    ``floor = min(-650, log(theta_min e / n))``, e the unit roundoff, is
    floored: each stage's exponent starts from max(u, floor) instead of u.
    Below u = -708.4 exp(u) is subnormal, and a product with a subnormal theta
    runs several times slower; a coordinate climbing from far below, as at
    epsilon = 1e-300, passes through that band. Its stages climb from
    exp(floor) instead, 58 above the band. The dense rows keep the true u, and
    an accepted step or jump writes exp(u) over its last stage's theta, so
    every run's step ends hold exp(u) there. A floored theta_j is at most
    e theta_min / n at a step's start, so in ``simulate``'s flow, where
    theta_min = delta min r / max|M|, the floored coordinates move any
    (M theta)_i by at most e delta min r, delta = 1e-15 times the roundoff of
    its r_i term, and Q, the steps and the dense output come out as without
    the floor. Other runs take u itself and pay nothing; a run that starts
    above the floor and grows never meets the band. A floored run tests its
    lowest coordinate at each step and jump end; from the first at which every
    u_i is at the floor or above, where max(u, floor) is u, it takes u itself
    too. A coordinate below the floor has Q > 0, as the off-diagonal entries
    of M are nonpositive, and along ``simulate``'s flow no coordinate falls
    back below it, so the lift changes no step either.
    """
    # The loop's end test, applied at s = 0.
    s_stop = s_end - 1e-14 * max(1.0, s_end)
    if not s_stop > 0.0:
        raise OutOfRange(f"span [0, {s_end:g}] is too short for one integration step")
    u0 = log_eps * np.asarray(w0, dtype=float)
    n = u0.size
    floor = -math.inf
    if quiet is not None and quiet[1] > 0.0:
        floor = min(_FLOOR, math.log(quiet[1]) + math.log(np.finfo(float).eps / 2 / n))
    # A floored run watches its lowest coordinate, to lift the floor.
    low = int(u0.argmin())
    floored = u0[low] < floor

    # Row i of x is stage i's [theta, 1]. R = [base, Q_0 ... Q_6], so stage
    # i's exponent is [1, h A[i, :i]] . R[:i + 1]. The base is max(u, floor),
    # a copy of u unless the run is floored; u itself lives in its dense row.
    x, R = np.ones((7, n + 1)), np.empty((8, n))
    base, Q = R[0], R[1:]
    np.maximum(u0, floor, out=base)
    np.exp(base, out=x[0, :n])
    f(x[0], Q[0])
    h = max_step

    # Accepted steps and jumps write their dense rows in place. A step's u
    # is its row's first slot, which the step before writes, so the buffer
    # doubles, copying only its rows, once that slot would not exist.
    knots, rows = [0.0], np.empty((64, 5, n))
    rows[0, 0] = u0
    # At these sizes a step costs numpy calls, not flops: an attempt whose h
    # differs from the last one's scales the tableau, the error weights and
    # the dense weights, stacked in W, with one call into hW behind its
    # column of ones, and every view and method a step calls is bound here.
    W, hW = np.vstack([_A, _E / (tol * abs(log_eps)), _DENSE]), np.ones((11, 8))
    hW_h, h_scaled = hW[:, 1:], 0.0
    stages = [(hW[i, :i + 1].dot, R[:i + 1], x[i, :n], x[i], Q[i]) for i in range(1, 6)]
    hb, he, hdense, Q_b = hW[6, 1:7].dot, hW[7, 1:].dot, hW[8:, 1:].dot, Q[:6]
    exp, add, theta_new, x_new, Q_new = np.exp, np.add, x[6, :n], x[6], Q[6]
    steps, rejected, jumps, max_h, s, jump = 0, 0, 0, 0.0, 0.0, None
    row, u, du, u_new = rows[0], rows[0, 0], rows[0, 1], rows[1, 0]
    while s < s_stop:
        if jump is None:
            h = min(h, s_end - s, max_step)
            if not h >= 1e-14 * max(1.0, s):
                raise StepUnderflow(f"step {h:.3e} underflowed at s={s:.6g}")

            if h != h_scaled:
                np.multiply(W, h, out=hW_h)
                h_scaled = h
            for a_dot, R_prev, theta, xi, Qi in stages:
                a_dot(R_prev, theta)
                exp(theta, theta)
                f(xi, Qi)
            hb(Q_b, du)
        else:
            # A linear row: the coordinates that matter stay, the others
            # move at the rate of the step end the jump starts from.
            ds, frozen = jump
            np.multiply(Q_new, ds, out=du)
            du[frozen] = 0.0
            row[2:] = 0.0
        # The last stage, or the jump's end, is at u + increment, as the
        # dense row reads.
        add(u, du, u_new)
        exp(np.maximum(u_new, floor, out=theta_new) if floored else u_new, theta_new)
        f(x_new, Q_new)

        if jump is None:
            q = he(Q)
            err_norm = math.sqrt(q.dot(q) / n)

            # inf and NaN fail too, and max() makes their factor _MIN_FACTOR.
            if not err_norm <= 1.0:
                rejected += 1
                h *= max(_MIN_FACTOR, _SAFETY * err_norm ** _ORDER_EXP)
                continue

            hdense(Q, row[2:])
            ds = h
            steps += 1
            max_h = max(max_h, h)
        else:
            jumps += 1
        s += ds
        knots.append(s)
        if floored:
            np.maximum(u_new, floor, out=base)
            exp(u_new, theta_new)
            if u_new.item(low) >= floor:
                low = int(u_new.argmin())
            floored = u_new.item(low) < floor
        else:
            base[...] = u_new
        Q[0] = Q_new  # FSAL
        if len(knots) == len(rows):
            grown = np.empty((2 * len(rows), 5, n))
            grown[:len(rows)] = rows
            rows = grown
        row = rows[len(knots) - 1]
        u, du, u_new = row[0], row[1], rows[len(knots), 0]
        if step_callback is not None and step_callback(theta_new.copy()):
            break

        if jump is not None:
            jump, h = None, max_step
            continue
        if quiet is not None and h == max_step and err_norm * tol < _QUIET_ERR:
            jump = _quiet_jump(u, theta_new, Q_new, *quiet, s_end - s, max_step)
        h *= (_MAX_FACTOR if err_norm == 0.0
              else min(_MAX_FACTOR, _SAFETY * err_norm ** _ORDER_EXP))

    # Six evaluations per attempted step, one before the first one and one
    # at the end of each jump.
    stats = IntegratorStats(steps, rejected, max_h, 1 + 6 * (steps + rejected) + jumps, jumps)
    return DenseOutput(np.array(knots), rows[:len(knots) - 1], stats)


def _quiet_jump(u, theta, Q, q_max, theta_min, span, max_step):
    """The jump from a step end at (u, theta, Q), or None if that end is not
    quiet or the jump would be no longer than ``max_step``: its length, up
    to the first s at which a coordinate that does not matter reaches
    ``theta_min``, or ``span``, and the mask of the coordinates that matter."""
    matters = theta > theta_min
    rest = ~matters
    if (np.abs(Q) > q_max)[matters].any() or not theta.sum(where=rest) < theta_min:
        return None
    grows = rest & (Q > 0.0)
    ds = min(span, float(((math.log(theta_min) - u[grows]) / Q[grows]).min(initial=math.inf)))
    return (ds, matters) if ds > max_step else None


def flow_product(M: np.ndarray, r: np.ndarray, log_eps: float):
    """The ``f`` of ``integrate`` for the flow of (M, r) at log(epsilon)."""
    return (log_eps * np.column_stack([M, -np.asarray(r)])).dot
