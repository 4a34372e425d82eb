"""Test oracles: routes to the package's answers that do not go through the
code they check.

``solve_lcp_bruteforce`` enumerates every support instead of following the
homotopy on the incremental Cholesky kernel that both ``solve_lcp`` and
``compute_path`` run, and ``residuals`` measures how far a pair is from
solving its problem; ``solve_limit_lcp`` and ``mu`` solve the parametric
problem pointwise by that enumeration, so d <= 20;
``lyapunov`` and ``in_invariant_region`` are diagnostics of trajectories;
``integrate_reference`` is a generic list-based Dormand-Prince loop, whose
steps ``integrate.integrate`` must repeat and whose states it must match up
to roundoff. ``verify_path`` certifies a limit path one segment at a time,
the reference for the one-pass certificate of ``compute_path``, and
``csv_bytes`` formats every CSV cell on its own, the reference for
``write_csv``. ``exact_path`` and ``exact_s_star`` follow the limit path's
homotopy and its closed-form convergence time in rational arithmetic.
``hitting_time_reference`` roots the hit through the trajectory's public
``theta_at``, the reference for ``hitting_time_on``'s root on one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from dlnflow.dynamics import Trajectory, _ball_center, _ball_gap
from dlnflow.errors import (
    DimensionTooLarge,
    DomainError,
    NotReached,
    NumericalFailure,
    OutOfRange,
    PathInconsistent,
    StepUnderflow,
)
from dlnflow.experiments import CSV_SCHEMA
from dlnflow.fixed_points import FixedPoint
from dlnflow.integrate import (
    _A,
    _D,
    _E,
    _MAX_FACTOR,
    _MIN_FACTOR,
    _ORDER_EXP,
    _QUIET_ERR,
    _SAFETY,
    IntegratorStats,
)
from dlnflow.lcp import STRICT_TOL, LcpSolution, _finite_array
from dlnflow.limit_path import SEGMENT_CHECK_TOL, LimitPath, PathSegment
from dlnflow.problem import ProblemInstance, _positive_array

BRUTEFORCE_MAX_DIM = 20


class NoSolution(NumericalFailure):
    """Exhaustive support enumeration found no complementary pair."""


class MultipleSolutions(NumericalFailure):
    """Exhaustive support enumeration found more than one complementary pair."""


def residuals(sol: LcpSolution, q: np.ndarray, M: np.ndarray) -> dict[str, float]:
    """Violation magnitudes of the conditions that define ``sol`` as a
    solution for ``(q, M)`` (0 when exact)."""
    affine = float(np.max(np.abs(sol.w - q - M @ sol.z)))
    neg_w = float(max(0.0, -np.min(sol.w, initial=0.0)))
    neg_z = float(max(0.0, -np.min(sol.z, initial=0.0)))
    comp = float(abs(sol.w @ sol.z))
    per_coord = float(np.max(np.minimum(sol.w, sol.z), initial=0.0))
    return {
        "affine": affine,
        "negative_w": neg_w,
        "negative_z": neg_z,
        "complementarity": comp,
        "per_coordinate": max(0.0, per_coord),
    }


def solve_lcp_bruteforce(q, M) -> LcpSolution:
    """Solve by enumerating all 2^d supports; oracle for the homotopy.

    A support I passes when z_I = -(M_II)^{-1} q_I is strictly positive and
    the induced dual vector is nonnegative. Both signs are tested against
    ``STRICT_TOL`` times each coordinate's own scale, (|M_II^{-1}| |q_I|)_i
    for z_i and |q_i| + (|M| z)_i for w_i, so that ``(c q, M)`` passes the
    support of ``(q, M)`` at any scale c > 0, and a coordinate far below
    the largest is judged on its own. Uniqueness of the passing
    support is part of the contract: zero passes mean the problem is
    infeasible for this matrix class, several mean M is not a K-matrix or
    the data sits on a degenerate boundary.
    """
    q = _finite_array(q, "q", (None,))
    M = _finite_array(M, "M", (q.size, q.size))
    d = q.size
    if d > BRUTEFORCE_MAX_DIM:
        raise DimensionTooLarge(f"brute force limited to d <= {BRUTEFORCE_MAX_DIM}")

    winners: list[LcpSolution] = []
    for mask in range(2 ** d):
        idx = np.flatnonzero([(mask >> i) & 1 for i in range(d)])
        z = np.zeros(d)
        if idx.size:
            try:
                z_active = np.linalg.solve(M[np.ix_(idx, idx)], -q[idx])
                scale = np.abs(np.linalg.inv(M[np.ix_(idx, idx)])) @ np.abs(q[idx])
            except np.linalg.LinAlgError:
                continue
            if np.any(z_active <= STRICT_TOL * scale):
                continue
            z[idx] = z_active
        w = q + M @ z
        w[idx] = 0.0
        if np.any(w < -STRICT_TOL * (np.abs(q) + np.abs(M) @ z)):
            continue
        winners.append(
            LcpSolution(w=np.maximum(w, 0.0), z=z, support=tuple(idx.tolist()))
        )

    if not winners:
        raise NoSolution("no support passes the sign checks")
    if len(winners) > 1:
        raise MultipleSolutions(
            f"{len(winners)} supports pass: {[s.support for s in winners]}"
        )
    return winners[0]


def solve_limit_lcp(instance: ProblemInstance, k, s: float) -> LcpSolution:
    """Pointwise solve of the parametric problem at rescaled time s, by
    support enumeration."""
    k = _positive_array(k, "k", (instance.d,))
    if s <= 0.0:
        raise OutOfRange("s must be positive")
    return solve_lcp_bruteforce(k - s * instance.r, instance.M)


def mu(instance: ProblemInstance, k, s: float) -> np.ndarray:
    """Minimizer of f + <k, theta>/s over theta >= 0, via z(s) = s mu(s)."""
    return solve_limit_lcp(instance, k, s).z / s


def verify_segment(instance: ProblemInstance, k, s_lo: float, s_hi: float,
                   segment: PathSegment) -> None:
    """KKT certificate of a segment's affine primal on [s_lo, s_hi).

    The probe point is the midpoint, or 2 s_lo on the last, unbounded
    segment. There z gives the dual w = q + M z, q = k - s r, which is the
    stationarity ("affine") residual on the active set and is set to 0
    there. z >= 0, w >= 0 and complementarity are then checked in O(d^2),
    on z and w divided by the segment's own scale, the largest of |z|, |w|
    and the terms of q.
    """
    s = 2.0 * s_lo if math.isinf(s_hi) else 0.5 * (s_lo + s_hi)
    z = segment.z_intercept + s * segment.theta_star
    w = k - s * instance.r + instance.M @ z
    active = np.array(segment.active, dtype=int)
    affine = np.max(np.abs(w[active]), initial=0.0)
    w[active] = 0.0
    scale = max(np.max(np.abs(z)), np.max(np.abs(w)), np.max(k + s * instance.r))
    w, z = w / scale, z / scale
    residuals = {"affine": affine / scale, "negative_w": max(0.0, -np.min(w)),
                 "negative_z": max(0.0, -np.min(z)), "complementarity": abs(w @ z),
                 "per_coordinate": max(0.0, np.max(np.minimum(w, z)))}
    if max(residuals.values()) > SEGMENT_CHECK_TOL:
        detail = ", ".join(f"{name} {err:.3e}" for name, err in residuals.items())
        raise PathInconsistent(
            f"segment [{s_lo:.6g}, {s_hi:.6g}) fails its KKT certificate at "
            f"s={s:.6g}, relative to {scale:.3e}: {detail}"
        )


def verify_path(instance: ProblemInstance, k, path: LimitPath) -> None:
    """``verify_segment`` on each segment in order; the first that fails
    raises."""
    bounds = [0.0, *path.breakpoints, math.inf]
    for s_lo, s_hi, segment in zip(bounds, bounds[1:], path.segments):
        verify_segment(instance, k, s_lo, s_hi, segment)


def _solve_exact(A: list, B: list) -> list:
    """Rows of A^{-1} B in rationals, for a positive definite A, by Gaussian
    elimination without pivoting: each pivot is a ratio of leading minors of
    A, so positive."""
    n = len(A)
    rows = [A[i] + B[i] for i in range(n)]
    for p in range(n):
        for i in range(p + 1, n):
            f = rows[i][p] / rows[p][p]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[p])]
    x = [None] * n
    for i in reversed(range(n)):
        x[i] = [(rhs - sum(rows[i][j] * x[j][c] for j in range(i + 1, n))) / rows[i][i]
                for c, rhs in enumerate(rows[i][n:])]
    return x


def _exact_data(instance: ProblemInstance, k) -> tuple[list, list, list]:
    """M, r and k with every double converted to a ``Fraction`` exactly."""
    return ([[Fraction(x) for x in row] for row in instance.M.tolist()],
            [Fraction(x) for x in instance.r.tolist()],
            [Fraction(x) for x in np.asarray(k, dtype=float).tolist()])


def exact_path(instance: ProblemInstance, k) -> tuple[list, list]:
    """The limit path of the float data in exact rational arithmetic: its
    breakpoints, as ``Fraction``s, and the sorted active set from each.

    Each segment re-eliminates M_II for the intercept -M_II^{-1} k_I and the
    slope M_II^{-1} r_I; the inactive dual lines w = k - s r + M z then give
    their roots, and every coordinate whose root is the earliest joins
    there, so an exact tie is one breakpoint."""
    M, r, k = _exact_data(instance, k)
    d, active = len(r), []
    breakpoints, sets = [], []
    while len(active) < d:
        lines = _solve_exact([[M[i][j] for j in active] for i in active],
                             [[-k[i], r[i]] for i in active])
        roots = {}
        for i in sorted(set(range(d)) - set(active)):
            w_int = k[i] + sum(M[i][j] * z for j, (z, _) in zip(active, lines))
            w_slp = -r[i] + sum(M[i][j] * t for j, (_, t) in zip(active, lines))
            if w_slp < 0:
                roots[i] = -w_int / w_slp
        s = min(roots.values())
        assert not breakpoints or s > breakpoints[-1]
        active = sorted(active + [i for i, root in roots.items() if root == s])
        breakpoints.append(s)
        sets.append(tuple(active))
    return breakpoints, sets


def exact_s_star(instance: ProblemInstance, k) -> Fraction:
    """The closed form max_i (M^{-1} k)_i / (M^{-1} r)_i in rationals."""
    M, r, k = _exact_data(instance, k)
    return max(a / b for a, b in _solve_exact(M, [[ki, ri] for ki, ri in zip(k, r)]))


def csv_bytes(kind: str, header: list[str], rows) -> bytes:
    """What ``write_csv`` writes, with every cell formatted on its own:
    ``repr(float(v))``, or an empty cell for ``None``."""
    lines = [f"# {CSV_SCHEMA} {kind}\n", ",".join(header) + "\r\n"]
    lines += [",".join("" if v is None else repr(float(v)) for v in row) + "\r\n"
              for row in rows]
    return "".join(lines).encode()


def hitting_time_reference(trajectory: Trajectory, eta: float) -> float:
    """``hitting_time_on`` with every gap of its Illinois root read through
    ``trajectory.theta_at``, the dense output's range rule, search and clip
    included: the same scan of step ends, the same brackets and secants."""
    target = _ball_center(trajectory.instance, eta)
    gaps = _ball_gap(trajectory.theta_knots, target, eta)
    j = int(np.argmax(gaps <= 0.0))
    if not gaps[j] <= 0.0:
        raise NotReached(trajectory.s_max)
    if j == 0:
        return 0.0
    ends, g_ends = trajectory.knots[j - 1:j + 1].tolist(), gaps[j - 1:j + 1].tolist()
    tol = 2.0 * float(np.spacing(ends[1]))
    last = None
    while g_ends[1] < 0.0 and ends[1] - ends[0] > 2.0 * tol:
        (lo, hi), (g_lo, g_hi) = ends, g_ends
        s = min(max(lo + (hi - lo) * g_lo / (g_lo - g_hi), lo + tol), hi - tol)
        g = float(_ball_gap(trajectory.theta_at(s), target, eta))
        side = int(g <= 0.0)
        if side == last:
            g_ends[1 - side] *= 0.5
        ends[side], g_ends[side], last = s, g, side
    return ends[1] * -trajectory.init.log_epsilon


def lyapunov(theta, fp: FixedPoint) -> float:
    """Energy sum_{i in support} (theta_i - theta*_i log theta_i).

    Along the flow this decreases up to vanishing corrections while the
    trajectory travels the plateau of the given stationary point.
    """
    theta = np.asarray(theta, dtype=float)
    if not fp.support:
        return 0.0
    idx = np.array(fp.support, dtype=int)
    vals = theta[idx]
    if np.any(vals <= 0.0):
        raise DomainError("theta must be strictly positive on the support")
    return float(np.sum(vals - fp.theta[idx] * np.log(vals)))


def in_invariant_region(
    instance: ProblemInstance, theta, slack: float = 1e-10
) -> bool:
    """Membership in {theta >= 0 : r - M theta >= 0}, up to slack on the
    residual side; this region is forward-invariant and forces monotone
    trajectories."""
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < 0.0):
        return False
    return bool(np.all(instance.r - instance.M @ theta >= -slack))


@dataclass
class ReferenceDense:
    """Piecewise-quartic interpolant with every coefficient stored per step."""

    lefts: np.ndarray   # (nseg,)
    widths: np.ndarray  # (nseg,)
    cont: np.ndarray    # (nseg, 5, n)

    def __call__(self, s: np.ndarray) -> np.ndarray:
        seg = np.searchsorted(self.lefts, s, side="right") - 1
        tau = np.clip((s - self.lefts[seg]) / self.widths[seg], 0.0, 1.0)[:, None]
        c = self.cont[seg]
        omt = 1.0 - tau
        return c[:, 0] + tau * (c[:, 1] + omt * (c[:, 2] + tau * (c[:, 3] + omt * c[:, 4])))


@dataclass
class ReferenceRun:
    """What ``integrate_reference`` returns: the end of the run and its
    dense output."""

    s: float
    y: np.ndarray
    dense: ReferenceDense
    stats: IntegratorStats


# Stage abscissae of the Dormand-Prince tableau, for the non-autonomous
# y' = f(s, y) the reference loop integrates.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)


def integrate_reference(
    f: Callable[[float, np.ndarray], np.ndarray],
    s0: float,
    y0,
    s_end: float,
    rtol: float,
    atol: float,
    max_step: float = np.inf,
    step_callback: Callable[[float, np.ndarray, float, np.ndarray], None] | None = None,
    stop: Callable[[np.ndarray], bool] | None = None,
    quiet: tuple[float, np.ndarray, np.ndarray, float] | None = None,
) -> ReferenceRun:
    """Integrate y' = f(s, y) from s0 to s_end.

    Error control is mixed (atol + rtol * |y|) and RMS-normed over every
    component. The first attempt is ``max_step`` clipped to the span, after
    one evaluation of ``f`` at s0, as in ``integrate.integrate``. After each
    accepted step and each jump
    ``step_callback(s_old, y_old, s_new, y_new)`` may raise to abort with a
    domain-specific diagnosis. Then, if ``stop(y_new)`` is true, integration
    ends there: the result's ``s`` and ``y`` are that step's endpoint.

    ``quiet = (delta, M, r, log_eps)`` says that y is w of the flow
    ``w' = M exp(log_eps w) - r`` and jumps over its quiet stretches. With
    theta = exp(log_eps w), a coordinate matters when
    ``theta_i max|M| > delta min r``. After a step at ``max_step`` whose
    RMS error estimate ``err_norm * atol`` is below ``_QUIET_ERR``, the end
    is quiet when each coordinate that matters has ``|w'_i| <= delta r_i``
    and the theta of the others sum below ``delta min r / max|M|``. Then
    the run goes, in one linear row, to the first s at which another w_i,
    moving at its w'_i, reaches that bound, or to s_end, if that is further
    than ``max_step``; the coordinates that matter do not move.
    """
    y = np.array(y0, dtype=float)
    n = y.size
    if not s_end > s0:
        raise ValueError("s_end must exceed s0")

    stats = IntegratorStats()
    k = np.empty((7, n))
    k[0] = f(s0, y)
    stats.rhs_evaluations += 1
    h = min(max_step, s_end - s0)

    s = s0
    lefts, widths, conts = [], [], []

    while s < s_end - 1e-14 * max(1.0, abs(s_end)):
        h = min(h, s_end - s, max_step)
        if not h >= 1e-14 * max(1.0, abs(s)):
            raise StepUnderflow(f"step {h:.3e} underflowed at s={s:.6g}")

        for i in range(1, 7):
            k[i] = f(s + _C[i] * h, y + h * (_A[i, :i] @ k[:i]))
        stats.rhs_evaluations += 6
        y_new = y + h * (_A[6] @ k)

        err_vec = h * (_E @ k)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        with np.errstate(over="ignore", invalid="ignore"):
            err_norm = float(np.sqrt(np.mean((err_vec / scale) ** 2)))

        if not np.isfinite(err_norm):
            stats.rejected += 1
            h *= _MIN_FACTOR
            continue
        if err_norm > 1.0:
            stats.rejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * err_norm ** _ORDER_EXP)
            continue

        ydiff = y_new - y
        bspl = h * k[0] - ydiff
        cont = np.stack(
            [y, ydiff, bspl, ydiff - h * k[6] - bspl, h * (_D @ k)]
        )
        lefts.append(s)
        widths.append(h)
        conts.append(cont)

        if step_callback is not None:
            step_callback(s, y, s + h, y_new)

        stats.steps += 1
        stats.max_step = max(stats.max_step, h)
        s += h
        y = y_new
        k[0] = k[6]  # FSAL
        if stop is not None and stop(y):
            break

        if quiet is not None and h == max_step and err_norm * atol < _QUIET_ERR:
            delta, M_q, r_q, log_eps = quiet
            m_max, r_min = np.max(np.abs(M_q)), np.min(r_q)
            theta = np.exp(log_eps * y)
            matters = theta * m_max > delta * r_min
            slope = k[0]
            if (np.all(np.abs(slope[matters]) <= delta * r_q[matters])
                    and np.sum(theta[~matters]) < delta * r_min / m_max):
                w_edge = math.log(delta * r_min / m_max) / log_eps
                dt = s_end - s
                for i in np.flatnonzero(~matters & (slope < 0.0)):
                    dt = min(dt, (w_edge - y[i]) / slope[i])
                if dt > max_step:
                    dw = np.where(matters, 0.0, dt * slope)
                    zero = np.zeros(n)
                    lefts.append(s)
                    widths.append(dt)
                    conts.append(np.stack([y, dw, zero, zero, zero]))
                    if step_callback is not None:
                        step_callback(s, y, s + dt, y + dw)
                    s += dt
                    y = y + dw
                    k[0] = f(s, y)
                    stats.rhs_evaluations += 1
                    stats.jumps += 1
                    if stop is not None and stop(y):
                        break
                    h = max_step
                    continue

        if err_norm == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err_norm ** _ORDER_EXP))
        h *= factor

    dense = ReferenceDense(np.array(lefts), np.array(widths), np.array(conts))
    return ReferenceRun(s=s, y=y, dense=dense, stats=stats)
