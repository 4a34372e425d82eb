"""Gradient-flow simulation from vanishing initialization.

The flow theta_i' = theta_i (r - M theta)_i is integrated on the rescaled
clock s = t / log(1/epsilon) and entirely in logarithmic coordinates

    w_i = log(theta_i) / log(epsilon),    dw/ds = M theta - r,

so that initializations like theta_i(0) = epsilon^{k_i} with epsilon down
to 1e-20 and beyond stay exactly representable: epsilon itself is never
exponentiated: the integrator carries u = log(theta) = L w, L = log(epsilon).
The right-hand side is bounded along trajectories, so an explicit adaptive
pair suffices. Averages need no extra state: with I(s) the integral of theta
over [0, s], u - L (M I - s r) is a linear first integral of the flow, which
every Runge-Kutta method conserves to roundoff, and a jump over a quiet
stretch of length dt only up to (d + 1) QUIET_DELTA dt max r in w, so
I(s) = M^{-1} ((u(s) - u(0)) / L + s r).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, MonotonicityViolated, NotReached, OutOfRange
from .integrate import DenseOutput, flow_product, integrate
from .problem import Initialization, ProblemInstance, loss

MONOTONE_RUNTIME_TOL = 1e-8
QUIET_DELTA = 1e-15
DEFAULT_TOL = 1e-9
DEFAULT_GRID_POINTS = 400


class Trajectory:
    """Sampled solution of the rescaled flow plus its dense interpolant.

    Immutable once returned; ``theta_at``/``w_at``/``average`` evaluate the
    dense output anywhere inside the integrated range, under its rule.
    ``averages`` holds the running averages on the grid, 0 at s = 0.
    ``knots`` and ``theta_knots`` hold s and theta at 0 and every step end,
    a jump's end included.
    """

    def __init__(self, instance, init, s_grid, dense: DenseOutput):
        self.instance = instance
        self.init = init
        self.stats = dense.stats
        self._dense = dense
        self._log_eps = init.log_epsilon
        self.knots, u_knots = dense.step_ends
        self._u0 = u_knots[0]
        self.theta_knots = np.exp(u_knots)
        self.knots.flags.writeable = self.theta_knots.flags.writeable = False

        self.s = np.asarray(s_grid, dtype=float)
        u = dense(self.s)
        self.w = u / self._log_eps
        self.theta = np.exp(u)
        self.averages = self._running_average(self.s, u)
        self.t = self.s * (-self._log_eps)

    @property
    def s_max(self) -> float:
        return self._dense.s_max

    def __len__(self) -> int:
        return self.s.shape[0]

    def _running_average(self, s: np.ndarray, u: np.ndarray) -> np.ndarray:
        """(1/s) M^{-1} ((u - u(0)) / log_eps + s r) by row, 0 where s = 0."""
        shifted = (u - self._u0) / self._log_eps + s[:, None] * self.instance.r
        integral = self.instance.solve(shifted.T).T
        return np.divide(integral, s[:, None], out=np.zeros_like(integral),
                         where=s[:, None] > 0.0)

    def w_at(self, s) -> np.ndarray:
        return self._dense(s) / self._log_eps

    def theta_at(self, s) -> np.ndarray:
        return np.exp(self._dense(s))

    def average(self, s) -> np.ndarray:
        """Running trajectory average (1/s) * integral of theta over [0, s].

        The integral is read off the flow's linear first integral, so its
        error is absolute, about e * (|w(0)| + s |r|) * ||M^{-1}|| for unit
        roundoff e, and the average's error grows like 1/s as s -> 0. It
        stays near 1e-13 on the default grid; for ``generate_direct(4, 7)``
        at eps = 1e-12 it is about 1e-11 at s = 1e-6 s* and 2e-8 at
        s = 1e-9 s*, against a true average near 1e-12, so there the value
        is roundoff and may be negative.
        """
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        if np.any(s_arr <= 0.0):
            raise OutOfRange("trajectory average requires s > 0")
        avg = self._running_average(s_arr, self._dense(s_arr))
        return avg[0] if np.ndim(s) == 0 else avg

    def loss_values(self) -> np.ndarray:
        return loss(self.instance, self.theta)


def simulate(
    instance: ProblemInstance,
    init: Initialization,
    s_max: float,
    s_grid=None,
    tol: float = DEFAULT_TOL,
    stop=None,
) -> Trajectory:
    """Integrate the flow up to rescaled time s_max.

    Sampling happens on ``s_grid`` (default: 400 uniform points on
    [0, s_max]) through the dense output, whose range rule a grid must pass
    (a point outside it is ``OutOfRange``). If ``stop(theta)`` is true at an
    accepted step's endpoint, integration ends there: the trajectory's
    ``s_max`` is then that endpoint, sampled only on the grid points up to it.

    Quiet stretches are jumped in closed form (``integrate``'s ``quiet``),
    with ``QUIET_DELTA`` = delta: a coordinate matters when
    ``theta_i max|M| > delta min r``, and a stretch is quiet while each that
    matters has ``|r - M theta|_i <= delta r_i`` and the theta of the others
    sum below ``delta min r / max|M|``. A jump's end is a step end to the
    stop and to the checks below. As M is a K-matrix, theta*_i >= r_i / M_ii
    >= min r / max|M|, so a coordinate that does not matter is below delta
    theta*_i; the coordinates that matter are frozen. So along a jump theta
    either stays as at its start or has a coordinate below delta theta*_i,
    and a stop that needs every theta_i above that, as ``hitting_time``'s
    does, is false inside a jump whenever it is false at its start. The
    quiet thresholds also set ``integrate``'s floor: a run with some
    theta_i(0) below exp(-650), so epsilon below about 5e-283 for C_i = k_i = 1,
    takes its stage exponents from max(u, floor): no subnormal theta enters
    a product with M, no step changes, and the stop reads exp(u) (``integrate``).

    Once the run ends, a coordinate decreasing from one step end to the next
    by more than 1e-8 times its cap max(theta*_i, theta_i(0)) raises
    ``MonotonicityViolated`` on the first such step. Trajectories are
    provably monotone once the initialization is small enough to start
    inside the invariant region, so a decrease means epsilon is too large
    for the asymptotic regime (or the integration broke down). The dense
    output between step ends is not certified (README, numerical notes).
    """
    _check_dimension(instance, init)
    if not 0.0 < s_max < np.inf:
        raise OutOfRange(f"s_max must be positive and finite, got {s_max}")
    if not np.finfo(float).eps <= tol < np.inf:
        raise DomainError(f"tol must be positive and finite, and no smaller "
                          f"than machine epsilon, got {tol}")
    if s_grid is None:
        s_grid = np.linspace(0.0, s_max, DEFAULT_GRID_POINTS)
    s_grid = np.asarray(s_grid, dtype=float)
    if s_grid.ndim != 1 or s_grid.size == 0 or not np.all(np.diff(s_grid) > 0):
        raise OutOfRange("s_grid must be a nonempty strictly increasing vector")
    log_eps = init.log_epsilon

    # Inside the invariant region theta <= theta_cap = max(theta*, theta(0))
    # componentwise. The Jacobian -|log eps| M Theta has the eigenvalues of
    # Theta^1/2 M Theta^1/2, whose largest does not decrease as Theta grows,
    # so no local rate exceeds |log eps| * rate below. Capping the step keeps
    # the method's stability function in (0, 1) on every mode: the converged
    # tail contracts monotonically instead of bouncing along the stability
    # boundary, which would otherwise inject tolerance-scale jitter into
    # coordinates that the monotonicity check watches.
    theta_cap = np.maximum(instance.minimizer(), np.exp(init.w0 * log_eps))
    root = np.sqrt(theta_cap)
    rate = float(np.linalg.eigvalsh(root[:, None] * instance.M * root)[-1])
    h_stab = 2.8 / (abs(log_eps) * rate)

    M, r = instance.M, instance.r
    quiet = (QUIET_DELTA * abs(log_eps) * r, QUIET_DELTA * r.min() / np.abs(M).max())
    dense = integrate(flow_product(M, r, log_eps), log_eps, init.w0, s_max, tol, h_stab,
                      stop, quiet)
    if stop is not None:
        s_grid = s_grid[s_grid <= dense.s_max]
    trajectory = Trajectory(instance, init, s_grid, dense)

    # The first step that drops too far, and its coordinate of largest excess.
    knots, theta = trajectory.knots, trajectory.theta_knots
    excess = theta[:-1] - theta[1:]
    excess -= MONOTONE_RUNTIME_TOL * theta_cap
    bad = np.flatnonzero(excess.max(axis=1) > 0.0)
    if bad.size:
        j = bad[0]
        i = int(excess[j].argmax())
        raise MonotonicityViolated(
            f"theta_{i} decreased by {theta[j, i] - theta[j + 1, i]:.3e} over "
            f"[{knots[j]:.6g}, {knots[j + 1]:.6g}]; "
            f"epsilon={init.epsilon:g} is too large for monotone dynamics"
        )
    return trajectory


def _check_dimension(instance: ProblemInstance, init: Initialization) -> None:
    if init.C.shape[0] != instance.d:
        raise DomainError(f"initialization has dimension {init.C.shape[0]}, "
                          f"instance has {instance.d}")


def _ball_gap(theta: np.ndarray, target: np.ndarray, eta: float):
    """||theta - target||_2^2 - eta * eta of each row of theta, <= 0 inside
    the closed ball. A row's gap is bit for bit the gap of that row alone, so
    a scan of step ends and a stop at one agree on which end is inside."""
    diff = theta - target
    return np.square(diff, out=diff).sum(axis=-1) - eta * eta


def _ball_center(instance: ProblemInstance, eta: float) -> np.ndarray:
    target = instance.minimizer()
    if not 0.0 < eta < target.min():
        raise DomainError(f"eta={eta:g} is outside (0, min(M^-1 r) = {target.min():g})")
    return target


def hitting_time_on(trajectory: Trajectory, eta: float) -> float:
    """First physical time t with ||theta(t) - M^{-1} r||_2 <= eta.

    An instance's M is a certified K-matrix, so M^{-1} >= 0 entrywise. A
    trajectory ``simulate`` returns is nondecreasing at its step ends (it
    raises on any drop beyond ``MONOTONE_RUNTIME_TOL`` times the
    coordinate's cap) and stays in the invariant region {r - M theta >= 0},
    theta <= M^{-1} r, up to the integration error. Every coordinate of
    M^{-1} r - theta(s) is therefore, up to that error, nonnegative and
    nonincreasing, and so is the l2 gap: the ball is entered once. The gap
    is read at the step ends, and the first step that ends inside the ball
    is rooted to roundoff by Illinois regula falsi on that step's own dense
    row (``DenseOutput.on_step``), which reads as the dense output does.
    Any run that takes the same steps up to that end, stopped there or not,
    returns the same time bit for bit.
    """
    target = _ball_center(trajectory.instance, eta)
    gaps = _ball_gap(trajectory.theta_knots, target, eta)
    j = int(np.argmax(gaps <= 0.0))
    if not gaps[j] <= 0.0:
        raise NotReached(trajectory.s_max)
    if j == 0:
        return 0.0
    # Illinois regula falsi on the step's [outside, inside] ends, down to a
    # bracket of a few ulps or an exact zero. g_lo - g_hi >= -g_hi > 0, and
    # the secant's root is kept tol inside the bracket; an end kept twice
    # has its gap halved.
    ends, g_ends = trajectory.knots[j - 1:j + 1].tolist(), gaps[j - 1:j + 1].tolist()
    tol = 2.0 * float(np.spacing(ends[1]))
    last = None
    while g_ends[1] < 0.0 and ends[1] - ends[0] > 2.0 * tol:
        (lo, hi), (g_lo, g_hi) = ends, g_ends
        s = min(max(lo + (hi - lo) * g_lo / (g_lo - g_hi), lo + tol), hi - tol)
        g = float(_ball_gap(np.exp(trajectory._dense.on_step(j - 1, s)), target, eta))
        side = int(g <= 0.0)
        if side == last:
            g_ends[1 - side] *= 0.5
        ends[side], g_ends[side], last = s, g, side
    return ends[1] * -trajectory.init.log_epsilon


def hitting_time(
    instance: ProblemInstance,
    init: Initialization,
    eta: float,
    s_cap: float,
    tol: float = DEFAULT_TOL,
) -> float:
    """Simulate and return the physical hitting time of the eta-ball
    around the unconstrained minimizer.

    Integration stops at the first accepted step whose end row has
    ``_ball_gap`` <= 0, the step ``hitting_time_on``'s scan roots: a row
    sums as it does in the scan. ``NotReached`` is raised if none does.
    The stop first tests the squared gap of one coordinate j, the last to
    join the limit path (largest (M^{-1} k)_j / (M^{-1} r)_j), and forms the
    whole gap only when that term minus eta * eta is at most 0. A rounded
    sum of nonnegative squares is never below one of its terms, and
    rounding is monotone, so a row that fails the pre-check has a gap > 0
    too: the pre-check skips the sum on most steps and flips no decision.
    A hit never falls inside one of ``simulate``'s jumps: inside a jump
    either theta stays as at the jump's start, where the stop was false, or
    a coordinate stays below delta theta*_i, so its gap alone exceeds
    (1 - delta) theta*_i > eta for any eta below (1 - delta) min theta*. In
    the last 1e-15 of eta's range a hit inside a jump is caught at its end
    and rooted on its linear row.
    Monotonicity is certified up to the stop's step only: a drop after the
    hit does not raise ``MonotonicityViolated``.
    """
    _check_dimension(instance, init)
    target = _ball_center(instance, eta)
    # The coordinate that joins the limit path last, at s*.
    j = int(np.argmax(instance.solve(init.k) / target))
    target_j, eta2 = float(target[j]), eta * eta

    def stop(theta):
        gap_j = theta.item(j) - target_j
        return gap_j * gap_j - eta2 <= 0.0 and _ball_gap(theta, target, eta) <= 0.0

    trajectory = simulate(instance, init, s_cap, np.array([0.0, s_cap]), tol=tol, stop=stop)
    return hitting_time_on(trajectory, eta)
