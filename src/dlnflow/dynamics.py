"""Gradient-flow simulation from vanishing initialization.

The flow theta_i' = theta_i (r - M theta)_i is integrated on the rescaled
clock s = t / log(1/epsilon) and entirely in logarithmic coordinates

    w_i = log(theta_i) / log(epsilon),    dw/ds = M theta - r,

so that initializations like theta_i(0) = epsilon^{k_i} with epsilon down
to 1e-20 and beyond stay exactly representable: epsilon itself is never
exponentiated, only exp(w_i * log(epsilon)) is formed. The right-hand side
is bounded along trajectories, so an explicit adaptive pair suffices.

Only w is integrated. Trajectory averages need no extra state: with
I(s) the integral of theta over [0, s], w - M I + s r is a linear first
integral of the flow, which every Runge-Kutta method conserves to roundoff,
so I(s) = M^{-1} (w(s) - w(0) + s r).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, MonotonicityViolated, NotReached, OutOfRange
from .integrate import DenseOutput, integrate
from .problem import Initialization, ProblemInstance, loss

MONOTONE_RUNTIME_TOL = 1e-8
DEFAULT_TOL = 1e-9
DEFAULT_GRID_POINTS = 400
HITTING_REL_ACCURACY = 1e-6


class Trajectory:
    """Sampled solution of the rescaled flow plus its dense interpolant.

    Immutable once returned; ``theta_at``/``w_at``/``average`` evaluate the
    dense output anywhere inside the integrated range, under its rule.
    ``averages`` holds the running averages on the grid, 0 at s = 0.
    """

    def __init__(self, instance, init, s_grid, dense: DenseOutput):
        self.instance = instance
        self.init = init
        self.stats = dense.stats
        self._dense = dense
        self._log_eps = init.log_epsilon

        self.s = np.asarray(s_grid, dtype=float)
        self.w = dense(self.s)
        self.theta = np.exp(self.w * self._log_eps)
        self.averages = self._running_average(self.s, self.w)
        self.t = self.s * (-self._log_eps)

    @property
    def s_max(self) -> float:
        return self._dense.s_max

    def __len__(self) -> int:
        return self.s.shape[0]

    def _running_average(self, s: np.ndarray, w: np.ndarray) -> np.ndarray:
        """(1/s) * M^{-1} (w - w(0) + s r) row by row, 0 where s = 0."""
        shifted = w - self.init.w0 + s[:, None] * self.instance.r
        integral = self.instance.solve(shifted.T).T
        return np.divide(integral, s[:, None], out=np.zeros_like(integral),
                         where=s[:, None] > 0.0)

    def w_at(self, s) -> np.ndarray:
        return self._dense(s)

    def theta_at(self, s) -> np.ndarray:
        return np.exp(self.w_at(s) * self._log_eps)

    def average(self, s) -> np.ndarray:
        """Running trajectory average (1/s) * integral of theta over [0, s].

        The integral is read off the flow's linear first integral, so its
        error is absolute, about u * (|w(0)| + s |r|) * ||M^{-1}|| for unit
        roundoff u, and the average's error grows like 1/s as s -> 0. It
        stays near 1e-13 on the default grid; for ``generate_direct(4, 7)``
        at eps = 1e-12 it is about 1e-11 at s = 1e-6 s* and 2e-8 at
        s = 1e-9 s*, against a true average near 1e-12, so there the value
        is roundoff and may be negative.
        """
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        if np.any(s_arr <= 0.0):
            raise OutOfRange("trajectory average requires s > 0")
        avg = self._running_average(s_arr, self.w_at(s_arr))
        return avg[0] if np.ndim(s) == 0 else avg

    def loss_values(self) -> np.ndarray:
        return loss(self.instance, self.theta)


def _flow(instance: ProblemInstance, log_eps: float):
    M, r = instance.M, instance.r

    def rhs(w):
        return M @ np.exp(w * log_eps) - r

    return rhs


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
    (a point outside it is ``OutOfRange``). Any coordinate decreasing by more
    than 1e-8 between accepted steps aborts with ``MonotonicityViolated``:
    trajectories are provably monotone once the initialization is small
    enough to start inside the invariant region, so a decrease means
    epsilon is too large for the asymptotic regime (or the integration
    broke down).

    If ``stop(theta)`` is true at an accepted step's endpoint, integration
    ends there, after that step's monotonicity check.
    The trajectory's ``s_max`` is then that endpoint, and it is sampled only
    on the grid points up to it.
    """
    if init.C.shape[0] != instance.d:
        raise DomainError(f"initialization has dimension {init.C.shape[0]}, "
                          f"instance has {instance.d}")
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

    # Inside the invariant region theta stays componentwise below the
    # minimizer, so the flow's local rates never exceed
    # |log eps| * lambda_max(M) * max theta. Capping the step keeps the
    # method's stability function in (0, 1) on every mode: the converged
    # tail contracts monotonically instead of bouncing along the stability
    # boundary, which would otherwise inject tolerance-scale jitter into
    # coordinates that the monotonicity check watches.
    theta_cap = max(
        float(np.max(instance.minimizer())),
        float(np.max(init.C * np.exp(init.k * log_eps))),
    )
    h_stab = 2.8 / (abs(log_eps) * instance.lambda_max * max(theta_cap, 1e-12))

    theta_old = np.exp(init.w0 * log_eps)

    def step(s_old, w_old, s_new, w_new):
        # integrate calls this once per accepted step, in order, so w_old is
        # the previous call's w_new and theta_old its theta.
        nonlocal theta_old
        theta_new = np.exp(w_new * log_eps)
        drop = theta_old - theta_new
        worst = drop.max()
        if worst > MONOTONE_RUNTIME_TOL:
            i = int(drop.argmax())
            raise MonotonicityViolated(
                f"theta_{i} decreased by {worst:.3e} over [{s_old:.6g}, {s_new:.6g}]; "
                f"epsilon={init.epsilon:g} is too large for monotone dynamics"
            )
        theta_old = theta_new
        return stop is not None and stop(theta_new)

    dense = integrate(_flow(instance, log_eps), init.w0, s_max, tol, h_stab, step)
    if stop is not None:
        s_grid = s_grid[s_grid <= dense.s_max]
    return Trajectory(instance, init, s_grid, dense)


def _ball_gap(theta: np.ndarray, target: np.ndarray, eta: float) -> float:
    """||theta - target||_2 - eta, <= 0 exactly inside the closed ball."""
    diff = theta - target
    return float(np.sqrt(diff.dot(diff))) - eta


def hitting_time_on(trajectory: Trajectory, eta: float, *,
                    s_cap: float | None = None) -> float:
    """First physical time t with ||theta(t) - M^{-1} r||_2 <= eta.

    An instance's M is a certified K-matrix, so M^{-1} >= 0 entrywise. A
    trajectory ``simulate`` returns has nondecreasing coordinates (it aborts
    on any drop beyond ``MONOTONE_RUNTIME_TOL``) and stays in the invariant
    region {r - M theta >= 0}, that is theta <= M^{-1} r componentwise.
    Every coordinate of M^{-1} r - theta(s) is therefore nonnegative and,
    up to the integration tolerance, nonincreasing, and so is the l2 gap:
    the ball is entered once, and a bisection on [0, s_cap] finds that time
    to relative accuracy 1e-6.

    ``s_cap`` (default: the trajectory's end ``s_max``) may lie past that
    end, where the gap is read at the end: by monotonicity it stays <= 0
    once the end lies inside the ball, as in a trajectory ``hitting_time``
    stopped there, and the midpoints are those of a run to ``s_cap``.
    """
    target = trajectory.instance.minimizer()
    s_end = trajectory.s_max

    def gap(s):
        return _ball_gap(trajectory.theta_at(min(s, s_end)), target, eta)

    if gap(0.0) <= 0.0:
        return 0.0
    lo, hi = 0.0, s_end if s_cap is None else s_cap
    if gap(hi) > 0.0:
        raise NotReached(hi)
    while hi - lo > HITTING_REL_ACCURACY * max(hi, 1e-300):
        mid = 0.5 * (lo + hi)
        if gap(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return hi * -trajectory.init.log_epsilon


def hitting_time(
    instance: ProblemInstance,
    init: Initialization,
    eta: float,
    s_cap: float,
    tol: float = DEFAULT_TOL,
) -> float:
    """Simulate and return the physical hitting time of the eta-ball
    around the unconstrained minimizer.

    Integration stops at the first accepted step that ends inside the
    closed ball; ``NotReached(s_cap)`` is raised if none does. The bisection
    still spans [0, s_cap]. Monotonicity is certified up to the stop only:
    a drop after the hit no longer raises ``MonotonicityViolated``.
    """
    target = instance.minimizer()
    if not eta < float(np.min(target)):
        raise DomainError(
            f"eta={eta:g} must be smaller than every minimizer coordinate "
            f"(min {float(np.min(target)):g})"
        )
    trajectory = simulate(instance, init, s_cap, s_grid=np.array([0.0, s_cap]),
                          tol=tol,
                          stop=lambda theta: _ball_gap(theta, target, eta) <= 0.0)
    return hitting_time_on(trajectory, eta, s_cap=s_cap)
