import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from conftest import (
    hit_or_not_reached,
    hitting_stop,
    random_instance,
    recorded_integrate,
    scalar_logistic,
)
from dlnflow import (
    Initialization,
    ProblemInstance,
    compute_path,
    dynamics,
    fixed_point,
    generate_direct,
    hitting_time,
    hitting_time_on,
    simulate,
)
from dlnflow.dynamics import DEFAULT_TOL, _ball_gap
from dlnflow.errors import (
    DomainError,
    MonotonicityViolated,
    NotReached,
    OutOfRange,
)
from dlnflow.integrate import DenseOutput, IntegratorStats, flow_product, integrate
from oracles import hitting_time_reference, in_invariant_region, lyapunov

TIGHT_TOL = 1e-11


@pytest.fixture
def scalar_instance():
    return ProblemInstance(M=[[1.0]], r=[1.0])


def make_init(d, epsilon, C=None, k=None):
    return Initialization(
        C=np.ones(d) if C is None else np.asarray(C, dtype=float),
        k=np.ones(d) if k is None else np.asarray(k, dtype=float),
        epsilon=epsilon,
    )


class TestSimulateOracles:
    def test_scalar_logistic_terminal_value(self, scalar_instance):
        traj = simulate(scalar_instance, make_init(1, 1e-12), s_max=2.0)
        assert abs(traj.theta[-1, 0] - 1.0) < 1e-4

    def test_scalar_logistic_closed_form(self, scalar_instance):
        init = make_init(1, 1e-12)
        traj = simulate(scalar_instance, init, s_max=2.0, tol=TIGHT_TOL)
        exact = scalar_logistic(traj.t, 1e-12)
        np.testing.assert_allclose(traj.theta[:, 0], exact, atol=1e-8)

    def test_separable_coordinates_match_logistics(self):
        # With identity covariance each coordinate is an independent logistic
        # with rate r_i and limit r_i.
        r = np.array([2.0, 1.0, 0.5])
        inst = ProblemInstance(M=np.eye(3), r=r)
        init = make_init(3, 1e-10)
        traj = simulate(inst, init, s_max=3.0, tol=TIGHT_TOL)
        for i in range(3):
            exact = scalar_logistic(traj.t, 1e-10, rate=r[i], limit=r[i])
            np.testing.assert_allclose(traj.theta[:, i], exact, atol=1e-8)

    def test_order_of_accuracy_against_logistic(self, scalar_instance):
        init = make_init(1, 1e-12)
        errors = []
        for tol in [1e-6, 1e-8, 1e-10, 1e-12]:
            traj = simulate(scalar_instance, init, s_max=2.0, tol=tol)
            exact = scalar_logistic(traj.t, 1e-12)
            errors.append(float(np.max(np.abs(traj.theta[:, 0] - exact))))
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] < errors[0] * 1e-3

    # d = 32 at eps = 1e-300 is the regime of the hitting-time benchmark.
    @pytest.mark.parametrize("d, eps", [(d, eps) for d in (3, 8)
                                        for eps in (1e-12, 1e-100, 1e-300)]
                             + [(32, 1e-300)])
    def test_matches_an_independent_integrator(self, d, eps):
        # scipy's DOP853 at rtol = atol = 1e-13 on the same flow in w shares
        # no code with simulate's integrator. An error of order tol in w is
        # one of |log eps| * tol * theta in theta (README, numerical notes).
        inst, _ = generate_direct(d, 5)
        C, k = np.random.default_rng(d).uniform(0.5, 2.0, size=(2, d))
        init = Initialization(C=C, k=k, epsilon=eps)
        grid = np.linspace(0.0, 1.5 * compute_path(inst, k).s_star, 31)
        traj = simulate(inst, init, grid[-1], s_grid=grid)

        log_eps, M, r = init.log_epsilon, inst.M, inst.r
        # A step of more than a few units of physical time t = s |log eps|
        # takes trial stages far enough past theta* to overflow exp.
        ref = solve_ivp(lambda s, w: M @ np.exp(w * log_eps) - r,
                        (0.0, grid[-1]), init.w0, method="DOP853", rtol=1e-13,
                        atol=1e-13, t_eval=grid, max_step=10.0 / -log_eps)
        assert ref.success
        error = np.max(np.abs(traj.theta - np.exp(ref.y.T * log_eps)))
        assert error <= -log_eps * DEFAULT_TOL * np.max(inst.minimizer())


def stability_cap(inst, init):
    """The ``max_step`` that ``simulate(inst, init, ...)`` hands to
    ``integrate``, read without integrating."""
    with recorded_integrate(run=False) as calls:
        simulate(inst, init, 1.0)
    return calls[0]["max_step"]


class TestStabilityCap:
    @pytest.mark.parametrize("case", ["d32-eps1e-300", "start-above-minimizer"])
    def test_componentwise_formula(self, case):
        if case == "d32-eps1e-300":
            inst, _ = generate_direct(32, 3)
            C, k = np.random.default_rng(3).uniform(0.5, 2.0, size=(2, 32))
            init = Initialization(C=C, k=k, epsilon=1e-300)
        else:
            # theta(0) = (5, 0.05) against theta* = (1, 1): the cap takes
            # the larger value in each coordinate.
            inst = ProblemInstance(M=[[2.0, -1.0], [-1.0, 2.0]], r=[1.0, 1.0])
            init = make_init(2, 0.5, C=[10.0, 0.1])
        log_eps = np.log(init.epsilon)
        theta_cap = np.maximum(inst.minimizer(), init.C * np.exp(init.k * log_eps))
        root = np.diag(np.sqrt(theta_cap))
        expected = 2.8 / (-log_eps * np.linalg.eigvalsh(root @ inst.M @ root)[-1])
        assert stability_cap(inst, init) == pytest.approx(expected, rel=1e-12)

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.floats(-300.0, -1.0))
    def test_between_the_scalar_and_the_diagonal_bounds(self, d, seed, log10_eps):
        # lambda_max(D^1/2 M D^1/2) lies between max_i M_ii D_ii and
        # lambda_max(M) max D, so the cap is never shorter than the scalar
        # bound 2.8 / (|log eps| lambda_max(M) max theta_cap).
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, d)
        C, k = rng.uniform(0.5, 2.0, size=(2, d))
        init = Initialization(C=C, k=k, epsilon=10.0 ** log10_eps)
        rate = -init.log_epsilon
        theta_cap = np.maximum(inst.minimizer(), C * np.exp(-k * rate))
        cap = stability_cap(inst, init)
        scalar = 2.8 / (rate * np.linalg.eigvalsh(inst.M)[-1] * np.max(theta_cap))
        diagonal = 2.8 / (rate * np.max(np.diag(inst.M) * theta_cap))
        assert scalar * (1.0 - 1e-12) <= cap <= diagonal * (1.0 + 1e-12)


class TestTrajectoryStructure:
    def test_coordinate_systems_consistent(self, separable_instance):
        init = make_init(2, 1e-8)
        traj = simulate(separable_instance, init, s_max=1.5)
        np.testing.assert_allclose(
            traj.theta, np.exp(traj.w * init.log_epsilon), rtol=1e-12
        )
        np.testing.assert_allclose(traj.t, traj.s * np.log(1e8), rtol=1e-12)
        assert np.all(np.diff(traj.s) > 0)

    def test_custom_grid(self, separable_instance):
        grid = np.array([0.0, 0.4, 0.8, 1.2])
        traj = simulate(separable_instance, make_init(2, 1e-8), 1.2, s_grid=grid)
        np.testing.assert_array_equal(traj.s, grid)
        assert len(traj) == 4

    def test_grid_sampled_under_the_dense_output_rule(self, separable_instance):
        # The grid may end a relative 1e-12 past s_max, where the dense
        # output reads the value at s_max.
        traj = simulate(separable_instance, make_init(2, 1e-8), 10.0,
                        s_grid=[0.0, 5.0, 10.0 * (1 + 1e-12)])
        assert len(traj) == 3 and traj.s_max == 10.0
        np.testing.assert_allclose(traj.w[-1], traj.w_at(10.0), rtol=0, atol=1e-15)
        with pytest.raises(OutOfRange):
            traj.w_at(10.0 * (1 + 1e-11))

    def test_bad_grid_rejected(self, separable_instance):
        init = make_init(2, 1e-8)
        with pytest.raises(OutOfRange):
            simulate(separable_instance, init, 1.0, s_grid=np.array([0.0, 2.0]))
        with pytest.raises(OutOfRange):
            simulate(separable_instance, init, 1.0, s_grid=np.array([0.5, 0.2]))

    @pytest.mark.parametrize("s_max, tol, error", [
        (np.nan, 1e-9, OutOfRange), (np.inf, 1e-9, OutOfRange),
        (0.0, 1e-9, OutOfRange), (1.0, 0.0, DomainError),
        (1.0, np.nan, DomainError), (1.0, np.inf, DomainError),
        (1.0, -1.0, DomainError),
    ])
    def test_span_and_tolerance_checked_first(self, separable_instance,
                                              s_max, tol, error):
        init = make_init(2, 1e-8)
        with pytest.raises(error):
            simulate(separable_instance, init, s_max, s_grid=[0.0, 0.5], tol=tol)

    # hitting_time once solved with the initialization's k before any check,
    # and raised scipy's ValueError.
    @pytest.mark.parametrize("run", [
        lambda instance, init: simulate(instance, init, 1.0),
        lambda instance, init: hitting_time(instance, init, 0.1, 1.0),
    ], ids=["simulate", "hitting_time"])
    def test_dimension_mismatch(self, separable_instance, run):
        with pytest.raises(DomainError,
                           match="initialization has dimension 3, instance has 2"):
            run(separable_instance, make_init(3, 1e-8))

    def test_stats_exposed(self, separable_instance, monkeypatch):
        # rhs_evaluations counts every product with the flow: one before the
        # first step, six per attempted step and one at each jump's end. The
        # run to s = 15 jumps over its converged tail.
        products = []

        def counted(*args):
            f = flow_product(*args)
            return lambda x, out: products.append(x) or f(x, out)

        monkeypatch.setattr(dynamics, "flow_product", counted)
        for s_max, jumps in ((1.5, 0), (15.0, 1)):
            products.clear()
            stats = simulate(separable_instance, make_init(2, 1e-8), s_max).stats
            assert stats.steps > 0
            assert stats.max_step > 0
            assert stats.jumps == jumps
            assert stats.rhs_evaluations == len(products) == (
                1 + 6 * (stats.steps + stats.rejected) + stats.jumps)


class TestQuietStretches:
    """simulate jumps over the quiet stretches of a run in closed form."""

    def test_the_converged_tail_is_one_jump(self):
        # `gen --d 4 --seed 7` at eps = 1e-300 has converged by s = 10, so
        # longer runs take the same steps and end on M^{-1} r. Without jumps
        # the run to s = 1000 takes 294,913 steps.
        inst, _ = generate_direct(4, 7)
        with recorded_integrate(budget=1000):
            runs = [simulate(inst, make_init(4, 1e-300), s_max)
                    for s_max in (10.0, 100.0, 1000.0)]
        assert len({(t.stats.steps, t.stats.rejected, t.stats.jumps) for t in runs}) == 1
        for traj in runs:
            assert np.max(np.abs(traj.theta[-1] - inst.minimizer())) <= 1e-12

    def test_a_drop_on_the_first_step_raises_after_a_short_run(self, tridiag_instance):
        # theta(0) = (5, 5) lies outside the invariant region, so the first
        # step drops. The certificate reads the run once its span is
        # integrated, and the converged tail to s = 1000 is one jump.
        init = make_init(2, 0.5, C=[10.0, 10.0])
        with recorded_integrate(budget=1000), pytest.raises(
                MonotonicityViolated, match=r"^theta_0 decreased .* over \[0, "):
            simulate(tridiag_instance, init, 1e3)


class TestDynamicsInvariants:
    @pytest.fixture
    def coupled_trajectory(self, tridiag_instance):
        return simulate(
            tridiag_instance, make_init(2, 1e-12), s_max=2.5, tol=TIGHT_TOL
        )

    def test_coordinates_nondecreasing(self, coupled_trajectory):
        assert np.min(np.diff(coupled_trajectory.theta, axis=0)) >= -1e-10

    def test_loss_nonincreasing(self, coupled_trajectory):
        assert np.max(np.diff(coupled_trajectory.loss_values())) <= 1e-10

    def test_samples_stay_in_invariant_region(self, coupled_trajectory):
        inst = coupled_trajectory.instance
        assert all(
            in_invariant_region(inst, th) for th in coupled_trajectory.theta
        )

    def test_uniform_boundedness_across_epsilons(self, separable_instance):
        sups = []
        for eps in [1e-4, 1e-8, 1e-12, 1e-16, 1e-20]:
            traj = simulate(separable_instance, make_init(2, eps), 2.0,
                            tol=TIGHT_TOL)
            sups.append(float(np.max(np.linalg.norm(traj.theta, axis=1))))
        assert sups[-1] <= 1.01 * min(sups[:-1])

    def test_monotonicity_violation_reported(self, tridiag_instance):
        # theta(0) = (1, 2.5) starts outside the invariant region, so the flow
        # genuinely decreases and must be reported rather than continued.
        # The report names the first step that drops too far, whatever the
        # span. At this loose tol the attempt at the step cap is rejected, and
        # the second step, four times as long, drops theta_1 by 0.609: the
        # run's largest drop is not its first.
        init = make_init(2, 0.05, C=[20.0, 50.0])
        message = ("theta_1 decreased by 5.186e-01 over [0, 0.0329139]; "
                   "epsilon=0.05 is too large for monotone dynamics")
        for s_max in (1.0, 3.0):
            with recorded_integrate() as calls, pytest.raises(
                    MonotonicityViolated, match=f"^{re.escape(message)}$"):
                simulate(tridiag_instance, init, s_max=s_max, tol=1e-2)
            args = {**calls[0]}
            del args["steps"]
            theta = np.exp(integrate(**args).step_ends[1])
            drops = (theta[:-1] - theta[1:]).max(axis=1)
            assert drops[0] < drops.max()


class TestInvariantRegion:
    def test_origin_inside(self, tridiag_instance):
        assert in_invariant_region(tridiag_instance, [0.0, 0.0])

    def test_minimizer_on_boundary(self, tridiag_instance):
        assert in_invariant_region(tridiag_instance, tridiag_instance.minimizer())

    def test_beyond_minimizer_outside(self, tridiag_instance):
        assert not in_invariant_region(
            tridiag_instance, 2.0 * tridiag_instance.minimizer()
        )

    def test_negative_theta_outside(self, tridiag_instance):
        assert not in_invariant_region(tridiag_instance, [-0.1, 0.0])


class TestAverage:
    def test_vanishes_at_small_s(self, scalar_instance):
        traj = simulate(scalar_instance, make_init(1, 1e-12), 2.0)
        assert traj.average(1e-6)[0] < 1e-6

    def test_scalar_value_near_limit(self, scalar_instance):
        # mu(2) = (2*1 - 1)/(2*1) = 0.5 for the scalar problem.
        traj = simulate(scalar_instance, make_init(1, 1e-12), 2.0, tol=TIGHT_TOL)
        assert abs(traj.average(2.0)[0] - 0.5) < 5e-2

    def test_componentwise_nondecreasing(self, separable_instance):
        traj = simulate(separable_instance, make_init(2, 1e-10), 2.0,
                        tol=TIGHT_TOL)
        grid = np.linspace(0.05, 2.0, 100)
        values = traj.average(grid)
        assert np.min(np.diff(values, axis=0)) >= -1e-12

    def test_out_of_range(self, scalar_instance):
        traj = simulate(scalar_instance, make_init(1, 1e-12), 1.0)
        with pytest.raises(OutOfRange):
            traj.average(0.0)
        with pytest.raises(OutOfRange):
            traj.average(1.5)


def theta_at_squared_distance(target, S):
    """A theta whose sum of squared differences from the 2-vector ``target``,
    as numpy forms it, is the double ``S``. The first coordinate takes all
    but about 1e-12 of S; the second is bisected over the doubles above its
    target, where one ulp moves the sum by far less than an ulp of S."""
    theta = target + [np.sqrt(S) * (1.0 - 1e-12), 0.0]
    lo, hi = target[1], target[1] + 4e-6 * np.sqrt(S)

    def sum_at(x):
        return np.square(np.array([theta[0], x]) - target).sum()

    while np.nextafter(lo, np.inf) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if sum_at(mid) < S else (lo, mid)
    theta[1] = hi
    return theta


class TestHittingTime:
    def test_scalar_against_closed_form(self, scalar_instance):
        theta0, eta = 1e-10, 0.2
        tau = hitting_time(scalar_instance, make_init(1, theta0), eta,
                           s_cap=2.0, tol=TIGHT_TOL)
        exact = np.log((1 - theta0) * (1 - eta) / (theta0 * eta))
        assert tau == pytest.approx(exact, rel=1e-5)

    def test_scalar_ratio_approaches_one(self, scalar_instance):
        gaps = []
        for eps in [1e-8, 1e-14, 1e-20]:
            tau = hitting_time(scalar_instance, make_init(1, eps), 0.1,
                               s_cap=2.0, tol=TIGHT_TOL)
            gaps.append(abs(tau / np.log(1 / eps) - 1.0))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_separable_limit_is_worst_ratio(self, separable_instance):
        # Activation times k_i / r_i = (0.5, 1); the slower coordinate rules.
        init = make_init(2, 1e-20)
        tau = hitting_time(separable_instance, init, 0.05, s_cap=3.0,
                           tol=TIGHT_TOL)
        assert tau / np.log(1e20) == pytest.approx(1.0, rel=0.1)

    def test_eta_precondition(self, separable_instance):
        # Both entry points require 0 < eta < min(M^{-1} r) = 1, and
        # hitting_time checks it before it integrates.
        init = make_init(2, 1e-10)
        traj = simulate(separable_instance, init, 2.0)
        for eta in (-0.1, 0.0, np.nan, 1.0, 1.5):
            with pytest.raises(DomainError):
                hitting_time_on(traj, eta)
            with recorded_integrate() as calls, pytest.raises(DomainError):
                hitting_time(separable_instance, init, eta, s_cap=2.0)
            assert calls == []

    def test_not_reached(self, scalar_instance):
        with pytest.raises(NotReached):
            hitting_time(scalar_instance, make_init(1, 1e-10), 0.1, s_cap=0.5)

    @pytest.mark.parametrize("s_cap", [2.0, 3.0, 6.0])
    def test_scan_matches_full_run(self, separable_instance, s_cap):
        # The hit is near s = 1; runs to any cap past it take the same steps
        # up to it, and hitting_time stops there and roots the same step.
        init = make_init(2, 1e-12)
        traj = simulate(separable_instance, init, 3.0, tol=TIGHT_TOL)
        tau_scan = hitting_time_on(traj, 0.05)
        tau_full = hitting_time(separable_instance, init, 0.05, s_cap=s_cap,
                                tol=TIGHT_TOL)
        assert tau_scan == tau_full

    @pytest.mark.parametrize("eta", [0.1, 0.7, 1e-3])
    def test_the_stop_is_exact_at_the_squared_radius(self, eta):
        # At sums of squares eta * eta and one ulp either side, hitting_time's
        # stop decides as the gap the scan reads: the radius is inside.
        t = eta * eta
        target = np.array([1.0, 2.0])
        stop = hitting_stop(target, eta)
        for S, expected in ((np.nextafter(t, 0.0), True), (t, True),
                            (np.nextafter(t, np.inf), False)):
            theta = theta_at_squared_distance(target, S)
            assert np.square(theta - target).sum() == S
            gap = _ball_gap(np.array([theta, target, theta]), target, eta)[0]
            assert bool(stop(theta)) == expected == (gap <= 0.0)

    def test_start_inside_the_ball_is_time_zero(self, scalar_instance):
        # theta(0) = 0.96 lies within 0.1 of the minimizer 1.
        init = make_init(1, 0.96)
        traj = simulate(scalar_instance, init, 1.0)
        assert hitting_time_on(traj, 0.1) == 0.0
        assert hitting_time(scalar_instance, init, 0.1, s_cap=1.0) == 0.0

    @pytest.mark.parametrize("theta_ends, hit", [
        # A step outside the ball, then a jump's linear row into it: the
        # root lies strictly inside the jump.
        ([[1e-3, 1e-3], [1.0, 0.5], [1.9, 0.95]], "in the jump"),
        ([[1.9, 0.95], [1.0, 0.5], [1.9, 0.95]], 0.0),
        ([[1e-3, 1e-3], [1.0, 0.5], [1.2, 0.6]], "not reached"),
    ])
    def test_the_root_on_a_hand_built_row_is_the_reference(self, separable_instance,
                                                           theta_ends, hit):
        # Knots 0, 0.6 and 1.5 of a dense output built by hand: a step's
        # quartic row, then a jump's linear row (u, du, 0, 0, 0). The ball of
        # radius 0.5 is around the minimizer (2, 1).
        u = np.log(theta_ends)
        rows = np.array([[u[0], u[1] - u[0], [0.1, -0.2], [-0.05, 0.3], [0.02, 0.01]],
                         [u[1], u[2] - u[1], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]])
        knots = np.array([0.0, 0.6, 1.5])
        init = make_init(2, 1e-10)
        traj = dynamics.Trajectory(separable_instance, init, knots,
                                   DenseOutput(knots, rows, IntegratorStats()))
        tau = hit_or_not_reached(hitting_time_on, traj, 0.5)
        assert tau == hit_or_not_reached(hitting_time_reference, traj, 0.5)
        if hit == "in the jump":
            assert 0.6 < tau / -init.log_epsilon < 1.5
        else:
            assert tau == hit

    def test_stop_ends_the_run_at_the_hit(self, separable_instance):
        init = make_init(2, 1e-12)
        target = separable_instance.minimizer()

        def inside(theta):
            return np.linalg.norm(theta - target) <= 0.05

        full = simulate(separable_instance, init, 3.0)
        stopped = simulate(separable_instance, init, 3.0, stop=inside)
        assert stopped.s_max < 3.0
        assert stopped.stats.steps < full.stats.steps
        assert inside(stopped.theta_at(stopped.s_max))
        # The grid is sampled up to the stop, as in the full run.
        assert 0 < len(stopped) < len(full)
        assert stopped.s[-1] <= stopped.s_max
        np.testing.assert_array_equal(stopped.theta, full.theta[:len(stopped)])

    @pytest.mark.parametrize("d, eps", [(8, 1e-12), (32, 1e-300)])
    def test_step_theta_is_the_trajectory_theta(self, d, eps):
        # simulate hands its stop to integrate, which calls it with the
        # step's last stage as theta, at every step end and jump end;
        # hitting_time_on then scans the trajectory's theta at those ends for
        # the first inside the ball, so the two must agree bit for bit. A run
        # without a stop has no hook.
        inst, _ = generate_direct(d, 5)
        C, k = np.random.default_rng(d).uniform(0.5, 2.0, size=(2, d))
        init = Initialization(C=C, k=k, epsilon=eps)
        target = inst.minimizer()
        eta = 0.1 * float(np.min(target))
        s_max = 1.5 * compute_path(inst, k).s_star
        with recorded_integrate() as calls:
            traj = simulate(inst, init, s_max,
                            stop=lambda theta: np.linalg.norm(theta - target) <= eta)
            simulate(inst, init, s_max)
        steps = calls[0]["steps"]
        assert traj.s_max < s_max
        assert len(steps) == traj.stats.steps + traj.stats.jumps
        np.testing.assert_array_equal(steps, traj.theta_knots[1:])
        np.testing.assert_array_equal(traj.theta_at(traj.knots), traj.theta_knots)
        assert not (traj.knots.flags.writeable or traj.theta_knots.flags.writeable)
        assert calls[1]["step_callback"] is None and calls[1]["steps"] == []

    def test_drop_before_the_hit_raises(self, tridiag_instance):
        # theta(0) = (5, 5) lies outside the invariant region and the ball,
        # so the first steps decrease theta before any can end inside.
        init = make_init(2, 0.5, C=[10.0, 10.0])
        eta = 0.1 * float(np.min(tridiag_instance.minimizer()))
        with pytest.raises(MonotonicityViolated):
            hitting_time(tridiag_instance, init, eta, s_cap=1.0)

    def test_drop_on_the_stopping_step_raises(self, tridiag_instance):
        # theta(0) = (1.02, 0.98) lies outside the invariant region, at a gap
        # of 0.0283 from theta* = (1, 1); the first step drops theta_0 and
        # ends inside the ball, so the run stops on the step that drops.
        init = make_init(2, 0.5, C=[2.04, 1.96])
        message = ("theta_0 decreased by 2.241e-03 over [0, 0.0560586]; "
                   "epsilon=0.5 is too large for monotone dynamics")
        with recorded_integrate() as calls, pytest.raises(
                MonotonicityViolated, match=f"^{re.escape(message)}$"):
            hitting_time(tridiag_instance, init, 0.028, s_cap=1.0)
        assert len(calls[0]["steps"]) == 1


class TestLyapunov:
    def test_empty_support_is_zero(self, tridiag_instance):
        fp = fixed_point(tridiag_instance, [])
        assert lyapunov([0.3, 0.7], fp) == 0.0

    def test_stationary_value_and_flatness(self, tridiag_instance):
        fp = fixed_point(tridiag_instance, [0, 1])
        expected = float(
            np.sum(fp.theta - fp.theta * np.log(fp.theta))
        )
        assert lyapunov(fp.theta, fp) == pytest.approx(expected, rel=1e-12)
        # Restricted gradient 1 - theta*_i / theta_i vanishes at theta*.
        step = 1e-7
        for i in range(2):
            e = np.zeros(2)
            e[i] = step
            diff = (lyapunov(fp.theta + e, fp) - lyapunov(fp.theta - e, fp)) / (
                2 * step
            )
            assert abs(diff) < 1e-6

    def test_domain_error(self, tridiag_instance):
        fp = fixed_point(tridiag_instance, [0])
        with pytest.raises(DomainError):
            lyapunov([0.0, 1.0], fp)

    def test_plateau_change_shrinks_with_epsilon(self, separable_instance):
        # Between activation times the energy change per unit of log(1/eps)
        # must vanish as eps does.
        fp = fixed_point(separable_instance, [0])
        ratios = []
        for eps in [1e-6, 1e-12, 1e-20]:
            init = make_init(2, eps)
            traj = simulate(separable_instance, init, 1.0, tol=TIGHT_TOL)
            v0 = lyapunov(traj.theta_at(0.65), fp)
            v1 = lyapunov(traj.theta_at(0.85), fp)
            ratios.append(abs(v1 - v0) / np.log(1.0 / eps))
        assert ratios[0] > ratios[1] > ratios[2]
