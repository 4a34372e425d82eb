import numpy as np
import pytest

from conftest import scalar_logistic
from dlnflow import (
    Initialization,
    ProblemInstance,
    fixed_point,
    hitting_time,
    hitting_time_on,
    loss,
    simulate,
)
from dlnflow.errors import (
    DomainError,
    MonotonicityViolated,
    NotReached,
    OutOfRange,
)
from oracles import in_invariant_region, lyapunov

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

    def test_dimension_mismatch(self, separable_instance):
        with pytest.raises(DomainError):
            simulate(separable_instance, make_init(3, 1e-8), 1.0)

    def test_stats_exposed(self, separable_instance):
        traj = simulate(separable_instance, make_init(2, 1e-8), 1.5)
        assert traj.stats.steps > 0
        assert traj.stats.max_step > 0


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
        # theta(0) = (5, 5) starts outside the invariant region, so the flow
        # genuinely decreases and must be reported rather than continued.
        init = make_init(2, 0.5, C=[10.0, 10.0])
        with pytest.raises(MonotonicityViolated):
            simulate(tridiag_instance, init, s_max=1.0)


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
        with pytest.raises(DomainError):
            hitting_time(separable_instance, make_init(2, 1e-10), eta=1.5,
                         s_cap=2.0)

    def test_not_reached(self, scalar_instance):
        with pytest.raises(NotReached):
            hitting_time(scalar_instance, make_init(1, 1e-10), 0.1, s_cap=0.5)

    def test_scan_matches_full_run(self, separable_instance):
        init = make_init(2, 1e-12)
        traj = simulate(separable_instance, init, 3.0, tol=TIGHT_TOL)
        tau_scan = hitting_time_on(traj, 0.05)
        tau_full = hitting_time(separable_instance, init, 0.05, s_cap=3.0,
                                tol=TIGHT_TOL)
        assert tau_scan == pytest.approx(tau_full, rel=1e-6)


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
