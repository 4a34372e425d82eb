import dataclasses

import numpy as np
import pytest

from conftest import random_instance
from dlnflow import (
    ProblemInstance,
    compute_path,
    convergence_time_s_star,
    from_data,
    generate_rejection,
    solve_qp_nonneg,
    theta_star_of_s,
)
from dlnflow.errors import (
    AtBreakpoint,
    DomainError,
    NegativePrimalOnSegment,
    NotKMatrix,
    OutOfRange,
    PathInconsistent,
    ValidationError,
)
from dlnflow.limit_path import _verify_segment
from dlnflow.problem import loss
from oracles import mu, solve_limit_lcp

ONES = np.ones(2)


@pytest.fixture
def scalar_instance():
    return ProblemInstance(M=[[1.0]], r=[1.0])


class TestPointwiseSolve:
    def test_small_s_keeps_zero(self, tridiag_instance):
        sol = solve_limit_lcp(tridiag_instance, ONES, s=1e-9)
        np.testing.assert_array_equal(sol.z, [0.0, 0.0])
        np.testing.assert_allclose(sol.w, ONES, atol=1e-8)

    def test_scalar_closed_form(self, scalar_instance):
        # For s beyond k/r the scalar solution is z = (s r - k)/M.
        sol = solve_limit_lcp(scalar_instance, [1.0], s=2.0)
        assert sol.z[0] == pytest.approx(1.0, abs=1e-12)
        assert sol.w[0] == pytest.approx(0.0, abs=1e-12)

    def test_full_support_region(self, tridiag_instance):
        s_star = convergence_time_s_star(tridiag_instance, ONES)
        s = s_star + 1.0
        sol = solve_limit_lcp(tridiag_instance, ONES, s)
        assert sol.support == (0, 1)
        expected = np.linalg.solve(
            tridiag_instance.M, s * tridiag_instance.r - ONES
        )
        np.testing.assert_allclose(sol.z, expected, atol=1e-10)

    def test_requires_positive_s(self, tridiag_instance):
        with pytest.raises(OutOfRange):
            solve_limit_lcp(tridiag_instance, ONES, 0.0)


class TestMu:
    def test_zero_before_first_activation(self, tridiag_instance):
        np.testing.assert_array_equal(mu(tridiag_instance, ONES, 0.3), [0.0, 0.0])

    def test_scalar_value(self, scalar_instance):
        assert mu(scalar_instance, [1.0], 2.0)[0] == pytest.approx(0.5)

    def test_matches_regularized_qp(self, rng):
        # The minimizer of f + <k, theta>/s equals the rescaled primal
        # solution; the projected-gradient solver is the independent route.
        for _ in range(10):
            inst = random_instance(rng, int(rng.integers(1, 6)))
            k = rng.uniform(0.5, 1.5, size=inst.d)
            s_star = convergence_time_s_star(inst, k)
            for s in rng.uniform(0.05, 1.4, size=4) * s_star:
                via_qp = solve_qp_nonneg(k / s - inst.r, inst.M)
                np.testing.assert_allclose(mu(inst, k, s), via_qp, atol=1e-8)


class TestComputePath:
    def test_scalar_single_breakpoint(self, scalar_instance):
        path = compute_path(scalar_instance, [1.0])
        np.testing.assert_allclose(path.breakpoints, [1.0])
        assert path.s_star == pytest.approx(1.0)
        assert [seg.active for seg in path.segments] == [(), (0,)]

    def test_separable_two_activations(self, separable_instance):
        # Activation times are k_i / r_i = 0.5 and 1.
        path = compute_path(separable_instance, ONES)
        np.testing.assert_allclose(path.breakpoints, [0.5, 1.0], atol=1e-14)
        assert [seg.active for seg in path.segments] == [(), (0,), (0, 1)]
        np.testing.assert_allclose(path.segments[1].theta_star, [2.0, 0.0])
        np.testing.assert_allclose(path.segments[2].theta_star, [2.0, 1.0])

    def test_tied_activations_join_together(self):
        inst = ProblemInstance(M=np.eye(2), r=[1.0, 1.0])
        path = compute_path(inst, ONES)
        np.testing.assert_allclose(path.breakpoints, [1.0])
        assert [seg.active for seg in path.segments] == [(), (0, 1)]

    @pytest.mark.parametrize("delta", [0.0, 1e-14, 1e-12, 1e-11, 1e-9])
    def test_near_tied_activations_all_join(self, delta):
        # An exchangeable block whose roots all lie within about delta of
        # each other: after each event, later roots can fall within the
        # breakpoint tolerance of it, and must join at that event.
        d = 64
        M = 1.5 * np.eye(d) - (0.5 / d) * np.ones((d, d))
        for seed in range(5):
            r = 1.0 + delta * np.random.default_rng(seed).normal(size=d)
            path = compute_path(ProblemInstance(M=M, r=r), np.ones(d))
            assert path.segments[-1].active == tuple(range(d))

    def test_nestedness_and_segment_count(self, rng):
        for _ in range(15):
            d = int(rng.integers(1, 7))
            inst = random_instance(rng, d)
            k = rng.uniform(0.5, 2.0, size=d)
            path = compute_path(inst, k)
            actives = [set(seg.active) for seg in path.segments]
            assert actives[0] == set()
            assert actives[-1] == set(range(d))
            for a, b in zip(actives, actives[1:]):
                assert a < b
            assert len(path.breakpoints) <= d

    def test_generic_instances_activate_one_at_a_time(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 6))
            inst = random_instance(rng, d)
            k = rng.uniform(0.5, 2.0, size=d)
            assert len(compute_path(inst, k).breakpoints) == d

    def test_matches_pointwise_solver(self, rng):
        inst = random_instance(rng, 5)
        k = rng.uniform(0.5, 2.0, size=5)
        path = compute_path(inst, k)
        for s in rng.uniform(1e-3, 1.3 * path.s_star, size=100):
            seg = path.segment_at(s)
            sol = solve_limit_lcp(inst, k, s)
            np.testing.assert_allclose(seg.z_at(s), sol.z, atol=1e-9)
            np.testing.assert_allclose(seg.w_at(s), sol.w, atol=1e-9)

    def test_mu_nondecreasing_on_dense_grid(self, rng):
        inst = random_instance(rng, 4)
        k = rng.uniform(0.5, 2.0, size=4)
        path = compute_path(inst, k)
        grid = np.linspace(1e-4, 1.5 * path.s_star, 400)
        _, values = path.sample(grid)
        assert np.min(np.diff(values, axis=0)) >= -1e-10

    def test_identification_z_equals_s_mu(self, separable_instance):
        # Breakpoints 0.5 and 1.0; each belongs to the segment it starts.
        path = compute_path(separable_instance, ONES)
        grid = np.concatenate([[0.0], path.breakpoints, [0.4, 0.9, 1.7]])
        theta, mu_vals = path.sample(grid)
        np.testing.assert_array_equal(mu_vals[0], [0.0, 0.0])
        for s, mu_s in zip(grid[1:], mu_vals[1:]):
            np.testing.assert_allclose(mu_s, mu(separable_instance, ONES, s),
                                       atol=1e-14)
            np.testing.assert_allclose(path.segment_at(s).z_at(s), s * mu_s,
                                       atol=1e-14)
        for j, segment in enumerate(path.segments[1:]):
            np.testing.assert_array_equal(theta[1 + j], segment.theta_star)
        np.testing.assert_array_equal(theta[-3:], [[0.0, 0.0], [2.0, 0.0],
                                                   [2.0, 1.0]])

    @pytest.mark.parametrize("grid", [[-1e-300, 1.0], [np.nan], [[0.5]], 0.5])
    def test_sample_needs_a_vector_of_nonnegative_s(self, tridiag_instance, grid):
        with pytest.raises(OutOfRange):
            compute_path(tridiag_instance, ONES).sample(grid)

    def test_positive_k_required(self, tridiag_instance):
        with pytest.raises(DomainError):
            compute_path(tridiag_instance, [1.0, 0.0])

    def test_fig2_regime_staircase(self):
        inst = from_data(generate_rejection(n=5, d=4, seed=20))
        k = np.ones(4)
        path = compute_path(inst, k)
        assert len(path.breakpoints) == 4
        assert len(path.segments) == 5
        # Loss staircase is strictly decreasing along activations.
        values = [loss(inst, seg.theta_star) for seg in path.segments]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestSegmentCertificate:
    """Corrupted segments of M = [[2,-1],[-1,2]], r = (1,2), k = 1.

    The path activates coordinate 1 at s = 1/2 and coordinate 0 at 3/4.
    """

    @pytest.fixture
    def path(self):
        inst = ProblemInstance(M=[[2.0, -1.0], [-1.0, 2.0]], r=[1.0, 2.0])
        return inst, compute_path(inst, ONES)

    def test_exact_segments_pass(self, path):
        inst, path = path
        assert [seg.active for seg in path.segments] == [(), (1,), (0, 1)]
        for seg in path.segments:
            _verify_segment(inst, ONES, seg)

    def test_perturbed_slope_rejected(self, path):
        inst, path = path
        seg = path.segments[1]
        bad = dataclasses.replace(seg, z_slope=seg.z_slope + [0.0, 1e-6])
        with pytest.raises(PathInconsistent, match="affine"):
            _verify_segment(inst, ONES, bad)

    def test_missed_activation_rejected(self, path):
        # The affine pieces of (1,) carried past s = 3/4, where 0 joins.
        inst, path = path
        last = path.segments[2]
        bad = dataclasses.replace(path.segments[1], s_lo=last.s_lo,
                                  s_hi=last.s_hi)
        with pytest.raises(PathInconsistent, match="negative_w [1-9]"):
            _verify_segment(inst, ONES, bad)

    def test_negative_primal_rejected(self, path):
        inst, path = path
        seg = path.segments[1]
        bad = dataclasses.replace(seg, z_intercept=seg.z_intercept - [0.0, 10.0])
        with pytest.raises(NegativePrimalOnSegment):
            _verify_segment(inst, ONES, bad)

    def test_singular_instance_rejected(self):
        # Construction certifies M, so no singular instance reaches the path.
        with pytest.raises(NotKMatrix):
            compute_path(ProblemInstance(M=[[1.0, -1.0], [-1.0, 1.0]],
                                         r=[1.0, 1.0]), ONES)


class TestConvergenceTime:
    def test_scalar(self, scalar_instance):
        assert convergence_time_s_star(scalar_instance, [1.0]) == pytest.approx(1.0)

    def test_separable_componentwise_max(self, separable_instance):
        assert convergence_time_s_star(separable_instance, ONES) == pytest.approx(
            1.0
        )

    def test_coupled_example(self, tridiag_instance):
        # M^{-1} k = (1,1) and M^{-1} r = (1,1) give max ratio 1.
        assert convergence_time_s_star(tridiag_instance, ONES) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_matches_last_breakpoint(self, rng):
        for _ in range(10):
            d = int(rng.integers(1, 7))
            inst = random_instance(rng, d)
            k = rng.uniform(0.5, 2.0, size=d)
            s_star = convergence_time_s_star(inst, k)
            last = compute_path(inst, k).breakpoints[-1]
            assert abs(last - s_star) <= 1e-9 * max(1.0, s_star)

    def test_path_certifies_s_star(self, tridiag_instance, monkeypatch):
        # The path's s* is what every caller reads, so compute_path itself
        # cross-checks it against the closed form; a 1% error must fail.
        assert convergence_time_s_star(tridiag_instance, ONES) == \
            compute_path(tridiag_instance, ONES).s_star
        solve = ProblemInstance.solve
        monkeypatch.setattr(ProblemInstance, "solve",
                            lambda self, b: 1.01 * solve(self, b))
        with pytest.raises(PathInconsistent, match="closed form"):
            compute_path(tridiag_instance, ONES)

    @pytest.mark.parametrize("k", [[np.inf, 1.0], [1.0, np.nan], [1.0], "ab"])
    def test_malformed_k_rejected(self, tridiag_instance, k):
        with pytest.raises(ValidationError):
            compute_path(tridiag_instance, k)


class TestThetaStarOfS:
    def test_zero_before_first_breakpoint(self, separable_instance):
        path = compute_path(separable_instance, ONES)
        np.testing.assert_array_equal(theta_star_of_s(path, 0.25), [0.0, 0.0])

    def test_minimizer_after_s_star(self, separable_instance):
        path = compute_path(separable_instance, ONES)
        np.testing.assert_allclose(theta_star_of_s(path, 1.2), [2.0, 1.0])

    def test_intermediate_segment(self, separable_instance):
        path = compute_path(separable_instance, ONES)
        np.testing.assert_allclose(theta_star_of_s(path, 0.75), [2.0, 0.0])

    def test_breakpoint_refused(self, separable_instance):
        path = compute_path(separable_instance, ONES)
        with pytest.raises(AtBreakpoint):
            theta_star_of_s(path, 0.5)
        with pytest.raises(AtBreakpoint):
            theta_star_of_s(path, 1.0 + 1e-14)

    def test_nonpositive_refused(self, separable_instance):
        path = compute_path(separable_instance, ONES)
        # NaN passes a test of s <= 0 and once read as a time past s*.
        for s in (0.0, np.nan):
            with pytest.raises(OutOfRange):
                theta_star_of_s(path, s)
            with pytest.raises(OutOfRange):
                path.segment_at(s)
