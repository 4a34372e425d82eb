import dataclasses
import re

import numpy as np
import pytest

from conftest import random_instance
from dlnflow import lcp
from dlnflow import (
    ProblemInstance,
    compute_path,
    convergence_time_s_star,
    from_data,
    generate_direct,
    generate_rejection,
    solve_qp_nonneg,
    theta_star_of_s,
)
from dlnflow.errors import (
    AtBreakpoint,
    DomainError,
    NotKMatrix,
    OutOfRange,
    PathInconsistent,
    PositivityViolation,
    ValidationError,
)
from dlnflow.limit_path import _certify_path
from dlnflow.problem import loss
from oracles import mu, solve_limit_lcp, verify_path

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

    @pytest.mark.parametrize("scale", [1.0, 1e-11, 1e-13, 1e-200])
    def test_small_k_gives_the_rescaled_path(self, scale):
        # Joins, ties and the s* check are relative to the breakpoint: at
        # k = 1e-11 coordinates (1, 3, 4) used to activate at once, and at
        # k = 1e-13 the whole path collapsed to s* = 0.
        inst, _ = generate_direct(6, 3)
        path = compute_path(inst, scale * np.ones(6))
        assert [seg.active for seg in path.segments][:3] == [(), (4,), (1, 4)]
        assert len(path.segments) == 7
        np.testing.assert_allclose(path.breakpoints / scale,
                                   compute_path(inst, np.ones(6)).breakpoints,
                                   rtol=1e-12)

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

    @pytest.mark.parametrize("d", [6, 16])
    @pytest.mark.parametrize("delta, head, late, breakpoints", [
        # Roots within a relative 1e-12 of the earliest join its breakpoint.
        (0.0, 1.0, "none", [1.0]),
        (1e-15, 1.0, "none", [1.0]),
        (1e-13, 1.0, "none", [1.0]),
        # Coordinate 0's root lies beyond that, so it joins alone, later.
        (1e-11, 1.0, "coordinate 0", None),
        (1e-9, 1.0, "coordinate 0", None),
        # Two equal blocks: the first half joins at 1 + 0.8 / 1.1.
        (0.0, 2.0, "first half", [1.0, 1.7272727272727273]),
    ])
    def test_exchangeable_tie_table(self, d, delta, head, late, breakpoints):
        # M = 1.1 I - (0.6 / d) 11^T with r = 1, k = head on the first half
        # and 1 on the second, and k_0 scaled by 1 + delta. Permuting the
        # coordinates permutes the active sets and keeps every breakpoint
        # bit for bit.
        M = 1.1 * np.eye(d) - (0.6 / d) * np.ones((d, d))
        k = np.where(np.arange(d) < d // 2, head, 1.0)
        k[0] *= 1.0 + delta
        path = compute_path(ProblemInstance(M=M, r=np.ones(d)), k)
        n_late = {"none": 0, "coordinate 0": 1, "first half": d // 2}[late]
        actives = [(), tuple(range(n_late, d)), tuple(range(d))]
        assert [seg.active for seg in path.segments] == (
            actives if n_late else actives[::2])
        if breakpoints is None:
            # Past s = 1, w_0 = delta - (s - 1) (1 + c) exactly.
            c = 0.6 * (d - 1) / (0.5 * d + 0.6)
            np.testing.assert_allclose(path.breakpoints,
                                       [1.0, 1.0 + delta / (1.0 + c)],
                                       rtol=1e-15, atol=1e-15)
        else:
            np.testing.assert_array_equal(path.breakpoints, breakpoints)
        rng = np.random.default_rng(d)
        for _ in range(20):
            perm = rng.permutation(d)
            where = np.argsort(perm)
            permuted = compute_path(ProblemInstance(M=M[perm][:, perm],
                                                    r=np.ones(d)), k[perm])
            np.testing.assert_array_equal(permuted.breakpoints, path.breakpoints)
            assert [seg.active for seg in permuted.segments] == [
                tuple(sorted(where[list(seg.active)].tolist()))
                for seg in path.segments]

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
        grid = rng.uniform(1e-3, 1.3 * path.s_star, size=100)
        for s, z in zip(grid, grid[:, None] * path.sample(grid)[1]):
            sol = solve_limit_lcp(inst, k, s)
            np.testing.assert_allclose(z, sol.z, atol=1e-9)
            np.testing.assert_allclose(k - s * inst.r + inst.M @ z, sol.w,
                                       atol=1e-9)

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
            seg = path.segments[np.searchsorted(path.breakpoints, s, side="right")]
            np.testing.assert_allclose(seg.z_intercept + s * seg.theta_star,
                                       s * mu_s, atol=1e-14)
        for j, segment in enumerate(path.segments[1:]):
            np.testing.assert_array_equal(theta[1 + j], segment.theta_star)
        np.testing.assert_array_equal(theta[-3:], [[0.0, 0.0], [2.0, 0.0],
                                                   [2.0, 1.0]])

    @pytest.mark.parametrize("grid", [[-1e-300, 1.0], [np.nan], [[0.5]], 0.5,
                                      [1.0, np.inf]])
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

    @pytest.mark.parametrize("scale", [1e-12, 1e-100, 1e-200])
    @pytest.mark.parametrize("scaled", ["r and k", "M"])
    def test_rescaled_instance_keeps_s_star(self, scaled, scale):
        # The path of (a M, b r, c k) has its breakpoints scaled by c / b, so
        # s* stays put under these scalings, and every stationary point must
        # pass its positivity certificate at any unit of M or r.
        inst, _ = generate_direct(6, 3)
        k = np.ones(6)
        s_star = compute_path(inst, k).s_star
        if scaled == "M":
            inst = ProblemInstance(M=inst.M / scale, r=inst.r)
        else:
            inst, k = ProblemInstance(M=inst.M, r=scale * inst.r), scale * k
        assert compute_path(inst, k).s_star == pytest.approx(s_star, rel=1e-12)
        assert s_star == pytest.approx(1.36448398625, rel=1e-11)


class TestSegmentCertificate:
    """Corrupted segments of M = [[2,-1],[-1,2]], r = (1,2), k = c * 1.

    The path activates coordinate 1 at s = c/2 and coordinate 0 at 3c/4.
    The certificate is relative, so every scale c fails the same way.
    """

    @pytest.fixture
    def paths(self):
        inst = ProblemInstance(M=[[2.0, -1.0], [-1.0, 2.0]], r=[1.0, 2.0])
        return [(inst, c * ONES, compute_path(inst, c * ONES))
                for c in (1.0, 1e-200, 1e200)]

    @staticmethod
    def with_segment(path, j, segment):
        segments = list(path.segments)
        segments[j] = segment
        return dataclasses.replace(path, segments=tuple(segments))

    def test_exact_segments_pass(self, paths):
        for inst, k, path in paths:
            assert [seg.active for seg in path.segments] == [(), (1,), (0, 1)]
            _certify_path(inst, k, path)
            verify_path(inst, k, path)

    def test_perturbed_slope_rejected(self, paths):
        for inst, k, path in paths:
            seg = path.segments[1]
            bad = dataclasses.replace(seg, theta_star=seg.theta_star + [0.0, 1e-6])
            lo, hi = path.breakpoints
            segment = re.escape(f"segment [{lo:.6g}, {hi:.6g})")
            with pytest.raises(PathInconsistent, match=segment + ".* affine [1-9]"):
                _certify_path(inst, k, self.with_segment(path, 1, bad))

    def test_missed_activation_rejected(self, paths):
        # The affine pieces of (1,) carried past s = 3c/4, where 0 joins.
        for inst, k, path in paths:
            segment = re.escape(f"segment [{path.s_star:.6g}, inf)")
            with pytest.raises(PathInconsistent, match=segment + ".* negative_w [1-9]"):
                _certify_path(inst, k, self.with_segment(path, 2, path.segments[1]))

    def test_negative_primal_rejected(self, paths):
        for inst, k, path in paths:
            seg = path.segments[1]
            bad = dataclasses.replace(seg, z_intercept=seg.z_intercept - 10.0 * k)
            with pytest.raises(PathInconsistent, match="negative_z [1-9]"):
                _certify_path(inst, k, self.with_segment(path, 1, bad))

    # Near the top of the double range a probe overflows to inf, and every
    # residual of its segment is NaN, which fails as a violation does.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("k", [[1e308, 1e308, 1e308], [1e308, 1e-308, 1.0]])
    def test_nan_residuals_rejected(self, k):
        inst, _ = generate_direct(3, 1)
        with pytest.raises(PathInconsistent, match="fails its KKT certificate.* nan"):
            compute_path(inst, np.array(k))

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

    @pytest.mark.parametrize("theta, error, message", [
        ([1.0, 0.0, 2.0], PathInconsistent,
         "no upcoming activation from active set [0, 2]"),
        ([1.0, 0.0, 0.0], PositivityViolation,
         "stationary point on [0, 2] not positive"),
    ], ids=["stalled", "nonpositive"])
    def test_homotopy_failures_name_the_sorted_set(self, monkeypatch, theta,
                                                   error, message):
        # No certified instance stalls or loses positivity, so a stubbed
        # homotopy ends on the join order [2, 0] of a d = 3 instance.
        def homotopy(M, k, r, s_end):
            yield 0.0, np.array([], dtype=np.intp), np.zeros(3), np.zeros(3)
            yield 1.0, np.array([2, 0]), np.zeros(3), np.array(theta)

        monkeypatch.setattr(lcp, "homotopy", homotopy)
        with pytest.raises(error, match=re.escape(message)):
            compute_path(ProblemInstance(M=np.eye(3), r=np.ones(3)), np.ones(3))

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
        for s in (0.0, np.nan, np.inf):
            with pytest.raises(OutOfRange):
                theta_star_of_s(path, s)
