import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_k_matrix
from dlnflow import lcp, solve_lcp, solve_qp_nonneg
from dlnflow.errors import (
    DimensionMismatch,
    DimensionTooLarge,
    MaxIterations,
    NonFinite,
    NotKMatrix,
    SingularSubmatrix,
)
from dlnflow.lcp import ActiveSetCholesky, homotopy
from oracles import MultipleSolutions, NoSolution, residuals, solve_lcp_bruteforce

TRIDIAG = np.array([[2.0, -1.0], [-1.0, 2.0]])


def assert_valid_solution(sol, q, M):
    res = residuals(sol, q, M)
    q_norm = np.linalg.norm(q)
    z_norm = np.linalg.norm(sol.z)
    assert res["affine"] <= 1e-10 * (q_norm + np.linalg.norm(M) * z_norm + 1)
    assert np.all(sol.w >= -1e-12)
    assert np.all(sol.z >= -1e-12)
    assert res["complementarity"] <= 1e-10 * (1 + q_norm * z_norm)
    assert res["per_coordinate"] <= 1e-10


class TestSolveLcp:
    def test_nonnegative_offset_gives_zero(self):
        sol = solve_lcp([1.0, 1.0], TRIDIAG)
        np.testing.assert_array_equal(sol.z, [0.0, 0.0])
        np.testing.assert_array_equal(sol.w, [1.0, 1.0])
        assert sol.support == ()

    def test_interior_solution(self):
        # All four supports checked by hand: only the full one passes, with
        # z = M^{-1}(1,1) = (1,1) since M^{-1} = [[2,1],[1,2]]/3.
        sol = solve_lcp([-1.0, -1.0], TRIDIAG)
        np.testing.assert_allclose(sol.z, [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(sol.w, [0.0, 0.0], atol=1e-12)
        assert sol.support == (0, 1)

    def test_separable_coordinates(self):
        sol = solve_lcp([-1.0, 1.0], np.eye(2))
        np.testing.assert_allclose(sol.z, [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(sol.w, [0.0, 1.0], atol=1e-14)
        assert sol.support == (0,)

    def test_degenerate_boundary_is_inactive(self):
        # Coordinate 0 has w_0 = z_0 = 0 exactly; it must not join the support.
        # Uncoupled, its dual line stays flat; coupled, its root lands at
        # exactly s = 1, the end of the homotopy.
        for q, M in [([0.0, -1.0], np.eye(2)),
                     ([1.0, -1.0], np.array([[2.0, -1.0], [-1.0, 1.0]]))]:
            sol = solve_lcp(q, M)
            assert sol.support == (1,)
            np.testing.assert_array_equal(sol.z, [0.0, 1.0])
            np.testing.assert_array_equal(sol.w, [0.0, 0.0])

    @pytest.mark.parametrize(
        "M",
        [
            np.array([[1.0, 0.5], [0.5, 1.0]]),      # positive off-diagonal
            np.array([[1.0, -0.3], [-0.2, 1.0]]),    # asymmetric
            np.array([[1.0, -1.0], [-1.0, 1.0]]),    # singular
        ],
    )
    def test_non_k_matrix_rejected(self, M):
        with pytest.raises(NotKMatrix):
            solve_lcp([1.0, 1.0], M)

    @pytest.mark.parametrize("q, M, error", [
        ([-1.0, np.nan], TRIDIAG, NonFinite),
        ([-1.0, -1.0], [[2.0, np.nan], [-1.0, 2.0]], NonFinite),
        ([-1.0, -1.0], [[2.0, -1.0], [-1.0]], DimensionMismatch),
        ("ab", TRIDIAG, DimensionMismatch),
        ([-1.0], TRIDIAG, DimensionMismatch),
    ])
    def test_malformed_input_rejected(self, q, M, error):
        for solve in (solve_lcp, solve_lcp_bruteforce, solve_qp_nonneg):
            with pytest.raises(error):
                solve(q, M)

    def test_solutions_satisfy_invariants(self, rng):
        for _ in range(50):
            d = int(rng.integers(1, 9))
            M = random_k_matrix(rng, d)
            q = rng.normal(size=d) * 2.0
            assert_valid_solution(solve_lcp(q, M), q, M)


class TestActiveSetCholesky:
    def test_nonpositive_pivot_rejected(self):
        # Each 1x1 block is positive definite, but the second pivot is
        # 1 - (-2)^2 = -3: the 2x2 matrix is indefinite.
        factor = ActiveSetCholesky(np.array([[1.0, -2.0], [-2.0, 1.0]]), np.ones(2))
        factor.append([0])
        with pytest.raises(SingularSubmatrix,
                           match=r"pivot -3.000e\+00 adding coordinate 1 to \[0\]$"):
            factor.append([1])
        assert factor.order.tolist() == [0]

    def test_a_failed_join_prints_the_set_as_a_list(self):
        # The third pivot is 1 - 2 (0.8)^2 = -0.28; the set prints with commas.
        M = np.array([[1.0, 0.0, -0.8], [0.0, 1.0, -0.8], [-0.8, -0.8, 1.0]])
        factor = ActiveSetCholesky(M, np.ones(3))
        factor.append([0, 1])
        with pytest.raises(SingularSubmatrix, match=r"adding coordinate 2 to \[0, 1\]$"):
            factor.append([2])

    def test_order_is_the_join_order_and_earlier_views_keep_their_set(self):
        factor = ActiveSetCholesky(random_k_matrix(np.random.default_rng(3), 5), np.ones(5))
        views = [factor.order]
        for joining in ([3], np.array([0, 4]), [2]):
            factor.append(joining)
            views.append(factor.order)
        assert [view.tolist() for view in views] == [[], [3], [3, 0, 4], [3, 0, 4, 2]]
        assert factor.order.dtype == np.intp
        with pytest.raises(ValueError, match="read-only"):
            factor.order[0] = 1

    def test_homotopy_yields_nested_join_orders(self):
        # Each segment's set is the one it was yielded with, after every
        # later join: a prefix of the last one, one coordinate longer than
        # the one before (no ties here).
        rng = np.random.default_rng(5)
        M = random_k_matrix(rng, 6)
        k, r = rng.uniform(0.5, 2.0, 6), rng.uniform(0.5, 2.0, 6)
        orders = [order for _, order, _, _ in homotopy(M, k, r, np.inf)]
        last = orders[-1].tolist()
        assert sorted(last) == list(range(6))
        assert [order.tolist() for order in orders] == [last[:m] for m in range(7)]

    def test_solves_on_the_active_set(self):
        factor = ActiveSetCholesky(TRIDIAG, np.array([1.0, 1.0]))
        factor.append([1, 0])
        np.testing.assert_allclose(factor.solve(), [1.0, 1.0], atol=1e-15)

    @settings(derandomize=True, deadline=None, database=None, max_examples=40)
    @given(st.integers(1, 64), st.integers(0, 2**32 - 1), st.sampled_from([(), (2,)]))
    def test_matches_dense_solve_after_every_append(self, d, seed, columns):
        # Joins of 1 to 4 coordinates in a random order; b a vector or columns.
        rng = np.random.default_rng(seed)
        M = random_k_matrix(rng, d)
        b = rng.normal(size=(d, *columns))
        order = rng.permutation(d)
        ends = np.cumsum(rng.integers(1, 5, size=d))
        factor = ActiveSetCholesky(M, b)
        np.testing.assert_array_equal(factor.solve(), np.zeros_like(b))
        for start, stop in zip([0, *ends], ends):
            if start >= d:
                break
            factor.append(order[start:stop])
            active = np.sort(order[:stop])
            x = factor.solve()
            expected = np.linalg.solve(M[np.ix_(active, active)], b[active])
            error = np.max(np.abs(x[active] - expected))
            assert error <= 1e-12 * np.max(np.abs(expected))
            inactive = np.setdiff1d(np.arange(d), active)
            np.testing.assert_array_equal(x[inactive], 0.0)


class TestBruteforce:
    def test_zero_offset(self):
        sol = solve_lcp_bruteforce(np.zeros(2), TRIDIAG)
        np.testing.assert_array_equal(sol.z, [0.0, 0.0])
        np.testing.assert_array_equal(sol.w, [0.0, 0.0])
        assert sol.support == ()

    def test_matches_pivoting_on_example(self):
        a = solve_lcp([-1.0, -1.0], TRIDIAG)
        b = solve_lcp_bruteforce([-1.0, -1.0], TRIDIAG)
        assert a.support == b.support
        np.testing.assert_allclose(a.z, b.z, atol=1e-12)

    def test_exactly_one_support_passes(self, rng):
        # Uniqueness on K-matrices: the enumerator itself raises when zero
        # or several supports pass, so not raising is the property.
        for _ in range(60):
            d = int(rng.integers(1, 8))
            M = random_k_matrix(rng, d)
            q = rng.normal(size=d)
            assert_valid_solution(solve_lcp_bruteforce(q, M), q, M)

    @pytest.mark.parametrize("q, z", [((-1e-13, -1.0), (1e-13, 1.0)),
                                      ((-2e-13, -3e-13), (2e-13, 3e-13))],
                             ids=["far-below-the-largest", "all-below-1e-12"])
    def test_thresholds_follow_each_coordinates_scale(self, q, z):
        # With M = I the solution is z = -q on the full support; an absolute
        # 1e-12 threshold dropped the coordinates of q below it.
        sol = solve_lcp_bruteforce(q, np.eye(2))
        assert sol.support == (0, 1)
        np.testing.assert_array_equal(sol.z, z)
        np.testing.assert_array_equal(sol.w, [0.0, 0.0])

    def test_multiple_solutions_detected(self):
        # w = 1 - z admits both (z, w) = (0, 1) and (1, 0).
        with pytest.raises(MultipleSolutions):
            solve_lcp_bruteforce([1.0], [[-1.0]])

    def test_no_solution_detected(self):
        # w = -1 - z cannot satisfy both sign constraints.
        with pytest.raises(NoSolution):
            solve_lcp_bruteforce([-1.0], [[-1.0]])

    def test_dimension_guard(self):
        with pytest.raises(DimensionTooLarge):
            solve_lcp_bruteforce(np.ones(21), np.eye(21))


class TestQpNonneg:
    def test_nonnegative_offset_gives_zero(self):
        theta = solve_qp_nonneg([0.5, 2.0], TRIDIAG)
        np.testing.assert_array_equal(theta, [0.0, 0.0])

    def test_interior_equals_unconstrained(self):
        # -M^{-1} q = (1,1) is nonnegative, so the constraint is slack.
        theta = solve_qp_nonneg([-1.0, -1.0], TRIDIAG)
        np.testing.assert_allclose(theta, np.linalg.solve(TRIDIAG, [1.0, 1.0]),
                                   atol=1e-9)

    def test_agrees_with_pivoting(self, rng):
        for _ in range(25):
            d = int(rng.integers(1, 8))
            M = random_k_matrix(rng, d)
            q = rng.normal(size=d)
            theta = solve_qp_nonneg(q, M)
            np.testing.assert_allclose(theta, solve_lcp(q, M).z, atol=1e-8)

    def test_max_iterations(self, monkeypatch):
        monkeypatch.setattr(lcp, "QP_MAX_ITER", 2)
        with pytest.raises(MaxIterations) as info:
            solve_qp_nonneg([-1.0, -1.0], TRIDIAG)
        assert info.value.residual > 0
        assert info.value.iterations == 2

    def test_not_positive_definite_rejected(self):
        with pytest.raises(NotKMatrix):
            solve_qp_nonneg([1.0, 1.0], [[1.0, -1.0], [-1.0, 1.0]])


class TestAgreementAndAntitonicity:
    def test_three_way_agreement(self, rng):
        # The homotopy, enumeration and projected gradient are three
        # independent routes to the same unique solution.
        for _ in range(60):
            d = int(rng.integers(1, 9))
            M = random_k_matrix(rng, d)
            q = rng.normal(size=d) * rng.uniform(0.5, 3.0)
            a = solve_lcp(q, M)
            b = solve_lcp_bruteforce(q, M)
            c = solve_qp_nonneg(q, M)
            assert a.support == b.support
            np.testing.assert_allclose(a.z, b.z, atol=1e-8)
            np.testing.assert_allclose(a.z, c, atol=1e-8)

    def test_antitonicity(self, rng):
        # Lowering the offset can only raise the primal solution.
        for _ in range(40):
            d = int(rng.integers(1, 9))
            M = random_k_matrix(rng, d)
            q2 = rng.normal(size=d)
            q1 = q2 - rng.uniform(0.0, 1.0, size=d)
            z1 = solve_lcp(q1, M).z
            z2 = solve_lcp(q2, M).z
            assert np.all(z1 >= z2 - 1e-10)
