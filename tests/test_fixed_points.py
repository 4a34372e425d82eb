import numpy as np
import pytest
from scipy.linalg import LinAlgError

from conftest import random_instance
from dlnflow import fixed_points
from dlnflow import (
    ProblemInstance,
    enumerate_fixed_points,
    fixed_point,
    generate_rejection,
    from_data,
)
from dlnflow.errors import (
    DimensionMismatch,
    DimensionTooLarge,
    PositivityViolation,
    SingularSubmatrix,
)


class TestFixedPoint:
    def test_empty_support_is_origin(self, tridiag_instance):
        fp = fixed_point(tridiag_instance, [])
        np.testing.assert_array_equal(fp.theta, [0.0, 0.0])
        assert fp.support == ()
        assert fp.residual == 0.0

    def test_full_support_is_minimizer(self, tridiag_instance):
        fp = fixed_point(tridiag_instance, [0, 1])
        expected = np.linalg.solve(tridiag_instance.M, tridiag_instance.r)
        np.testing.assert_allclose(fp.theta, expected, atol=1e-12)

    def test_singleton_support(self, tridiag_instance):
        # One active coordinate solves the 1x1 system r_1 / M_11 = 0.5.
        fp = fixed_point(tridiag_instance, [0])
        np.testing.assert_allclose(fp.theta, [0.5, 0.0], atol=1e-15)

    def test_support_out_of_range(self, tridiag_instance):
        with pytest.raises(DimensionMismatch):
            fixed_point(tridiag_instance, [2])

    def test_singular_submatrix(self, tridiag_instance, monkeypatch):
        # Every principal submatrix of a certified instance factors, so the
        # failure is injected to reach the guard.
        def fail(a):
            raise LinAlgError("not positive definite")

        monkeypatch.setattr(fixed_points, "cho_factor", fail)
        with pytest.raises(SingularSubmatrix):
            fixed_point(tridiag_instance, [0, 1])

    def test_nonpositive_solution_rejected(self, tridiag_instance, monkeypatch):
        # M_II^{-1} r_I is positive on every certified instance, so a solve
        # that returns a nonpositive vector is injected to reach the guard.
        monkeypatch.setattr(fixed_points, "cho_solve", lambda factor, b: -b)
        with pytest.raises(PositivityViolation,
                           match="computed active coordinates not strictly positive"):
            fixed_point(tridiag_instance, [0, 1])

    def test_support_is_exact(self, rng):
        # Strict positivity on the support is guaranteed for valid instances.
        for _ in range(15):
            d = int(rng.integers(1, 7))
            inst = random_instance(rng, d)
            for mask in range(2 ** d):
                support = [i for i in range(d) if (mask >> i) & 1]
                fp = fixed_point(inst, support)
                assert fp.support == tuple(support)
                assert np.all(fp.theta[list(support)] > 0)
                off = [i for i in range(d) if i not in support]
                assert np.all(fp.theta[off] == 0.0)

    def test_coordinates_far_below_the_largest(self):
        # Positivity is judged against r_i / M_ii, a lower bound on each
        # coordinate, so no unit of r makes a coordinate too small.
        inst = ProblemInstance(M=np.eye(2), r=[1e-13, 1.0])
        np.testing.assert_array_equal(fixed_point(inst, [0, 1]).theta, [1e-13, 1.0])
        np.testing.assert_array_equal(fixed_point(inst, [0]).theta, [1e-13, 0.0])

    def test_full_minimizer_positive(self, rng):
        for _ in range(20):
            inst = random_instance(rng, int(rng.integers(1, 7)))
            assert np.all(inst.minimizer() > 0)


class TestEnumeration:
    def test_scalar(self):
        inst = ProblemInstance(M=[[2.0]], r=[3.0])
        points = enumerate_fixed_points(inst)
        assert len(points) == 2
        thetas = sorted(p.theta[0] for p in points)
        assert thetas == pytest.approx([0.0, 1.5])

    def test_phase_portrait_instance(self):
        # The four stationary points of a 2d instance drawn from data.
        inst = from_data(generate_rejection(n=3, d=2, seed=5))
        points = enumerate_fixed_points(inst)
        assert len(points) == 4
        assert sorted(p.support for p in points) == [(), (0,), (0, 1), (1,)]
        assert any(np.array_equal(p.theta, [0.0, 0.0]) for p in points)

    def test_residuals_vanish(self, rng):
        inst = random_instance(rng, 3)
        points = enumerate_fixed_points(inst)
        assert len(points) == 8
        assert all(p.residual <= 1e-10 for p in points)

    def test_dimension_guard(self):
        inst = ProblemInstance(M=np.eye(21), r=np.ones(21))
        with pytest.raises(DimensionTooLarge):
            enumerate_fixed_points(inst)


class TestIsFixedPoint:
    # theta is stationary when the field theta * (r - M theta) vanishes.
    def test_origin(self, tridiag_instance):
        inst, theta = tridiag_instance, np.zeros(2)
        assert np.max(np.abs(theta * (inst.r - inst.M @ theta))) <= 1e-12

    def test_minimizer(self, tridiag_instance):
        inst = tridiag_instance
        theta = np.linalg.solve(inst.M, inst.r)
        assert np.max(np.abs(theta * (inst.r - inst.M @ theta))) <= 1e-10

    def test_perturbation_detected(self, rng):
        inst = random_instance(rng, 4)
        for support in ([0], [1, 3], [0, 1, 2, 3]):
            fp = fixed_point(inst, support)
            bump = np.zeros(4)
            bump[support] = 0.1
            theta = fp.theta + bump
            assert np.max(np.abs(theta * (inst.r - inst.M @ theta))) > 1e-6
