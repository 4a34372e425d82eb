import numpy as np
import pytest

from conftest import deadline
from dlnflow.errors import StepUnderflow
from dlnflow.integrate import integrate


def logistic(s, theta0):
    return theta0 * np.exp(s) / (1.0 + theta0 * (np.exp(s) - 1.0))


def test_exponential_decay():
    res = integrate(lambda s, y: -y, 0.0, np.array([1.0]), 5.0,
                    rtol=1e-10, atol=1e-10)
    assert res.y[0] == pytest.approx(np.exp(-5.0), rel=1e-8)


def test_logistic_accuracy_improves_with_tolerance():
    theta0 = 1e-6
    f = lambda s, y: y * (1.0 - y)
    errors = []
    for tol in [1e-5, 1e-7, 1e-9, 1e-11]:
        res = integrate(f, 0.0, np.array([theta0]), 20.0, rtol=tol, atol=tol)
        grid = np.linspace(0.0, 20.0, 257)
        err = np.max(np.abs(res.dense(grid)[:, 0] - logistic(grid, theta0)))
        errors.append(err)
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] < errors[0] * 1e-3


def test_dense_output_order():
    # Fixed step caps isolate the interpolant: halving the step must shrink
    # the dense-output error by roughly the method order.
    f = lambda s, y: np.array([np.cos(s)])
    prev = None
    for h in [0.4, 0.2, 0.1]:
        res = integrate(f, 0.0, np.array([0.0]), 6.0, rtol=1e-2, atol=1e-2,
                        max_step=h)
        grid = np.linspace(0.0, 6.0, 1001)
        err = np.max(np.abs(res.dense(grid)[:, 0] - np.sin(grid)))
        if prev is not None:
            assert err < prev / 10.0
        prev = err


def test_dense_output_matches_endpoints():
    f = lambda s, y: y * (1.0 - y)
    res = integrate(f, 0.0, np.array([0.01]), 10.0, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(res.dense(res.s), res.y, atol=1e-14)
    np.testing.assert_allclose(res.dense(0.0), [0.01], atol=1e-15)


def test_stats_populated():
    f = lambda s, y: y * (1.0 - y)
    res = integrate(f, 0.0, np.array([1e-8]), 25.0, rtol=1e-9, atol=1e-9)
    assert res.stats.steps > 10
    assert res.stats.max_step > 0
    assert res.stats.rhs_evaluations >= 6 * res.stats.steps


def test_max_step_respected():
    res = integrate(lambda s, y: -y, 0.0, np.array([1.0]), 2.0,
                    rtol=1e-6, atol=1e-6, max_step=0.05)
    assert res.stats.max_step <= 0.05 + 1e-15


def test_step_underflow_near_blowup():
    # y' = y^2 from y(0)=1 blows up at s=1; the controller must not march
    # through it.
    with pytest.raises(StepUnderflow):
        integrate(lambda s, y: y ** 2, 0.0, np.array([1.0]), 2.0,
                  rtol=1e-8, atol=1e-8)


def test_nan_step_underflows():
    # Zero tolerances make the first step NaN, which no comparison with a
    # threshold catches; the underflow test must stop the loop anyway.
    with deadline(10), np.errstate(all="ignore"), pytest.raises(StepUnderflow):
        integrate(lambda s, y: -y, 0.0, np.array([1.0]), 1.0, rtol=0.0, atol=0.0)


def test_callback_abort_propagates():
    class Abort(RuntimeError):
        pass

    def cb(s0, y0, s1, y1):
        if s1 > 1.0:
            raise Abort

    with pytest.raises(Abort):
        integrate(lambda s, y: -y, 0.0, np.array([1.0]), 5.0,
                  rtol=1e-8, atol=1e-8, step_callback=cb)


def test_dense_output_out_of_range():
    res = integrate(lambda s, y: -y, 0.0, np.array([1.0]), 1.0,
                    rtol=1e-8, atol=1e-8)
    with pytest.raises(ValueError):
        res.dense(1.5)
