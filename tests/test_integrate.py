import numpy as np
import pytest

from conftest import deadline
from dlnflow import Initialization, compute_path, dynamics, generate_direct
from dlnflow.errors import StepUnderflow
from dlnflow.integrate import integrate
from oracles import integrate_reference


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


def test_callback_returning_true_ends_the_run_at_that_step():
    seen = []

    def cb(s0, y0, s1, y1):
        seen.append((s1, y1))
        return y1[0] > 0.5

    res = integrate(lambda s, y: y * (1.0 - y), 0.0, np.array([1e-3]), 20.0,
                    rtol=1e-9, atol=1e-9, step_callback=cb)
    assert [y[0] > 0.5 for _, y in seen] == [False] * (len(seen) - 1) + [True]
    assert res.stats.steps == len(seen)
    assert res.s == seen[-1][0] < 20.0
    np.testing.assert_array_equal(res.y, seen[-1][1])
    # The dense output covers [s0, s] and no further.
    assert (res.dense.s_min, res.dense.s_max) == (0.0, res.s)
    np.testing.assert_allclose(res.dense(res.s), res.y, atol=1e-14)
    with pytest.raises(ValueError):
        res.dense(res.s + 1e-6)


def _extreme_flow(monkeypatch):
    """The flow ``simulate`` integrates for a d = 32 instance at eps = 1e-300,
    with its h_stab cap, up to s*."""
    inst, _ = generate_direct(32, 3)
    init = Initialization(C=np.ones(32), k=np.ones(32), epsilon=1e-300)
    s_star = compute_path(inst, init.k).s_star
    args = {}

    def capture(f, s0, y0, s_end, **kwargs):
        args.update(f=f, s0=s0, y0=y0, s_end=s_end, rtol=kwargs["rtol"],
                    atol=kwargs["atol"], max_step=kwargs["max_step"])
        return integrate(f, s0, y0, s_end, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(dynamics, "integrate", capture)
        dynamics.simulate(inst, init, s_star)
    return args


BITWISE_CASES = {
    "logistic": dict(f=lambda s, y: y * (1.0 - y), s0=0.0, y0=np.array([1e-6]),
                     s_end=20.0, rtol=1e-9, atol=1e-9),
    "decay-max-step": dict(f=lambda s, y: -y, s0=0.0, y0=np.array([1.0]),
                           s_end=2.0, rtol=1e-6, atol=1e-6, max_step=0.05),
    "rejections": dict(f=lambda s, y: np.array([y[1], 5 * (1 - y[0] ** 2) * y[1] - y[0]]),
                       s0=0.0, y0=np.array([2.0, 0.0]), s_end=10.0,
                       rtol=1e-6, atol=1e-6),
    "callback-stop": dict(f=lambda s, y: y * (1.0 - y), s0=0.0, y0=np.array([1e-6]),
                          s_end=20.0, rtol=1e-9, atol=1e-9),
    "extreme-d32": _extreme_flow,
}


@pytest.mark.parametrize("case", BITWISE_CASES)
def test_loop_matches_the_reference_bit_for_bit(case, monkeypatch):
    args = BITWISE_CASES[case]
    args = args(monkeypatch) if callable(args) else args
    stop = (lambda y: y[0] > 0.5) if case == "callback-stop" else None
    calls, reference_calls = [], []

    def callback(*step):
        calls.append(step)
        return stop is not None and stop(step[3])

    res = integrate(**args, step_callback=callback)
    ref = integrate_reference(**args, step_callback=lambda *step: reference_calls.append(step),
                              stop=stop)
    assert res.stats == ref.stats
    if case == "rejections":
        assert res.stats.rejected > 0
    if case == "extreme-d32":
        # More steps than a run at the h_stab cap, which sizes the dense
        # buffer, so the buffer grew; the longest steps are at the cap.
        assert res.stats.steps > args["s_end"] / args["max_step"] > 64
        assert res.stats.max_step == args["max_step"]
    assert res.s == ref.s
    np.testing.assert_array_equal(res.y, ref.y)
    for mine, theirs in zip((res.dense._lefts, res.dense._widths, res.dense._cont),
                            (ref.dense._lefts, ref.dense._widths, ref.dense._cont)):
        assert mine.shape == theirs.shape and np.array_equal(mine, theirs)
    # The hook saw the same steps.
    assert len(calls) == len(reference_calls)
    for mine, theirs in zip(calls, reference_calls):
        assert mine[0] == theirs[0] and mine[2] == theirs[2]
        assert np.array_equal(mine[1], theirs[1]) and np.array_equal(mine[3], theirs[3])
