import numpy as np
import pytest

from conftest import deadline
from dlnflow import Initialization, compute_path, dynamics, generate_direct
from dlnflow.errors import OutOfRange, StepUnderflow
from dlnflow.integrate import integrate
from oracles import integrate_reference


def logistic(s, theta0):
    return theta0 * np.exp(s) / (1.0 + theta0 * (np.exp(s) - 1.0))


def go_on(s0, y0, s1, y1):
    """A step callback that never ends the run."""
    return False


class LastStep:
    """A step callback that never ends the run and keeps the endpoint
    ``s``, ``y`` of the last accepted step."""

    def __call__(self, s0, y0, s1, y1):
        self.s, self.y = s1, y1
        return False


def test_exponential_decay():
    res = integrate(lambda y: -y, np.array([1.0]), 5.0, 1e-10, np.inf, go_on)
    assert res(res.s_max)[0] == pytest.approx(np.exp(-5.0), rel=1e-8)


def test_logistic_accuracy_improves_with_tolerance():
    theta0 = 1e-6
    f = lambda y: y * (1.0 - y)
    errors = []
    for tol in [1e-5, 1e-7, 1e-9, 1e-11]:
        res = integrate(f, np.array([theta0]), 20.0, tol, np.inf, go_on)
        grid = np.linspace(0.0, 20.0, 257)
        err = np.max(np.abs(res(grid)[:, 0] - logistic(grid, theta0)))
        errors.append(err)
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] < errors[0] * 1e-3


def test_dense_output_order():
    # Fixed step caps isolate the interpolant: halving the step must shrink
    # the dense-output error by roughly the method order. The oscillator's
    # first component is sin s.
    f = lambda y: np.array([y[1], -y[0]])
    prev = None
    for h in [0.4, 0.2, 0.1]:
        res = integrate(f, np.array([0.0, 1.0]), 6.0, 1e-2, h, go_on)
        grid = np.linspace(0.0, 6.0, 1001)
        err = np.max(np.abs(res(grid)[:, 0] - np.sin(grid)))
        if prev is not None:
            assert err < prev / 10.0
        prev = err


def test_dense_output_matches_endpoints():
    f = lambda y: y * (1.0 - y)
    last = LastStep()
    res = integrate(f, np.array([0.01]), 10.0, 1e-9, np.inf, last)
    assert res.s_max == last.s
    np.testing.assert_allclose(res(res.s_max), last.y, atol=1e-14)
    np.testing.assert_allclose(res(0.0), [0.01], atol=1e-15)


def test_stats_populated():
    f = lambda y: y * (1.0 - y)
    res = integrate(f, np.array([1e-8]), 25.0, 1e-9, np.inf, go_on)
    assert res.stats.steps > 10
    assert res.stats.max_step > 0
    assert res.stats.rhs_evaluations >= 6 * res.stats.steps


def test_max_step_respected():
    res = integrate(lambda y: -y, np.array([1.0]), 2.0, 1e-6, 0.05, go_on)
    assert res.stats.max_step <= 0.05 + 1e-15


def test_step_underflow_near_blowup():
    # y' = y^2 from y(0)=1 blows up at s=1; the controller must not march
    # through it.
    with pytest.raises(StepUnderflow):
        integrate(lambda y: y ** 2, np.array([1.0]), 2.0, 1e-8, np.inf, go_on)


def test_nan_step_underflows():
    # A zero tolerance makes the first step NaN, which no comparison with a
    # threshold catches; the underflow test must stop the loop anyway.
    with deadline(10), np.errstate(all="ignore"), pytest.raises(StepUnderflow):
        integrate(lambda y: -y, np.array([1.0]), 1.0, 0.0, np.inf, go_on)


def test_callback_abort_propagates():
    class Abort(RuntimeError):
        pass

    def cb(s0, y0, s1, y1):
        if s1 > 1.0:
            raise Abort

    with pytest.raises(Abort):
        integrate(lambda y: -y, np.array([1.0]), 5.0, 1e-8, np.inf, cb)


def test_dense_output_out_of_range():
    last = LastStep()
    res = integrate(lambda y: -y, np.array([1.0]), 1.0, 1e-8, np.inf, last)
    # A relative 1e-12 past the end reads the value at the end.
    np.testing.assert_allclose(res(res.s_max * (1 + 1e-12) + 1e-15), last.y,
                               rtol=0, atol=1e-15)
    for s in (1.5, res.s_max * (1 + 1e-11), -1e-300, np.nan):
        with pytest.raises(OutOfRange):
            res(s)


@pytest.mark.parametrize("s_end", [1e-14, 1e-15, 0.0, -1.0, np.nan])
def test_span_too_short_for_one_step_is_out_of_range(s_end):
    def f(y):
        raise AssertionError("no step may be tried")

    with pytest.raises(OutOfRange):
        integrate(f, np.array([1.0]), s_end, 1e-8, np.inf, go_on)


def test_shortest_span_takes_one_step():
    res = integrate(lambda y: -y, np.array([1.0]), 2e-14, 1e-8, np.inf, go_on)
    assert res.stats.steps == 1 and res.s_max == 2e-14


def test_callback_returning_true_ends_the_run_at_that_step():
    seen = []

    def cb(s0, y0, s1, y1):
        seen.append((s1, y1))
        return y1[0] > 0.5

    res = integrate(lambda y: y * (1.0 - y), np.array([1e-3]), 20.0, 1e-9, np.inf, cb)
    assert [y[0] > 0.5 for _, y in seen] == [False] * (len(seen) - 1) + [True]
    assert res.stats.steps == len(seen)
    # The dense output covers [0, s] for that step's endpoint s and no further.
    assert res.s_max == seen[-1][0] < 20.0
    np.testing.assert_allclose(res(res.s_max), seen[-1][1], atol=1e-14)
    with pytest.raises(OutOfRange):
        res(res.s_max + 1e-6)


def _extreme_flow(monkeypatch):
    """The flow ``simulate`` integrates for a d = 32 instance at eps = 1e-300,
    with its h_stab cap, up to s*."""
    inst, _ = generate_direct(32, 3)
    init = Initialization(C=np.ones(32), k=np.ones(32), epsilon=1e-300)
    s_star = compute_path(inst, init.k).s_star
    args = {}

    def capture(f, y0, s_end, tol, max_step, step_callback):
        args.update(f=f, y0=y0, s_end=s_end, tol=tol, max_step=max_step)
        return integrate(f, y0, s_end, tol, max_step, step_callback)

    with monkeypatch.context() as m:
        m.setattr(dynamics, "integrate", capture)
        dynamics.simulate(inst, init, s_star)
    return args


BITWISE_CASES = {
    "logistic": dict(f=lambda y: y * (1.0 - y), y0=np.array([1e-6]), s_end=20.0,
                     tol=1e-9, max_step=np.inf),
    "decay-max-step": dict(f=lambda y: -y, y0=np.array([1.0]), s_end=2.0,
                           tol=1e-6, max_step=0.05),
    "rejections": dict(f=lambda y: np.array([y[1], 5 * (1 - y[0] ** 2) * y[1] - y[0]]),
                       y0=np.array([2.0, 0.0]), s_end=10.0, tol=1e-6,
                       max_step=np.inf),
    "callback-stop": dict(f=lambda y: y * (1.0 - y), y0=np.array([1e-6]), s_end=20.0,
                          tol=1e-9, max_step=np.inf),
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
    # The reference integrates the non-autonomous y' = f(s, y) from any s0.
    f, tol = args["f"], args["tol"]
    ref = integrate_reference(lambda s, y: f(y), 0.0, args["y0"], args["s_end"],
                              rtol=tol, atol=tol, max_step=args["max_step"],
                              step_callback=lambda *step: reference_calls.append(step),
                              stop=stop)
    assert res.stats == ref.stats
    if case == "rejections":
        assert res.stats.rejected > 0
    if case == "extreme-d32":
        # More steps than a run at the h_stab cap, which sizes the dense
        # buffer, so the buffer grew; the longest steps are at the cap.
        assert res.stats.steps > args["s_end"] / args["max_step"] > 64
        assert res.stats.max_step == args["max_step"]
    assert res.s_max == ref.s
    np.testing.assert_array_equal(calls[-1][3], ref.y)
    for mine, theirs in zip((res._lefts, res._widths, res._cont),
                            (ref.dense._lefts, ref.dense._widths, ref.dense._cont)):
        assert mine.shape == theirs.shape and np.array_equal(mine, theirs)
    # The hook saw the same steps.
    assert len(calls) == len(reference_calls)
    for mine, theirs in zip(calls, reference_calls):
        assert mine[0] == theirs[0] and mine[2] == theirs[2]
        assert np.array_equal(mine[1], theirs[1]) and np.array_equal(mine[3], theirs[3])
