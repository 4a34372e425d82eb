import math

import numpy as np
import pytest

from conftest import deadline, recorded_integrate, scalar_logistic
from dlnflow import Initialization, compute_path, dynamics, generate_direct
from dlnflow.dynamics import QUIET_DELTA
from dlnflow.errors import OutOfRange, StepUnderflow
from dlnflow.integrate import _A, _D, _E, _FLOOR, flow_product, integrate
from oracles import _C, integrate_reference


class LastStep:
    """A step callback that never ends the run and keeps the theta of the
    last accepted step."""

    def __call__(self, theta1):
        self.theta = theta1
        return False


def flow(M, r, eps, w0, s_end, tol, max_step=np.inf):
    """The arguments of ``integrate`` for the flow of (M, r) from w0."""
    log_eps = math.log(eps)
    return dict(f=flow_product(np.asarray(M, dtype=float), np.asarray(r, dtype=float),
                               log_eps),
                log_eps=log_eps, w0=np.asarray(w0, dtype=float), s_end=s_end,
                tol=tol, max_step=max_step)


def logistic(theta0, t_end, tol, max_step=None, eps=1e-6):
    """theta' = theta (1 - theta) from theta0 over physical time t_end: the
    d = 1 flow, whose exact solution is ``scalar_logistic``. The step cap
    defaults to the one ``simulate`` sets."""
    log_eps = math.log(eps)
    if max_step is None:
        max_step = 2.8 / -log_eps
    return flow([[1.0]], [1.0], eps, [math.log(theta0) / log_eps],
                t_end / -log_eps, tol, max_step)


def theta_error(res, args, theta0, points=257):
    """Largest error of the dense output's theta against the exact logistic."""
    s = np.linspace(0.0, res.s_max, points)
    theta = np.exp(res(s)[:, 0])
    return np.max(np.abs(theta - scalar_logistic(s * -args["log_eps"], theta0)))


def decay(t_end, tol, max_step=np.inf, eps=1e-6):
    """theta' = -theta from theta = 1 over physical time t_end: the d = 1
    flow with M = 0 and r = -1, along which w = s grows linearly."""
    return flow([[0.0]], [-1.0], eps, [0.0], t_end / -math.log(eps), tol, max_step)


def test_exponential_decay():
    args = decay(5.0, 1e-10)
    res = integrate(**args)
    theta_end = math.exp(res(res.s_max)[0])
    assert theta_end == pytest.approx(math.exp(-5.0), rel=1e-12)


def test_logistic_matches_its_closed_form():
    args = logistic(1e-6, 20.0, 1e-10)
    res = integrate(**args)
    assert theta_error(res, args, 1e-6) < 1e-8


def test_logistic_accuracy_improves_with_tolerance():
    errors = []
    for tol in [1e-5, 1e-7, 1e-9, 1e-11]:
        args = logistic(1e-6, 20.0, tol)
        errors.append(theta_error(integrate(**args), args, 1e-6))
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] < errors[0] * 1e-3


def test_dense_output_order():
    # Fixed step caps isolate the interpolant: halving the step must shrink
    # the dense-output error by roughly the method order.
    prev = None
    for h in [0.4, 0.2, 0.1]:
        args = logistic(1e-2, 12.0, 1e-2, max_step=h / -math.log(1e-6))
        err = theta_error(integrate(**args), args, 1e-2, 1001)
        if prev is not None:
            assert err < prev / 10.0
        prev = err


def test_dense_output_matches_endpoints():
    thetas = []

    def record(theta1):
        thetas.append(theta1)
        return False

    args = logistic(0.01, 10.0, 1e-9)
    res = integrate(**args, step_callback=record)
    # step_ends holds 0 and every step end in u = log theta, and reads what a
    # query there reads.
    s, u = res.step_ends
    assert s[0] == 0.0 and res.s_max == s[-1]
    assert len(thetas) == len(s) - 1 == res.stats.steps
    np.testing.assert_array_equal(res(res.s_max), u[-1])
    np.testing.assert_array_equal(res(0.0), args["log_eps"] * args["w0"])
    np.testing.assert_array_equal(u, res(s))
    np.testing.assert_array_equal(u[0], args["log_eps"] * args["w0"])
    # The hook's theta is the step's end, bit for bit.
    np.testing.assert_array_equal(thetas, np.exp(u[1:]))


def test_stats_populated():
    res = integrate(**logistic(1e-8, 25.0, 1e-9))
    assert res.stats.steps > 10
    assert res.stats.max_step > 0
    assert res.stats.rhs_evaluations == 1 + 6 * (res.stats.steps + res.stats.rejected)


@pytest.mark.parametrize("args", [decay(2.0, 1e-6, max_step=0.005), decay(0.01, 1e-6)],
                         ids=["cap-inside-span", "span-inside-cap"])
def test_a_run_starts_at_its_step_cap(args):
    # No step is guessed: the first attempt is the cap clipped to the span,
    # and these runs accept every attempt.
    res = integrate(**args)
    assert res.stats.rejected == 0
    assert res.step_ends[0][1] == min(args["max_step"], args["s_end"])


def test_max_step_respected():
    res = integrate(**logistic(0.5, 2.0, 1e-6, max_step=0.05))
    assert res.stats.max_step <= 0.05 + 1e-15


def test_step_underflow_near_blowup():
    # With M = -1, theta' = theta (1 + theta) from theta = 1 blows up at
    # t = log 2; the controller must not march through it.
    args = flow([[-1.0]], [1.0], math.exp(-1.0), [0.0], 2.0, 1e-8)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(StepUnderflow):
        integrate(**args)


def test_nan_step_underflows():
    # A zero tolerance makes the first step NaN, which no comparison with a
    # threshold catches; the underflow test must stop the loop anyway.
    args = logistic(0.5, 1.0, 0.0)
    with deadline(10), np.errstate(all="ignore"), pytest.raises(StepUnderflow):
        integrate(**args)


def test_callback_abort_propagates():
    class Abort(RuntimeError):
        pass

    def cb(theta1):
        if theta1[0] > 0.9:
            raise Abort

    with pytest.raises(Abort):
        integrate(**logistic(0.5, 5.0, 1e-8, eps=math.exp(-1.0)), step_callback=cb)


def test_dense_output_out_of_range():
    last = LastStep()
    args = logistic(0.5, 1.0, 1e-8, eps=math.exp(-1.0))
    res = integrate(**args, step_callback=last)
    s, u = res.step_ends
    assert res.s_max == s[-1]
    np.testing.assert_array_equal(last.theta, np.exp(u[-1]))
    # A relative 1e-12 past the end reads the value at the end.
    np.testing.assert_array_equal(res(res.s_max * (1 + 1e-12) + 1e-15), u[-1])
    for s in (1.5, res.s_max * (1 + 1e-11), -1e-300, np.nan):
        with pytest.raises(OutOfRange):
            res(s)


@pytest.mark.parametrize("s_end", [1e-14, 1e-15, 0.0, -1.0, np.nan])
def test_span_too_short_for_one_step_is_out_of_range(s_end):
    def f(x, out):
        raise AssertionError("no stage may be evaluated")

    args = {**logistic(0.5, 1.0, 1e-8), "f": f, "s_end": s_end}
    with pytest.raises(OutOfRange):
        integrate(**args)


def test_shortest_span_takes_one_step():
    args = {**logistic(0.5, 1.0, 1e-8), "s_end": 2e-14}
    res = integrate(**args)
    assert res.stats.steps == 1 and res.s_max == 2e-14


def test_callback_returning_true_ends_the_run_at_that_step():
    seen = []

    def cb(theta1):
        seen.append(theta1)
        return theta1[0] > 0.5

    args = logistic(1e-3, 20.0, 1e-9)
    res = integrate(**args, step_callback=cb)
    assert [theta[0] > 0.5 for theta in seen] == [False] * (len(seen) - 1) + [True]
    assert res.stats.steps == len(seen)
    s, u = res.step_ends
    np.testing.assert_array_equal(seen, np.exp(u[1:]))
    # The dense output covers [0, s] for that step's endpoint s and no further.
    assert res.s_max == s[-1] < args["s_end"]
    np.testing.assert_array_equal(res(res.s_max), u[-1])
    with pytest.raises(OutOfRange):
        res(res.s_max + 1e-6)


def simulated(d, seed, eps, s_end=None, k=None):
    """The flow ``simulate`` integrates for ``generate_direct(d, seed)`` from
    C = 1 and k (default 1), with its h_stab cap, up to ``s_end`` (default
    s*)."""
    inst, _ = generate_direct(d, seed)
    init = Initialization(C=np.ones(d), k=np.ones(d) if k is None else k, epsilon=eps)
    if s_end is None:
        s_end = compute_path(inst, init.k).s_star
    with recorded_integrate(run=False) as calls:
        dynamics.simulate(inst, init, s_end)
    args = calls[0]
    del args["step_callback"], args["steps"]
    return args, (inst.M, inst.r)


REFERENCE_CASES = {
    "logistic": lambda: (logistic(1e-6, 20.0, 1e-9), ([[1.0]], [1.0])),
    "decay-max-step": lambda: (decay(2.0, 1e-6, max_step=0.005), ([[0.0]], [-1.0])),
    "rejections": lambda: simulated(4, 7, 1e-12, 2.0),
    "callback-stop": lambda: (logistic(1e-6, 20.0, 1e-9), ([[1.0]], [1.0])),
    "extreme-d32": lambda: simulated(32, 3, 1e-300),
}
# Roundoff tolerance on w, relative to 1 + |w|: the loop and the reference
# evaluate the right-hand side in different orders, and a state carries
# the difference of each step it went through. Fixed from the dtype.
STATE_RTOL = 1000 * np.finfo(float).eps


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_loop_matches_the_reference_bit_for_bit(case):
    """Bit for bit in what the step controller decides: the same accepted
    and rejected steps. The states agree to roundoff."""
    args, (M, r) = REFERENCE_CASES[case]()
    log_eps = args["log_eps"]
    stop = (lambda theta: theta[0] > 0.5) if case == "callback-stop" else None
    # The reference loop hands its stop w, so both stops decide on theta.
    reference_stop = None if stop is None else (lambda w: stop(np.exp(w * log_eps)))
    calls, reference_calls = [], []

    def callback(theta):
        calls.append(theta)
        return stop is not None and stop(theta)

    res = integrate(**args, step_callback=callback)
    M, r = np.asarray(M, dtype=float), np.asarray(r, dtype=float)
    # simulate's runs jump over quiet stretches; the reference is handed the
    # flow and delta and forms its own thresholds, in w.
    quiet = (QUIET_DELTA, M, r, log_eps) if "quiet" in args else None
    ref = integrate_reference(lambda s, y: M @ np.exp(y * log_eps) - r, 0.0,
                              args["w0"], args["s_end"], rtol=0.0,
                              atol=args["tol"], max_step=args["max_step"],
                              step_callback=lambda *step: reference_calls.append(step),
                              stop=reference_stop, quiet=quiet)
    # The same steps, accepted and rejected, and the same jumps.
    assert (res.stats.steps, res.stats.rejected, res.stats.jumps,
            res.stats.rhs_evaluations) == (ref.stats.steps, ref.stats.rejected,
                                           ref.stats.jumps, ref.stats.rhs_evaluations)
    assert res.stats.max_step == pytest.approx(ref.stats.max_step, rel=1e-9)
    if case == "rejections":
        assert res.stats.rejected > 0
    if case == "extreme-d32":
        # More steps than a run at the h_stab cap, and more than the 64
        # rows the dense buffer starts with, so the buffer grew; the longest
        # steps are at the cap, and quiet stretches were jumped.
        assert res.stats.steps > args["s_end"] / args["max_step"] > 64
        assert res.stats.max_step == args["max_step"]
        assert res.stats.jumps > 0
    # Step sizes follow the error estimate, a difference of nearly equal
    # stages, so they agree only to about 1e-11; the states on a common
    # grid agree to roundoff. The loop's dense output is in u = log_eps * w.
    assert res.s_max == pytest.approx(ref.s, rel=1e-9)
    s = np.linspace(0.0, min(res.s_max, ref.s), 1001)
    theirs = ref.dense(s)
    assert np.max(np.abs(res(s) / log_eps - theirs) / (1.0 + np.abs(theirs))) <= STATE_RTOL
    # The hook saw as many steps, each with theta = exp(u).
    assert len(calls) == len(reference_calls)
    np.testing.assert_array_equal(calls, np.exp(res.step_ends[1][1:]))


@pytest.mark.parametrize("d, seed", [(4, 7), (16, 3)])
def test_a_jump_over_the_converged_tail_keeps_w_within_delta(d, seed):
    """At eps = 1e-12 the one quiet stretch is the converged tail, so the
    run takes the steps of the jump-free run up to it, then one jump to
    s_end. The jump starts where every coordinate matters and the computed
    |r - M theta| <= delta r. Its true value is within the roundoff
    gamma (|M| theta* + r) of that, gamma = (d + 1) e for unit roundoff e
    (the product with [M, -r]), and M^{-1} >= 0, so
    |theta - theta*| <= M^{-1} (delta r + gamma (|M| theta* + r)) =: b theta*.
    The jump-free run stays in that band of theta*, which it tends to, so
    the two differ in w by at most 2 log(1 / (1 - b)) / |log eps|."""
    args, (M, r) = simulated(d, seed, 1e-12, s_end=20.0)
    jumping = integrate(**args)
    free = integrate(**{key: value for key, value in args.items() if key != "quiet"})
    assert (jumping.stats.jumps, free.stats.jumps) == (1, 0)
    assert jumping.stats.steps < free.stats.steps
    theta_star = np.linalg.solve(M, r)
    gamma = (d + 1) * np.finfo(float).eps / 2
    b = np.max(np.linalg.solve(M, QUIET_DELTA * r + gamma * (np.abs(M) @ theta_star + r))
               / theta_star)
    s = np.linspace(0.0, args["s_end"], 2001)
    gap = np.abs(jumping(s) - free(s)) / -args["log_eps"]
    assert np.max(gap) <= -2.0 * math.log1p(-b) / -args["log_eps"]


@pytest.mark.parametrize("case", ["rejections", "extreme-d32"])
def test_a_hook_that_never_stops_changes_nothing(case):
    """Bit for bit the run without a hook; the theta it keeps from each step
    is its own copy, exp(u) at the step's end. The extreme case grows its row buffer."""
    args, _ = REFERENCE_CASES[case]()
    kept = []
    plain = integrate(**args)
    hooked = integrate(**args, step_callback=lambda theta: kept.append(theta))
    if case == "extreme-d32":
        assert plain.stats.steps > max(64, args["s_end"] / args["max_step"])
    assert hooked.stats == plain.stats
    for ours, theirs in zip(hooked.step_ends, plain.step_ends):
        np.testing.assert_array_equal(ours, theirs)
    np.testing.assert_array_equal(kept, np.exp(plain.step_ends[1][1:]))
    knots = plain.step_ends[0]
    s = np.concatenate([knots, (knots[:-1] + knots[1:]) / 2])
    np.testing.assert_array_equal(hooked(s), plain(s))


SUBNORMAL_CASES = {
    "extreme-d32": REFERENCE_CASES["extreme-d32"],
    "eps-5e-324": lambda: simulated(8, 3, 5e-324),
    "spread-k": lambda: simulated(8, 3, 1e-300,
                                  k=np.linspace(0.5, 2.0, 8)[[0, 1, 6, 3, 4, 5, 2, 7]]),
}


@pytest.mark.parametrize("case", SUBNORMAL_CASES)
def test_no_stage_theta_is_subnormal(case):
    """Each run starts a coordinate below the floor, at u = k log eps, and
    at eps = 5e-324 inside the subnormal band. Each stage starts from
    max(u, floor) until every coordinate has climbed to the floor, and a
    coordinate that tiny has Q > 0 (M's off-diagonal entries are
    nonpositive), so every theta f sees is exp(floor) or more. With k
    spread over [0.5, 2], coordinates 3, 7 and 2 reach the floor at three
    different step ends, and 7 starts lowest, so a floor lifted when the
    first coordinate reaches it, or when the one lowest at the start does,
    fails."""
    args, _ = SUBNORMAL_CASES[case]()
    assert args["log_eps"] * args["w0"].max() < _FLOOR
    f, smallest = args["f"], []

    def spy(x, out):
        smallest.append(x[:-1].min())
        f(x, out)

    res = integrate(**{**args, "f": spy})
    assert len(smallest) == res.stats.rhs_evaluations
    assert min(smallest) >= math.exp(_FLOOR) > np.finfo(float).tiny
    if case == "spread-k":
        u = res.step_ends[1]
        crossed = np.argmax(u >= _FLOOR, axis=0)
        assert u[0].argmin() == 7 and 0 < crossed[3] < crossed[7] < crossed[2]


def test_the_tableau_the_loop_reads():
    """Row sums of A are the stage abscissae, A is explicit, and its last
    row, the propagating weights B (FSAL), is exact on c^k up to order 5;
    E is exact on c^k up to order 4, which tells E from D; all to 4 ulps."""
    c = np.array(_C)
    assert np.all(np.abs(_A.sum(axis=1) - c) <= 4 * np.spacing(c))
    np.testing.assert_array_equal(_A, np.tril(_A, -1))
    # The weights are O(1), so 4 ulps of 1 bound these sums.
    ulp4 = 4 * np.finfo(float).eps
    for k in range(5):
        assert abs(_A[6].dot(c**k) - 1 / (k + 1)) <= ulp4
    for k in range(4):
        assert abs(_E.dot(c**k)) <= ulp4
    assert abs(_D.sum()) <= ulp4
