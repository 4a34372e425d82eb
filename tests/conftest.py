import inspect
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from dlnflow import Initialization, ProblemInstance, dynamics, generate_direct
from dlnflow.errors import DimensionMismatch, DomainError, NotReached
from dlnflow.integrate import integrate
from dlnflow.problem import to_json_dict


def random_k_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    """Symmetric, strictly diagonally dominant, nonpositive off-diagonals.

    Independent of the package's instance generator on purpose: property
    tests should not inherit its construction choices.
    """
    off = np.triu(-rng.uniform(0.0, 1.0, size=(d, d)), k=1)
    off = off + off.T
    diag = np.abs(off).sum(axis=1) + rng.uniform(0.2, 1.5, size=d)
    return off + np.diag(diag)


def scalar_logistic(t, theta0, rate=1.0, limit=1.0):
    """Closed form of theta' = theta (rate - (rate/limit) theta)."""
    c = limit / theta0 - 1.0
    return limit / (1.0 + c * np.exp(-rate * t))


@contextmanager
def deadline(seconds: int):
    """Raise ``TimeoutError`` inside the block once ``seconds`` have passed,
    so that a loop that never ends fails the test instead of hanging it."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


_GEN_D2 = to_json_dict(generate_direct(2, 1)[0])  # what `gen --d 2 --seed 1` writes
_X_AND_Y = "an instance must give both X and y, or neither"

# Instance files whose (X, y) disagree with their (M, r); each case gives
# the file's object, the error that loading it raises, and its message.
# Each once loaded at exit 0 with a wrong loss offset, or X silently dropped.
BAD_DATA_FILES = {
    "y inconsistent": ({**_GEN_D2, "y": [100.0, 100.0]}, DomainError,
                       "the data do not reproduce r"),
    "X too wide": ({**_GEN_D2, "X": [row + [0.0] for row in _GEN_D2["X"]]},
                   DimensionMismatch, "X has 3 columns, not d = 2"),
    "X without y": ({key: v for key, v in _GEN_D2.items() if key != "y"},
                    DomainError, _X_AND_Y),
    "y without X": ({key: v for key, v in _GEN_D2.items() if key != "X"},
                    DomainError, _X_AND_Y),
}


def random_instance(rng: np.random.Generator, d: int) -> ProblemInstance:
    M = random_k_matrix(rng, d)
    r = rng.uniform(0.3, 2.0, size=d)
    return ProblemInstance(M=M, r=r)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def tridiag_instance():
    """M = [[2,-1],[-1,2]], r = (1,1): the smallest coupled example."""
    return ProblemInstance(M=[[2.0, -1.0], [-1.0, 2.0]], r=[1.0, 1.0])


@pytest.fixture
def separable_instance():
    """M = I_2, r = (2,1): coordinates evolve as independent logistics."""
    return ProblemInstance(M=np.eye(2), r=[2.0, 1.0])


class _NotIntegrated(Exception):
    """Ends the block of ``recorded_integrate(run=False)`` at the call."""


@contextmanager
def recorded_integrate(run: bool = True, budget: int | None = None):
    """Inside the block, ``dynamics.integrate`` appends the arguments of each
    call, by keyword, to the yielded list, and runs as usual. Each record's
    ``"steps"`` lists the theta of every call of its step callback; a call
    without one stays without one and records none.
    With ``run=False`` the block ends at the first call instead.
    With a ``budget``, every call gets a hook and records its thetas; the
    hook fails the test once it has been called more than ``budget`` times,
    at step and jump ends, so that a run that would not end fails by count,
    not by hanging. It returns what the run's own hook returns, so the run
    is the same bit for bit."""
    calls = []
    signature = inspect.signature(integrate)

    def spy(*args, **kwargs):
        arguments = signature.bind(*args, **kwargs).arguments
        callback, steps = arguments.get("step_callback"), []

        def hook(theta):
            steps.append(theta)
            if budget is not None and len(steps) > budget:
                pytest.fail(f"integrate passed {budget} step and jump ends")
            return callback is not None and callback(theta)

        calls.append({**arguments, "steps": steps})
        if not run:
            raise _NotIntegrated
        unhooked = callback is None and budget is None
        return integrate(**{**arguments, "step_callback": None if unhooked else hook})

    with pytest.MonkeyPatch.context() as m:
        m.setattr(dynamics, "integrate", spy)
        try:
            yield calls
        except _NotIntegrated:
            pass


def hit_or_not_reached(hit, *args):
    """``hit(*args)``, or ``"not reached"`` where it raises ``NotReached``."""
    try:
        return hit(*args)
    except NotReached:
        return "not reached"


def hitting_stop(target: np.ndarray, eta: float):
    """The stop ``hitting_time`` hands ``integrate`` for the eta-ball around
    ``target``, on the instance M = I, r = target, whose M^{-1} r is
    ``target`` bit for bit."""
    instance = ProblemInstance(M=np.eye(target.size), r=target)
    assert np.array_equal(instance.minimizer(), target)
    init = Initialization(C=np.ones(target.size), k=np.ones(target.size),
                          epsilon=1e-12)
    with recorded_integrate(run=False) as calls:
        dynamics.hitting_time(instance, init, eta, s_cap=1.0)
    return calls[0]["step_callback"]
