"""The benchmark's tracer wraps dlnflow attributes by name; each must stay
where ``Tracer._patch`` reads it, in its owner's own ``__dict__``."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dlnflow import Initialization, dynamics, generate_direct

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrapped_attributes(tracer):
    return ([(owner, attribute) for owner, attribute, _ in tracer.SPANS + tracer.LEAVES]
            + [("dynamics", "integrate"), ("integrate.DenseOutput", "__call__")])


def test_wrapped_attributes_are_owned(tracer):
    for owner, attribute in wrapped_attributes(tracer):
        assert attribute in vars(tracer._resolve(owner)), f"{owner}.{attribute}"


def test_install_restores_every_attribute(tracer):
    attributes = wrapped_attributes(tracer)
    before = [vars(tracer._resolve(owner))[attr] for owner, attr in attributes]
    with tracer.Tracer().installed():
        during = [vars(tracer._resolve(owner))[attr] for owner, attr in attributes]
    after = [vars(tracer._resolve(owner))[attr] for owner, attr in attributes]
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, after))


def test_integrator_counters_match_its_stats(tracer):
    # The tracer binds integrate's f and step_callback by name and reads the
    # result's stats; its counters must agree with what the integrator says.
    instance, _ = generate_direct(4, 7)
    init = Initialization(C=np.ones(4), k=np.ones(4), epsilon=1e-12)
    recorder = tracer.Tracer()
    with recorder.installed(), recorder.op(0):
        stats = dynamics.simulate(instance, init, 2.0).stats
    counts = recorder.counts[0]
    assert stats.steps > 0 and stats.rejected > 0
    assert counts["integrate.steps"] == stats.steps
    assert counts["integrate.rejected"] == stats.rejected
    assert counts["integrate.rhs.calls"] == stats.rhs_evaluations
    assert counts["integrate.callback.calls"] == stats.steps
