"""The benchmark's tracer wraps dlnflow attributes by name; each must stay
where ``Tracer._patch`` reads it, in its owner's own ``__dict__``."""

import importlib.util
from pathlib import Path

import pytest

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
