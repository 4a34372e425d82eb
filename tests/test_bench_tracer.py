"""The benchmark's tracer wraps dlnflow attributes by name; each must stay
where ``Tracer._patch`` reads it, in its owner's own ``__dict__``."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from dlnflow import (Initialization, compute_path, dynamics, generate_direct,
                     save_instance)
from dlnflow.cli import main

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
    # Only a run with a stop has a step callback, called at every step and
    # jump end; one without makes no call.
    instance, _ = generate_direct(4, 7)
    init = Initialization(C=np.ones(4), k=np.ones(4), epsilon=1e-12)
    recorder = tracer.Tracer()
    with recorder.installed(), recorder.op(0):
        stats = dynamics.simulate(instance, init, 2.0, stop=lambda theta: False).stats
    with recorder.installed(), recorder.op(1):
        dynamics.simulate(instance, init, 2.0)
    counts = recorder.counts[0]
    assert stats.steps > 0 and stats.rejected > 0
    assert counts["integrate.steps"] == stats.steps
    assert counts["integrate.rejected"] == stats.rejected
    assert counts["integrate.rhs.calls"] == stats.rhs_evaluations
    assert counts["integrate.callback.calls"] == stats.steps + stats.jumps
    assert recorder.counts[1]["integrate.steps"] == stats.steps
    assert recorder.counts[1]["integrate.callback.calls"] == 0


def test_path_and_writer_counters_match_what_limit_path_made(tracer, tmp_path):
    # The tracer's hooks read len(path.segments) from compute_path and the
    # Path that write_csv / write_json return; a record that drops either
    # breaks the traced benchmark.
    instance, _ = generate_direct(6, 3)
    save_instance(instance, tmp_path / "inst.json")
    out_json, out_csv = tmp_path / "path.json", tmp_path / "path.csv"
    recorder = tracer.Tracer()
    with recorder.installed(), recorder.op(0):
        result = CliRunner().invoke(main, [
            "limit-path", "--instance", str(tmp_path / "inst.json"),
            "--out-json", str(out_json), "--out-csv", str(out_csv)],
            catch_exceptions=False)
    assert result.exit_code == 0
    counts = recorder.counts[0]
    path = compute_path(instance, np.ones(6))
    assert counts["limit_path.segments"] == len(path.segments)
    assert counts["experiments.bytes_written"] == (out_json.stat().st_size
                                                   + out_csv.stat().st_size) > 0
