"""Tests of the benchmark's own logic (not of dlnflow).

    python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from dlnflow import cli

import run
from tracer import Tracer
from workloads import WORKLOADS

SMALL = {
    "limit-path-d128": dict(d=6),
    "compare-d8": dict(d=3, epsilons=(1e-8, 1e-12)),
    "hitting-extreme-d32": dict(d=3, epsilons=(1e-8, 1e-30)),
}


def small(name):
    return dataclasses.replace(WORKLOADS[name], **SMALL[name])


def make_runner(tmp_path, workload, seed=5, cli_main=cli.main, pool=2):
    work = Path(tempfile.mkdtemp(dir=tmp_path)) / "work"
    runner = run.Runner(dataclasses.replace(workload, pool=pool), seed, work, cli_main)
    runner.setup()
    return runner


def option(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


class FlakyCli:
    """Calls the real CLI, except that chosen instances misbehave."""

    def __init__(self, behaviour):
        self.behaviour = behaviour

    def main(self, args, **kwargs):
        index = int(re.search(r"instance-(\d+)\.json", " ".join(args)).group(1))
        action = self.behaviour.get(index)
        if isinstance(action, int):
            sys.exit(action)
        if action == "raise":
            raise RuntimeError("boom")
        cli.main.main(args=args, **kwargs)
        if action == "corrupt":
            Path("path.json").write_text('{"s_star": ')


def test_corrupted_artifact_counts_as_failed(tmp_path):
    runner = make_runner(tmp_path, small("limit-path-d128"),
                         cli_main=FlakyCli({1: "corrupt"}))
    good, bad = (runner.op(inp) for inp in runner.inputs)
    assert good.ok
    assert not bad.ok and "check failed" in bad.reason


@pytest.mark.parametrize("action", [2, 3, 4, "raise"])
def test_failing_op_is_counted_and_the_run_goes_on(tmp_path, action):
    runner = make_runner(tmp_path, small("limit-path-d128"), pool=3,
                         cli_main=FlakyCli({1: action}))
    results, _ = runner.passes(seconds=0.3)
    assert len(results) >= 3
    assert all(r.ok == (r.index != 1) for r in results)
    metrics = run.end_to_end(results, setup_s=1.0)
    ok = sum(r.ok for r in results)
    assert metrics["ops_per_s"]["value"] == ok / sum(run.scaled(results, "wall_s"))


def test_times_are_scaled_to_reference_speed():
    results = [run.OpResult(index=i, wall_s=1.0 + i, cpu_s=0.5, ok=True,
                            reason="", digest="", scale=2.0) for i in range(3)]
    metrics = run.end_to_end(results, setup_s=1.0)
    assert metrics["op_s_p50"]["value"] == 2.0 * 2.0
    assert metrics["op_cpu_s_p50"]["value"] == 2.0 * 0.5
    assert metrics["ops_per_s"]["value"] == 3 / (2.0 * (1.0 + 2.0 + 3.0))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_instances_but_not_sizes(tmp_path, name):
    workload = WORKLOADS[name]
    a = workload.make_input(1, 0, tmp_path)
    b = workload.make_input(2, 0, tmp_path)
    assert a.instance.d == b.instance.d == workload.d
    assert not np.array_equal(a.instance.M, b.instance.M)
    assert option(workload.argv(a), "--epsilons") == option(workload.argv(b), "--epsilons")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(tmp_path, name):
    def counts(seed):
        runner = make_runner(tmp_path, small(name), seed=seed)
        tracer = Tracer()
        untraced, traced = runner.passes(0.0, tracer)
        assert all(r.ok for r in untraced + traced)
        metrics = run.per_layer(tracer, untraced, traced)
        return {k: v["value"] for k, v in metrics.items() if v["unit"] != "s"}

    first, second = counts(7), counts(7)
    assert first == second
    assert first["problem.load_calls"] == 1
    assert first["limit_path.segments"] > 0
    if name == "limit-path-d128":
        assert first["integrate.steps"] == first["dynamics.dense_calls"] == 0
    else:
        assert first["integrate.steps"] > 0 and first["dynamics.dense_calls"] > 0


def test_tracer_restores_the_program(tmp_path):
    from dlnflow import dynamics, lcp
    before = (lcp.solve_lcp, dynamics.integrate, dynamics.Trajectory.loss_values)
    with Tracer().installed():
        assert lcp.solve_lcp is not before[0]
    assert (lcp.solve_lcp, dynamics.integrate,
            dynamics.Trajectory.loss_values) == before


def test_same_seed_gives_same_artifact_digests(tmp_path):
    workload = small("compare-d8")
    digests = []
    for seed in (3, 3, 4):
        runner = make_runner(tmp_path, workload, seed=seed)
        runner.passes(seconds=0.0)
        runner.op(runner.inputs[1])
        assert not runner.findings
        digests.append(runner.digests)
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_exits_nonzero_without_the_program(tmp_path):
    root = Path(run.__file__).resolve().parents[1]
    shutil.copytree(root / "bench", tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "compare-d8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_names_what_run_reports(tmp_path):
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    runner = make_runner(tmp_path, small("compare-d8"))
    tracer = Tracer()
    untraced, traced = runner.passes(0.0, tracer)
    reported = {**run.end_to_end(untraced, setup_s=1.0),
                **run.per_layer(tracer, untraced, traced)}
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert {name: m["unit"] for name, m in reported.items()} == declared
