import csv
import json

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import BAD_DATA_FILES, deadline, recorded_integrate
from dlnflow import (compute_path, dynamics, experiments, generate_direct, lcp,
                     problem, save_instance)
from dlnflow.cli import main
from dlnflow.errors import (
    BudgetExceeded,
    MaxIterations,
    NumericalFailure,
    StepUnderflow,
    ValidationError,
)
from oracles import csv_bytes


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


def read_csv_cells(path):
    """Header and string cells of a ``# dlnflow-csv v1`` file."""
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    return lines[1], lines[2:]


TRIDIAG_JSON = {
    "M": [[2.0, -1.0], [-1.0, 2.0]],
    "r": [1.0, 1.0],
    "meta": {},
}

# Satisfies A1 and A2, but M is singular: not a K-matrix.
SINGULAR_JSON = {
    "M": [[1.0, -1.0], [-1.0, 1.0]],
    "r": [1.0, 1.0],
    "meta": {},
}

# Arguments of every command that reads an instance, given the instance
# path and an output directory that must stay absent.
INSTANCE_COMMANDS = {
    "simulate": lambda inst, out: [
        "simulate", "--instance", inst, "--epsilon", "1e-8", "--s-max", "1.0",
        "--out", f"{out}/t.csv"],
    "limit-path": lambda inst, out: [
        "limit-path", "--instance", inst, "--out-json", f"{out}/path.json"],
    "fixed-points": lambda inst, out: ["fixed-points", "--instance", inst],
    "compare": lambda inst, out: [
        "--out-dir", out, "compare", "--instance", inst, "--epsilons", "1e-8"],
    "hitting-time": lambda inst, out: [
        "--out-dir", out, "hitting-time", "--instance", inst,
        "--epsilons", "1e-8"],
    "figure1": lambda inst, out: [
        "--out-dir", out, "figure1", "--instance", inst, "--epsilons", "1e-8"],
}


class TestGen:
    def test_direct(self, runner, tmp_path):
        out = tmp_path / "inst.json"
        result = invoke(runner, ["gen", "--d", "3", "--seed", "4",
                                 "--out", str(out)])
        assert result.exit_code == 0
        obj = json.loads(out.read_text())
        assert len(obj["M"]) == 3
        assert obj["meta"]["generator"] == "direct"

    def test_rejection_deterministic(self, runner, tmp_path):
        texts = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            result = invoke(runner, ["gen", "--d", "2", "--n", "3", "--seed",
                                     "7", "--generator", "rejection",
                                     "--out", str(out)])
            assert result.exit_code == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]

    def test_group_seed_fallback(self, runner, tmp_path):
        # The seed belongs to gen alone; there is no group-level --seed.
        out = tmp_path / "inst.json"
        result = runner.invoke(main, ["--seed", "9", "gen", "--d", "2",
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert "No such option" in result.output
        assert not out.exists()

    def test_budget_exit_code(self, runner, tmp_path):
        result = runner.invoke(main, [
            "gen", "--d", "12", "--n", "3", "--seed", "1",
            "--generator", "rejection", "--max-attempts", "5",
            "--out", str(tmp_path / "x.json"),
        ])
        assert result.exit_code == 4

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_nonpositive_budget_exit_code(self, runner, tmp_path, budget):
        out = tmp_path / "x.json"
        result = runner.invoke(main, [
            "gen", "--generator", "rejection", "--n", "3", "--d", "2",
            "--seed", "7", "--max-attempts", budget, "--out", str(out),
        ])
        assert result.exit_code == 2
        assert "max_attempts must be at least 1" in result.output
        assert not out.exists()

    def test_failed_write_leaves_no_temp_file(self, runner, tmp_path):
        # --out names an existing directory, so the final rename fails.
        out = tmp_path / "taken"
        out.mkdir()
        result = runner.invoke(main, ["gen", "--d", "2", "--seed", "1",
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert "error: " in result.output and "Traceback" not in result.output
        assert list(tmp_path.glob("*.tmp")) == []


    @pytest.mark.parametrize("route", ["gen", "resolve_instance"])
    def test_rejection_spec_factors_once(self, runner, tmp_path, monkeypatch,
                                         route):
        cho_factor = lcp.cho_factor
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return cho_factor(*args, **kwargs)

        monkeypatch.setattr(lcp, "cho_factor", counting)
        if route == "gen":
            result = invoke(runner, ["gen", "--d", "2", "--n", "3", "--seed", "7",
                                     "--generator", "rejection",
                                     "--out", str(tmp_path / "inst.json")])
            assert result.exit_code == 0
        else:
            spec = {"generator": "rejection", "n": 3, "d": 2, "seed": 7}
            problem.resolve_instance(spec)
        assert len(calls) == 1


class TestLcpSolve:
    def test_example(self, runner, tmp_path):
        p = tmp_path / "lcp.json"
        p.write_text(json.dumps({"q": [-1, -1], "M": [[2, -1], [-1, 2]]}))
        result = invoke(runner, ["lcp-solve", "--input", str(p)])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj["schema"] == "dlnflow-lcp v1"
        np.testing.assert_allclose(obj["z"], [1.0, 1.0], atol=1e-10)
        np.testing.assert_allclose(obj["w"], [0.0, 0.0], atol=1e-10)
        assert obj["support"] == [0, 1]

    def test_coordinates_far_below_the_largest(self, runner, tmp_path):
        p = tmp_path / "lcp.json"
        p.write_text(json.dumps({"q": [-1e-13, -1], "M": [[1, 0], [0, 1]]}))
        result = invoke(runner, ["lcp-solve", "--input", str(p)])
        obj = json.loads(result.output)
        assert obj["z"] == [1e-13, 1.0]
        assert obj["w"] == [0.0, 0.0]
        assert obj["support"] == [0, 1]

    def test_non_k_matrix_exit_code(self, runner, tmp_path):
        p = tmp_path / "lcp.json"
        p.write_text(json.dumps({"q": [1, 1], "M": [[1, 2], [2, 1]]}))
        result = runner.invoke(main, ["lcp-solve", "--input", str(p)])
        assert result.exit_code == 2


class TestFixedPoints:
    def test_counts(self, runner, tmp_path):
        p = tmp_path / "inst.json"
        p.write_text(json.dumps(TRIDIAG_JSON))
        result = invoke(runner, ["fixed-points", "--instance", str(p)])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert len(obj["points"]) == 4

    def test_coordinates_far_below_the_largest(self, runner, tmp_path):
        inst = _instance(tmp_path, {"M": [[1.0, 0.0], [0.0, 1.0]],
                                    "r": [1e-13, 1.0]})
        result = invoke(runner, ["fixed-points", "--instance", inst])
        assert result.exit_code == 0
        points = json.loads(result.output)["points"]
        assert points[-1]["theta"] == [1e-13, 1.0]

    def test_dimension_too_large_exit_code(self, runner, tmp_path):
        inst = tmp_path / "d21.json"
        save_instance(generate_direct(21, 3)[0], inst)
        result = runner.invoke(main, ["fixed-points", "--instance", str(inst)])
        assert result.exit_code == 2


class TestSimulate:
    def test_csv_schema(self, runner, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(TRIDIAG_JSON))
        out = tmp_path / "traj.csv"
        result = invoke(runner, [
            "simulate", "--instance", str(inst), "--epsilon", "1e-10",
            "--s-max", "2.0", "--grid", "50", "--out", str(out),
        ])
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# dlnflow-csv v1 trajectory")
        header = lines[1].split(",")
        assert header == ["s", "t", "theta_1", "theta_2", "w_1", "w_2",
                          "loss", "avg_1", "avg_2"]
        data = np.loadtxt(out, delimiter=",", skiprows=2)
        assert data.shape == (50, 9)
        assert np.all(np.isfinite(data))
        # Loss column is nonincreasing along the flow.
        assert np.max(np.diff(data[:, 6])) <= 1e-9

    def test_eigenvalues_far_apart(self, runner, tmp_path):
        # The step cap weighs each coordinate by its own cap on theta, so
        # M_00 = 1e-300 (theta*_0 = 1e300) no longer shrinks every step.
        inst = _instance(tmp_path, {"M": [[1e-300, 0.0], [0.0, 1.0]],
                                    "r": [1.0, 1.0]})
        out = tmp_path / "t.csv"
        result = invoke(runner, ["simulate", "--instance", inst,
                                 "--epsilon", "1e-12", "--s-max", "3",
                                 "--out", str(out)])
        assert result.exit_code == 0
        assert np.all(np.isfinite(np.loadtxt(out, delimiter=",", skiprows=2)))

    def test_assumption_violation_exit_code(self, runner, tmp_path):
        inst = tmp_path / "bad.json"
        inst.write_text(json.dumps({"M": [[1.0, 0.5], [0.5, 1.0]],
                                    "r": [1.0, 1.0], "meta": {}}))
        result = runner.invoke(main, [
            "simulate", "--instance", str(inst), "--epsilon", "1e-8",
            "--s-max", "1.0", "--out", str(tmp_path / "t.csv"),
        ])
        assert result.exit_code == 2

    def test_numerical_failure_exit_code(self, runner, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(TRIDIAG_JSON))
        result = runner.invoke(main, [
            "simulate", "--instance", str(inst), "--epsilon", "0.9",
            "--C", "10,10", "--s-max", "1.0",
            "--out", str(tmp_path / "t.csv"),
        ])
        assert result.exit_code == 3


class TestLimitPath:
    def test_json_and_csv(self, runner, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(TRIDIAG_JSON))
        out_json = tmp_path / "path.json"
        out_csv = tmp_path / "path.csv"
        result = invoke(runner, [
            "limit-path", "--instance", str(inst),
            "--out-json", str(out_json), "--out-csv", str(out_csv),
        ])
        assert result.exit_code == 0
        obj = json.loads(out_json.read_text())
        assert set(obj) == {"schema", "breakpoints", "s_star", "active_sets",
                            "fixed_points"}
        assert obj["s_star"] == pytest.approx(1.0)
        assert obj["active_sets"][0] == []
        assert obj["active_sets"][-1] == [0, 1]
        assert out_csv.exists()

    def test_d128_artifacts_equal_the_reference_writers(self, runner, tmp_path):
        # path.csv cell by cell from LimitPath.sample, and path.json as
        # json.dumps of its documented keys, byte for byte.
        inst, _ = generate_direct(128, 11)
        save_instance(inst, tmp_path / "inst.json")
        k = np.random.default_rng(11).uniform(0.3, 3.0, size=128)
        out_json, out_csv = tmp_path / "path.json", tmp_path / "path.csv"
        result = invoke(runner, [
            "limit-path", "--instance", str(tmp_path / "inst.json"),
            "--k", ",".join(map(repr, k.tolist())),
            "--out-json", str(out_json), "--out-csv", str(out_csv)])
        assert result.exit_code == 0
        path = compute_path(inst, k)
        s = np.linspace(0.0, 1.5 * path.s_star, 200)
        theta, mu = path.sample(s)
        header = (["s"] + [f"mu_{i + 1}" for i in range(128)]
                  + [f"theta_star_{i + 1}" for i in range(128)])
        rows = np.column_stack([s, mu, theta]).tolist()
        assert out_csv.read_bytes() == csv_bytes("limit-path", header, rows)
        assert out_json.read_bytes() == json.dumps({
            "schema": "dlnflow-limit-path v1",
            "breakpoints": path.breakpoints.tolist(),
            "s_star": path.s_star,
            "active_sets": [list(seg.active) for seg in path.segments],
            "fixed_points": [seg.theta_star.tolist() for seg in path.segments],
        }).encode()

    def test_coordinates_far_below_the_largest(self, runner, tmp_path):
        inst = _instance(tmp_path, {"M": [[1.0, 0.0], [0.0, 1.0]],
                                    "r": [1e-13, 1.0]})
        out_json = tmp_path / "path.json"
        result = invoke(runner, ["limit-path", "--instance", inst,
                                 "--out-json", str(out_json)])
        assert result.exit_code == 0
        obj = json.loads(out_json.read_text())
        assert obj["s_star"] == pytest.approx(1e13)
        assert obj["active_sets"] == [[], [1], [0, 1]]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_certificate_exit_code(self, runner, tmp_path):
        inst, out = str(tmp_path / "inst.json"), str(tmp_path / "path.json")
        assert invoke(runner, ["gen", "--d", "3", "--seed", "1",
                               "--out", inst]).exit_code == 0
        result = runner.invoke(main, ["limit-path", "--instance", inst,
                                      "--k", "1e308,1e308,1e308", "--out-json", out])
        assert result.exit_code == 3
        assert "fails its KKT certificate" in result.output


class TestExperimentsCommands:
    def test_compare_with_config(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "instance": {"generator": "rejection", "n": 3, "d": 2, "seed": 5},
            "epsilons": [1e-6, 1e-10],
            "grid_points": 120,
        }))
        result = invoke(runner, ["--out-dir", str(tmp_path), "compare",
                                 "--config", str(config)])
        assert result.exit_code == 0
        report = json.loads((tmp_path / "compare.json").read_text())
        assert len(report["rows"]) == 2
        assert report["rows"][0]["epsilon"] == 1e-6

    def test_compare_csv_format(self, runner, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(TRIDIAG_JSON))
        result = invoke(runner, [
            "--out-dir", str(tmp_path), "compare",
            "--instance", str(inst), "--epsilons", "1e-6,1e-10",
            "--grid", "80",
        ])
        assert result.exit_code == 0
        data = np.loadtxt(tmp_path / "compare.csv", delimiter=",", skiprows=2)
        assert data.shape == (2, 6)
        assert np.all(np.isfinite(data))

    def test_partial_results_flushed_to_out_dir(self, runner, tmp_path,
                                                monkeypatch):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(TRIDIAG_JSON))
        simulate = dynamics.simulate
        calls = []

        def fail_on_second(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise StepUnderflow("injected failure")
            return simulate(*args, **kwargs)

        monkeypatch.setattr(dynamics, "simulate", fail_on_second)
        monkeypatch.chdir(tmp_path)
        out_dir = tmp_path / "out"
        result = runner.invoke(main, [
            "--out-dir", str(out_dir), "compare", "--instance", str(inst),
            "--epsilons", "1e-6,1e-10", "--grid", "80",
        ])
        assert result.exit_code == 3
        assert not (tmp_path / "compare.partial.json").exists()
        partial = json.loads((out_dir / "compare.partial.json").read_text())
        assert [row["epsilon"] for row in partial["rows"]] == [1e-6]

    def test_compare_to_the_largest_span(self, runner, tmp_path):
        # Past s* every run is one jump to s_max, however far that is.
        inst = tmp_path / "inst.json"
        save_instance(generate_direct(4, 7)[0], inst)
        with recorded_integrate(budget=1000):
            result = invoke(runner, [
                "--out-dir", str(tmp_path), "compare", "--instance", str(inst),
                "--epsilons", "1e-8,1e-12,1e-300", "--s-max", "1e300"])
        assert result.exit_code == 0
        rows = json.loads((tmp_path / "compare.json").read_text())["rows"]
        assert len(rows) == 3 and all(row["hitting_reached"] for row in rows)

    def test_hitting_time_flags(self, runner, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(TRIDIAG_JSON))
        result = invoke(runner, [
            "--out-dir", str(tmp_path), "hitting-time",
            "--instance", str(inst), "--epsilons", "1e-10",
            "--eta-fraction", "0.2",
        ])
        assert result.exit_code == 0
        table = json.loads((tmp_path / "hitting.json").read_text())
        assert table["rows"][0]["reached"]

    def test_figure1_wrong_dimension(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "instance": {"generator": "direct", "d": 3, "seed": 1},
            "epsilons": [1e-8],
        }))
        result = runner.invoke(main, ["--out-dir", str(tmp_path), "figure1",
                                      "--config", str(config)])
        assert result.exit_code == 2

    def test_figure1_outputs(self, runner, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(TRIDIAG_JSON))
        result = invoke(runner, [
            "--out-dir", str(tmp_path), "figure1", "--instance", str(inst),
            "--epsilons", "1e-8",
        ])
        assert result.exit_code == 0
        assert (tmp_path / "field.csv").exists()
        assert (tmp_path / "fixed_points.json").exists()
        assert (tmp_path / "trajectory_eps_1e-08.csv").exists()

    def test_figure1_names_every_epsilon_apart(self, runner, tmp_path):
        # 1e-8 and 1.2e-8 agree to one significant digit.
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(TRIDIAG_JSON))
        out = tmp_path / "out"
        result = invoke(runner, [
            "--out-dir", str(out), "figure1", "--instance", str(inst),
            "--epsilons", "1e-8,1.2e-8", "--grid", "20",
        ])
        assert result.exit_code == 0
        names = sorted(p.name for p in out.glob("trajectory_eps_*.csv"))
        assert names == ["trajectory_eps_1.2e-08.csv", "trajectory_eps_1e-08.csv"]
        assert result.output.count("wrote") == 4

    def test_partial_results_flushed_on_hitting_failure(self, runner, tmp_path,
                                                        monkeypatch):
        # Any failure inside an epsilon's row flushes the finished rows,
        # not only one in the simulation.
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(TRIDIAG_JSON))
        hitting_time_on = dynamics.hitting_time_on
        calls = []

        def fail_on_second(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise StepUnderflow("injected failure")
            return hitting_time_on(*args, **kwargs)

        monkeypatch.setattr(dynamics, "hitting_time_on", fail_on_second)
        out_dir = tmp_path / "out"
        result = runner.invoke(main, [
            "--out-dir", str(out_dir), "compare", "--instance", str(inst),
            "--epsilons", "1e-6,1e-10", "--grid", "80",
        ])
        assert result.exit_code == 3
        assert "error: injected failure" in result.output
        partial = json.loads((out_dir / "compare.partial.json").read_text())
        assert [row["epsilon"] for row in partial["rows"]] == [1e-6]
        assert not (out_dir / "compare.json").exists()

    def test_report_key_order(self, runner, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(TRIDIAG_JSON))
        for command in ("compare", "hitting-time"):
            result = invoke(runner, ["--out-dir", str(tmp_path), command,
                                     "--instance", str(inst), "--epsilons",
                                     "1e-8"])
            assert result.exit_code == 0
        compare = json.loads((tmp_path / "compare.json").read_text())
        assert list(compare) == [
            "schema", "s_star", "breakpoints", "excluded_windows",
            "average_window", "eta", "state_monotone", "loss_monotone",
            "average_monotone", "rows"]
        hitting = json.loads((tmp_path / "hitting.json").read_text())
        assert list(hitting) == ["schema", "s_star", "eta", "rows"]


class TestUnreachedRows:
    """A CSV keeps one row per epsilon, reached or not (s_max 0.6 < s* = 1)."""

    def test_compare_keeps_unreached_rows(self, runner, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(TRIDIAG_JSON))
        result = invoke(runner, [
            "--out-dir", str(tmp_path), "compare", "--instance", str(inst),
            "--epsilons", "1e-6,1e-10", "--s-max", "0.6",
        ])
        assert result.exit_code == 0
        header, rows = read_csv_cells(tmp_path / "compare.csv")
        assert header == ["epsilon", "state_error", "loss_error",
                          "average_error", "hitting_ratio", "reached"]
        report = json.loads((tmp_path / "compare.json").read_text())
        assert len(rows) == len(report["rows"]) == 2
        for cells, row in zip(rows, report["rows"]):
            assert not row["hitting_reached"]
            assert float(cells[0]) == row["epsilon"]
            assert float(cells[1]) == row["state_error"]
            assert float(cells[2]) == row["loss_error"]
            assert float(cells[3]) == row["average_error"]
            assert cells[4] == ""
            assert float(cells[5]) == 0.0

    def test_hitting_keeps_unreached_rows(self, runner, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(TRIDIAG_JSON))
        result = invoke(runner, [
            "--out-dir", str(tmp_path), "hitting-time", "--instance", str(inst),
            "--epsilons", "1e-6,1e-10", "--s-max", "0.6",
        ])
        assert result.exit_code == 0
        header, rows = read_csv_cells(tmp_path / "hitting.csv")
        assert header == ["epsilon", "ratio", "relative_error", "reached"]
        assert [[float(cells[0])] + cells[1:3] + [float(cells[3])]
                for cells in rows] == [[1e-6, "", "", 0.0], [1e-10, "", "", 0.0]]


class TestInputExitCodes:
    def test_hitting_eta_fraction_out_of_range(self, runner, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(TRIDIAG_JSON))
        result = runner.invoke(main, [
            "--out-dir", str(tmp_path), "hitting-time", "--instance", str(inst),
            "--epsilons", "1e-8", "--eta-fraction", "1.5",
        ])
        assert result.exit_code == 2
        assert not (tmp_path / "hitting.json").exists()

    @pytest.mark.parametrize("command", INSTANCE_COMMANDS)
    def test_singular_instance(self, runner, tmp_path, command):
        inst = tmp_path / "singular.json"
        inst.write_text(json.dumps(SINGULAR_JSON))
        out = tmp_path / "out"
        result = runner.invoke(main, INSTANCE_COMMANDS[command](str(inst), str(out)))
        assert result.exit_code == 2
        assert "error: M is not positive definite" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
    @pytest.mark.parametrize("command", ["lcp-solve", "limit-path", "fixed-points"])
    def test_asymmetry_relative_to_max_m(self, runner, tmp_path, command, scale):
        # A 10% asymmetry is rejected at every scale, a symmetric M accepted:
        # at 1e-200 the asymmetric M once passed and gave a wrong answer.
        def run(off_diagonal):
            M = (scale * np.array([[1.0, -0.1], [off_diagonal, 1.0]])).tolist()
            if command == "lcp-solve":
                return runner.invoke(main, _lcp(tmp_path, [-1.0, -1.0], M))
            inst = _instance(tmp_path, {"M": M, "r": [1.0, 1.0]})
            return runner.invoke(main, INSTANCE_COMMANDS[command](inst, str(tmp_path)))

        rejected = run(-0.2)
        assert rejected.exit_code == 2
        assert rejected.output == ("error: M is not symmetric "
                                   "(max asymmetry 1.000e-01 of max|M|)\n")
        assert run(-0.1).exit_code == 0

    def test_hitting_time_rejects_grid(self, runner, tmp_path):
        # hitting-time samples no grid; only compare and figure1 take --grid.
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(TRIDIAG_JSON))
        result = runner.invoke(main, [
            "--out-dir", str(tmp_path), "hitting-time", "--instance", str(inst),
            "--epsilons", "1e-8", "--grid", "5",
        ])
        assert result.exit_code == 2
        assert "No such option" in result.output and "--grid" in result.output
        assert not (tmp_path / "hitting.json").exists()

    @pytest.mark.parametrize("fraction", [1.5, 0.0, -0.2])
    def test_compare_config_eta_fraction_out_of_range(self, runner, tmp_path,
                                                      fraction):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(TRIDIAG_JSON))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "instance": str(inst), "epsilons": [1e-8],
            "eta_fraction": fraction,
        }))
        result = runner.invoke(main, ["--out-dir", str(tmp_path), "compare",
                                      "--config", str(config)])
        assert result.exit_code == 2
        assert not (tmp_path / "compare.json").exists()

    def test_compare_config_unknown_key(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "instance": {"generator": "direct", "d": 2, "seed": 1},
            "epsilons": [1e-8], "bogus": 1,
        }))
        result = runner.invoke(main, ["--out-dir", str(tmp_path), "compare",
                                      "--config", str(config)])
        assert result.exit_code == 2
        assert not (tmp_path / "compare.json").exists()

    @pytest.mark.parametrize("command, key, value", [
        ("hitting-time", "grid_points", 5),
        ("figure1", "eta_fraction", 0.2),
    ])
    def test_config_key_the_command_does_not_read(self, runner, tmp_path,
                                                  command, key, value):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(TRIDIAG_JSON))
        out = tmp_path / "out"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "instance": str(inst), "epsilons": [1e-8], key: value,
        }))
        result = runner.invoke(main, ["--out-dir", str(out), command,
                                      "--config", str(config)])
        assert result.exit_code == 2
        assert f"error: config keys this command does not read: ['{key}']" \
            in result.output
        assert not out.exists()


# Each experiment command with every option it reads, as flag text and as
# the config value that must behave the same; None is a flag left out.
EVERY_OPTION = {
    "compare": {"epsilons": ("1e-6,1e-10", [1e-6, 1e-10]),
                "C": ("1,2", [1, 2.0]), "k": ("1,1.5", [1, 1.5]),
                "s_max": ("2.0", 2), "grid_points": ("60", "60"),
                "tol": ("1e-10", 1e-10), "eta_fraction": ("0.2", 0.2)},
    "hitting-time": {"epsilons": ("1e-8", 1e-8),
                     "C": ("2,1", [2, 1]), "k": ("1.5,1", [1.5, 1]),
                     "s_max": ("3", 3.0), "tol": ("1e-10", "1e-10"),
                     "eta_fraction": ("0.3", 0.3)},
    "figure1": {"epsilons": ("1e-8,1e-20", [1e-8, 1e-20]),
                "C": (None, None), "k": ("2,1", [2, 1]), "s_max": ("1.5", 1.5),
                "grid_points": ("30", [30]), "tol": ("1e-10", 1e-10)},
}


@pytest.mark.parametrize("command", EVERY_OPTION)
def test_config_sets_what_the_flags_set(runner, tmp_path, command):
    # A config value is read as the text its flag would carry; null is an
    # absent key, and a default equals the flag left out.
    flag = {p.name: p.opts[0] for p in main.commands[command].params}
    options = EVERY_OPTION[command]
    assert set(flag) == {"config", "instance", *options}
    inst = _instance(tmp_path, TRIDIAG_JSON)
    flags = [text for name, (flag_text, _) in options.items()
             if flag_text is not None for text in (flag[name], flag_text)]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"instance": inst, **{
        name: value for name, (_, value) in options.items()}}))
    outputs = []
    for out, args in (("flags", ["--instance", inst, *flags]),
                      ("config", ["--config", str(config)])):
        result = invoke(runner, ["--out-dir", str(tmp_path / out), command, *args])
        assert result.exit_code == 0
        files = sorted((tmp_path / out).iterdir())
        outputs.append((result.output.replace(str(tmp_path / out), "<out>"),
                        [(p.name, p.read_bytes()) for p in files]))
    assert outputs[0] == outputs[1]


def _config(tmp_path, text):
    config = tmp_path / "config.json"
    config.write_text(text)
    return ["compare", "--config", str(config)]


def _spec_config(tmp_path, spec):
    return ["--out-dir", str(tmp_path / "out")] + _config(
        tmp_path, json.dumps({"instance": spec, "epsilons": [1e-8]}))


def _value_config(tmp_path, **values):
    """compare from a config whose other keys are valid."""
    return ["--out-dir", str(tmp_path / "out")] + _config(tmp_path, json.dumps({
        "instance": _instance(tmp_path, TRIDIAG_JSON), "epsilons": [1e-8],
        **values}))


def _instance(tmp_path, obj):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(obj))
    return str(inst)


def _generated(tmp_path):
    """The instance ``gen --d 4 --seed 7`` writes."""
    inst = tmp_path / "inst.json"
    save_instance(generate_direct(4, 7)[0], inst)
    return str(inst)


def _on_instance(tmp_path, command, obj):
    """``simulate`` or ``limit-path`` on the instance ``obj``, writing files."""
    out = {"simulate": ["--epsilon", "1e-8", "--s-max", "1.0",
                        "--out", str(tmp_path / "t.csv")],
           "limit-path": ["--out-json", str(tmp_path / "path.json"),
                          "--out-csv", str(tmp_path / "path.csv")]}[command]
    return [command, "--instance", _instance(tmp_path, obj), *out]


def _simulate(tmp_path, *flags):
    """simulate arguments; a later option replaces an earlier one."""
    return ["simulate", "--instance", _instance(tmp_path, TRIDIAG_JSON),
            "--epsilon", "1e-8", "--s-max", "1.0", "--out", str(tmp_path / "t.csv"),
            *flags]


def _experiment(tmp_path, command, *flags):
    return ["--out-dir", str(tmp_path / "out"), command, "--instance",
            _instance(tmp_path, TRIDIAG_JSON), "--epsilons", "1e-8", *flags]


def _lcp(tmp_path, q, M):
    return ["lcp-solve", "--input", _instance(tmp_path, {"q": q, "M": M})]


_TRIDIAG_M = TRIDIAG_JSON["M"]
_SHORT_SPAN = "error: span [0, 1e-15] is too short for one integration step"
_C_ERROR = "error: C has 3 entries and k has 4"
_TOL_FLOOR = "error: tol must be positive and finite, and no smaller than machine epsilon"
_S_MAX_ERRORS = {"simulate": "error: a grid needs 2 or more points on a finite span",
                 "compare": "error: a grid needs 2 or more points on a finite span",
                 "hitting-time": "error: s_max must be positive and finite"}


# Malformed outside input: each case gives the arguments, given a scratch
# directory, and the message that must replace a traceback.
MALFORMED = {
    "config not JSON": lambda tmp: (
        _config(tmp, "{not json"), "error: Expecting property name"),
    "config lacks instance": lambda tmp: (
        _config(tmp, json.dumps({"epsilons": [1e-8]})),
        "error: config lacks required keys: ['instance']"),
    "config lacks epsilons": lambda tmp: (
        _config(tmp, json.dumps({"instance": "x.json"})),
        "error: config lacks required keys: ['epsilons']"),
    "config names a missing instance": lambda tmp: (
        _config(tmp, json.dumps({"instance": str(tmp / "absent.json"),
                                 "epsilons": [1e-8]})),
        "error: [Errno 2] No such file or directory"),
    "instance without M": lambda tmp: (
        ["fixed-points", "--instance", _instance(tmp, {"r": [1.0, 1.0]})],
        "error: M must be 2-dimensional"),
    "lcp input without q": lambda tmp: (
        ["lcp-solve", "--input", _instance(tmp, {"M": [[2.0]]})],
        "error: q must be 1-dimensional, got shape ()"),
    "gen --out is a directory": lambda tmp: (
        ["gen", "--d", "2", "--seed", "1", "--out", str(tmp)],
        "error: [Errno 21] Is a directory"),
    "--out-dir is a file": lambda tmp: (
        ["--out-dir", _instance(tmp, TRIDIAG_JSON), "compare", "--instance",
         _instance(tmp, TRIDIAG_JSON), "--epsilons", "1e-8"],
        "error: [Errno 17] File exists"),
    "spec without generator": lambda tmp: (
        _spec_config(tmp, {"d": 2, "seed": 1}),
        "error: generator must be 'direct' or 'rejection', got None"),
    "spec with unknown generator": lambda tmp: (
        _spec_config(tmp, {"generator": "gauss", "d": 2, "seed": 1}),
        "error: generator must be 'direct' or 'rejection', got 'gauss'"),
    "spec missing a parameter": lambda tmp: (
        _spec_config(tmp, {"generator": "direct", "d": 2}),
        "error: direct generator spec: missing a required argument: 'seed'"),
    "spec with a stray parameter": lambda tmp: (
        _spec_config(tmp, {"generator": "direct", "d": 2, "seed": 1, "n": 3}),
        "error: direct generator spec: got an unexpected keyword argument 'n'"),
    "gen direct with --n": lambda tmp: (
        ["gen", "--d", "3", "--seed", "1", "--n", "5", "--out", str(tmp / "inst.json")],
        "error: direct generator spec: got an unexpected keyword argument 'n'"),
    "gen rejection with --offdiag-scale": lambda tmp: (
        ["gen", "--d", "2", "--seed", "1", "--n", "3", "--generator", "rejection",
         "--offdiag-scale", "0.3", "--out", str(tmp / "inst.json")],
        "error: rejection generator spec: got an unexpected keyword argument "
        "'offdiag_scale'"),
    "gen rejection without --n": lambda tmp: (
        ["gen", "--d", "2", "--seed", "1", "--generator", "rejection",
         "--out", str(tmp / "inst.json")],
        "error: rejection generator spec: missing a required argument: 'n'"),
    "epsilons not numbers": lambda tmp: (
        ["compare", "--instance", _instance(tmp, TRIDIAG_JSON),
         "--epsilons", "1e-8,tiny"],
        "Invalid value for '--epsilons': '1e-8,tiny' is not a comma-separated "
        "list of numbers"),
    "C not numbers": lambda tmp: (
        ["simulate", "--instance", _instance(tmp, TRIDIAG_JSON), "--epsilon",
         "1e-8", "--C", "1,", "--s-max", "1.0", "--out", str(tmp / "t.csv")],
        "Invalid value for '--C'"),
    "k not numbers": lambda tmp: (
        ["limit-path", "--instance", _instance(tmp, TRIDIAG_JSON), "--k", "a,b",
         "--out-json", str(tmp / "path.json")],
        "Invalid value for '--k'"),
    "lcp q with NaN": lambda tmp: (
        _lcp(tmp, [-1.0, float("nan")], _TRIDIAG_M),
        "error: q contains non-finite entries"),
    "lcp M with NaN": lambda tmp: (
        _lcp(tmp, [-1.0, -1.0], [[2.0, float("nan")], [-1.0, 2.0]]),
        "error: M contains non-finite entries"),
    "lcp ragged M": lambda tmp: (
        _lcp(tmp, [-1.0, -1.0], [[2.0, -1.0], [-1.0]]),
        "error: M must be an array of numbers"),
    "lcp q a string": lambda tmp: (
        _lcp(tmp, "ab", _TRIDIAG_M), "error: q must be an array of numbers"),
    "lcp input not an object": lambda tmp: (
        ["lcp-solve", "--input", _instance(tmp, [1, 2])],
        "holds a JSON list, not an object"),
    "instance M with NaN": lambda tmp: (
        ["fixed-points", "--instance", _instance(
            tmp, {"M": [[2.0, float("nan")], [-1.0, 2.0]], "r": [1.0, 1.0]})],
        "error: M contains non-finite entries"),
    "instance ragged M": lambda tmp: (
        ["fixed-points", "--instance", _instance(
            tmp, {"M": [[2.0, -1.0], [-1.0]], "r": [1.0, 1.0]})],
        "error: M must be an array of numbers"),
    "instance ragged X": lambda tmp: (
        ["fixed-points", "--instance", _instance(
            tmp, {**TRIDIAG_JSON, "X": [[1.0, 0.0], [0.0]], "y": [1.0, 1.0]})],
        "error: X must be an array of numbers"),
    "instance r a string": lambda tmp: (
        ["fixed-points", "--instance", _instance(tmp, {**TRIDIAG_JSON, "r": "ab"})],
        "error: r must be an array of numbers"),
    "limit-path k infinite": lambda tmp: (
        ["limit-path", "--instance", _instance(tmp, TRIDIAG_JSON), "--k", "inf,1",
         "--out-json", str(tmp / "path.json")],
        "error: k contains non-finite entries"),
    "limit-path --grid 0": lambda tmp: (
        ["limit-path", "--instance", _instance(tmp, TRIDIAG_JSON), "--grid", "0",
         "--out-json", str(tmp / "path.json"), "--out-csv", str(tmp / "path.csv")],
        "error: a grid needs 2 or more points on a finite span, got 0"),
    "simulate --grid 1": lambda tmp: (
        _simulate(tmp, "--grid", "1"),
        "error: a grid needs 2 or more points on a finite span, got 1"),
    **{f"simulate --tol {tol}": lambda tmp, tol=tol: (
        _simulate(tmp, "--tol", tol), "error: tol must be positive and finite")
       for tol in ("0", "nan", "inf", "-1")},
    # Below machine epsilon the first step once came out NaN, after three
    # RuntimeWarnings, and the run exited 3.
    **{f"{command} --tol 1e-300": lambda tmp, command=command: (
        _simulate(tmp, "--tol", "1e-300") if command == "simulate"
        else _experiment(tmp, command, "--tol", "1e-300"), _TOL_FLOOR)
       for command in ("simulate", "compare", "hitting-time")},
    **{f"{command} --s-max {s_max}": lambda tmp, command=command, s_max=s_max: (
        _simulate(tmp, "--s-max", s_max) if command == "simulate"
        else _experiment(tmp, command, "--s-max", s_max), _S_MAX_ERRORS[command])
       for command in _S_MAX_ERRORS for s_max in ("nan", "inf")},
    "simulate --s-max too short for one step": lambda tmp: (
        ["simulate", "--instance", _generated(tmp), "--epsilon", "1e-12",
         "--s-max", "1e-15", "--out", str(tmp / "t.csv")], _SHORT_SPAN),
    "hitting-time --s-max too short for one step": lambda tmp: (
        ["--out-dir", str(tmp / "out"), "hitting-time", "--instance", _generated(tmp),
         "--epsilons", "1e-12", "--s-max", "1e-15"], _SHORT_SPAN),
    "figure1 --s-max too short for one step": lambda tmp: (
        _experiment(tmp, "figure1", "--s-max", "1e-15"), _SHORT_SPAN),
    "simulate --C shorter than k": lambda tmp: (
        ["simulate", "--instance", _generated(tmp), "--epsilon", "1e-8",
         "--C", "1,1,1", "--s-max", "1.0", "--out", str(tmp / "t.csv")], _C_ERROR),
    **{f"{command} --C shorter than k": lambda tmp, command=command: (
        ["--out-dir", str(tmp / "out"), command, "--instance", _generated(tmp),
         "--epsilons", "1e-8", "--C", "1,1,1"], _C_ERROR)
       for command in ("compare", "hitting-time")},
    "config with experiment flags": lambda tmp: (
        ["--out-dir", str(tmp / "out"), "hitting-time", "--config",
         _config(tmp, json.dumps({"instance": _instance(tmp, TRIDIAG_JSON),
                                  "epsilons": [1e-8]}))[-1],
         "--epsilons", "1e-30", "--eta-fraction", "0.5"],
        "Error: --config excludes --epsilons, --eta-fraction"),
    "config sets out_dir": lambda tmp: (
        _config(tmp, json.dumps({"instance": _instance(tmp, TRIDIAG_JSON),
                                 "epsilons": [1e-8], "out_dir": str(tmp / "out")})),
        "error: config keys this command does not read: ['out_dir']"),
    "config a bare number": lambda tmp: (
        _config(tmp, "5"), "holds a JSON int, not an object"),
    "config instance a number": lambda tmp: (
        _config(tmp, json.dumps({"instance": 7, "epsilons": [1e-8]})),
        "error: instance is neither a path nor a spec: 7"),
    "spec with a string parameter": lambda tmp: (
        _spec_config(tmp, {"generator": "direct", "d": "3", "seed": 1}),
        "error: direct generator spec: bad d '3'"),
    "instance meta not an object": lambda tmp: (
        ["fixed-points", "--instance", _instance(tmp, {**TRIDIAG_JSON, "meta": 5})],
        "error: meta must be a JSON object, got 5"),
    "config epsilons not numbers": lambda tmp: (
        _value_config(tmp, epsilons=["a"]),
        "Invalid value for '--epsilons': 'a' is not a comma-separated list"),
    "config tol a word": lambda tmp: (
        _value_config(tmp, tol="x"), "Invalid value for '--tol': 'x'"),
    "config grid_points a fraction": lambda tmp: (
        _value_config(tmp, grid_points=5.7),
        "Invalid value for '--grid': '5.7' is not a valid integer"),
    "config grid_points a list of two": lambda tmp: (
        _value_config(tmp, grid_points=[5, 6]), "Invalid value for '--grid': '5,6'"),
    "config epsilons nested": lambda tmp: (
        _value_config(tmp, epsilons=[[1e-8]]),
        "Invalid value for '--epsilons': '[1e-08]'"),
    "config epsilons empty": lambda tmp: (
        _value_config(tmp, epsilons=[]), "Invalid value for '--epsilons': ''"),
    "config epsilons repeated": lambda tmp: (
        _value_config(tmp, epsilons=[1e-8, 1e-8]), "error: epsilons must be distinct"),
    "config instance null": lambda tmp: (
        _value_config(tmp, instance=None),
        "error: config lacks required keys: ['instance']"),
    "compare state window empty": lambda tmp: (
        _experiment(tmp, "compare", "--s-max", "1.0", "--grid", "2"),
        "error: no grid point to compare"),
    "compare average window empty": lambda tmp: (
        _experiment(tmp, "compare", "--s-max", "0.05"),
        "error: no grid point to compare"),
    "gen with a negative seed": lambda tmp: (
        ["gen", "--d", "2", "--seed", "-1", "--out", str(tmp / "inst.json")],
        "error: direct generator spec: bad seed -1"),
    # A NaN scale once surfaced as "X contains non-finite entries".
    "gen --offdiag-scale nan": lambda tmp: (
        ["gen", "--d", "3", "--seed", "1", "--offdiag-scale", "nan",
         "--out", str(tmp / "inst.json")],
        "error: offdiag_scale must be finite and nonnegative, got nan"),
    "spec with offdiag_scale NaN": lambda tmp: (
        _spec_config(tmp, {"generator": "direct", "d": 3, "seed": 1,
                           "offdiag_scale": float("nan")}),
        "error: offdiag_scale must be finite and nonnegative, got nan"),
    **{f"{command} --instance without --epsilons": lambda tmp, command=command: (
        ["--out-dir", str(tmp / "out"), command, "--instance",
         _instance(tmp, TRIDIAG_JSON)],
        "provide --config or both --instance and --epsilons")
       for command in ("compare", "hitting-time", "figure1")},
    "gen --d 0": lambda tmp: (
        ["gen", "--d", "0", "--seed", "1", "--out", str(tmp / "inst.json")],
        "error: need d >= 1"),
    "gen rejection --n 0": lambda tmp: (
        ["gen", "--generator", "rejection", "--n", "0", "--d", "2", "--seed", "1",
         "--out", str(tmp / "inst.json")],
        "error: need n >= 1 and d >= 1"),
    **{f"{command} on an instance file with {case}":
       lambda tmp, command=command, case=case: (
           _on_instance(tmp, command, BAD_DATA_FILES[case][0]),
           "error: " + BAD_DATA_FILES[case][2])
       for command in ("simulate", "limit-path") for case in BAD_DATA_FILES},
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_exits_2(runner, tmp_path, case):
    args, message = MALFORMED[case](tmp_path)
    before = sorted(tmp_path.rglob("*"))
    # A zero or NaN --tol once spun forever in the integrator's step loop.
    with deadline(10):
        result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert message in result.output
    assert "Traceback" not in result.output
    assert result.output.count("error:") <= 1
    assert sorted(tmp_path.rglob("*")) == before


def _raising(monkeypatch, command, exc):
    """Make ``command`` take no option and raise ``exc`` when run."""
    def fail(**kwargs):
        raise exc

    monkeypatch.setattr(main.commands[command], "callback", fail)
    monkeypatch.setattr(main.commands[command], "params", [])


@pytest.mark.parametrize("exc, code", [
    (ValidationError("bad input"), 2),
    (NumericalFailure("no convergence"), 3),
    (BudgetExceeded("out of attempts"), 4),
    (MemoryError("Unable to allocate 298. GiB"), 4),
    (MaxIterations(residual=1.0, iterations=2), 4),
], ids=["ValidationError", "NumericalFailure", "BudgetExceeded", "MemoryError",
        "MaxIterations"])
@pytest.mark.parametrize("command", sorted(main.commands))
def test_every_command_reports_package_errors(runner, monkeypatch, command,
                                              exc, code):
    _raising(monkeypatch, command, exc)
    result = runner.invoke(main, [command])
    assert result.exit_code == code
    assert result.output == f"error: {exc}\n"


def _unaffordable(*args, **kwargs):
    raise MemoryError("Unable to allocate 14.9 GiB for an array with shape "
                      "(100000000, 20) and data type float64")


@pytest.mark.parametrize("case", ["gen --d 200000", "simulate --grid 100000000"])
def test_failed_allocation_exits_4(runner, tmp_path, monkeypatch, case):
    # The callee that would allocate raises instead: no test allocates.
    if case.startswith("gen"):
        monkeypatch.setattr(problem, "generate_direct", _unaffordable)
        args = ["gen", "--d", "200000", "--seed", "1",
                "--out", str(tmp_path / "inst.json")]
    else:
        monkeypatch.setattr(experiments, "uniform_grid", _unaffordable)
        args = _simulate(tmp_path, "--grid", "100000000")
    result = runner.invoke(main, args)
    assert result.exit_code == 4
    assert result.output.startswith("error: Unable to allocate")
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command", sorted(main.commands))
def test_every_command_lets_other_errors_propagate(runner, monkeypatch,
                                                   command):
    _raising(monkeypatch, command, RuntimeError("a defect"))
    with pytest.raises(RuntimeError, match="a defect"):
        invoke(runner, [command])
