import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import recorded_integrate, scalar_logistic
from dlnflow import (
    ProblemInstance,
    compute_path,
    from_data,
    generate_direct,
    generate_rejection,
    loss,
    run_compare,
    run_figure1,
    run_hitting,
    theta_star_of_s,
)
from dlnflow import dynamics, limit_path
from dlnflow.cli import main
from dlnflow.errors import DimensionMismatch, DomainError, NonFinite, exit_code
from dlnflow.experiments import write_csv
from oracles import csv_bytes

ONES2 = np.ones(2)


@pytest.fixture(scope="module")
def fig2_instance():
    return from_data(generate_rejection(n=5, d=4, seed=20))


@pytest.fixture(scope="module")
def scalar_instance():
    return ProblemInstance(M=[[1.0]], r=[1.0])


@pytest.fixture(scope="module")
def portrait(tmp_path_factory):
    instance = from_data(generate_rejection(n=3, d=2, seed=5))
    out = tmp_path_factory.mktemp("fig1")
    paths = run_figure1(instance, ONES2, ONES2, [1e-8, 1e-20], out, tol=1e-11)
    return instance, out, paths


class TestRunCompare:
    def test_sharper_approximation_at_smaller_epsilon(self, fig2_instance):
        report = run_compare(
            fig2_instance, np.ones(4), np.ones(4), [1e-8, 1e-20], tol=1e-11
        )
        assert [row.epsilon for row in report.rows] == [1e-8, 1e-20]
        assert report.rows[1].state_error < report.rows[0].state_error
        assert report.rows[1].loss_error < report.rows[0].loss_error
        assert report.state_monotone and report.loss_monotone

    def test_windows_follow_breakpoints(self, separable_instance):
        report = run_compare(separable_instance, ONES2, ONES2, [1e-10])
        assert report.breakpoints == (0.5, 1.0)
        np.testing.assert_allclose(
            report.excluded_windows, [(0.45, 0.55), (0.95, 1.05)]
        )

    def test_separable_state_error_matches_closed_form(self, separable_instance):
        # Independent oracle: both coordinates follow explicit logistics, so
        # the reported sup gap can be recomputed from the closed form alone.
        eps = 1e-12
        report = run_compare(separable_instance, ONES2, ONES2, [eps],
                             s_max=1.5, grid_points=400, tol=1e-11)
        path = compute_path(separable_instance, ONES2)
        grid = np.linspace(0.0, 1.5, 400)
        mask = grid > 0
        for lo, hi in report.excluded_windows:
            mask &= ~((grid >= lo) & (grid <= hi))
        t = grid * np.log(1.0 / eps)
        sim = np.column_stack(
            [scalar_logistic(t, eps, rate=2.0, limit=2.0),
             scalar_logistic(t, eps, rate=1.0, limit=1.0)]
        )
        limit = np.array([theta_star_of_s(path, s) for s in grid[mask]])
        expected = float(np.max(np.abs(sim[mask] - limit)))
        assert report.rows[0].state_error == pytest.approx(expected, abs=1e-6)

    def test_single_epsilon_has_no_flags(self, separable_instance):
        report = run_compare(separable_instance, ONES2, ONES2, [1e-10])
        assert len(report.rows) == 1
        assert report.state_monotone is None
        assert report.loss_monotone is None
        assert report.average_monotone is None

    def test_deterministic(self, separable_instance):
        a = run_compare(separable_instance, ONES2, ONES2, [1e-8, 1e-12])
        b = run_compare(separable_instance, ONES2, ONES2, [1e-8, 1e-12])
        assert a == b

    def test_json_dict_serializable(self, separable_instance):
        report = run_compare(separable_instance, ONES2, ONES2, [1e-10])
        text = json.dumps(report.to_json_dict())
        assert "state_error" in text


class TestRunHitting:
    def test_scalar_ratios_match_closed_form(self, scalar_instance):
        table = run_hitting(scalar_instance, [1.0], [1.0], [1e-8, 1e-20],
                            eta_fraction=0.1, tol=1e-11)
        assert table.s_star == pytest.approx(1.0)
        for row in table.rows:
            log_term = np.log(1.0 / row.epsilon)
            exact = np.log(
                (1 - row.epsilon) * (1 - 0.1) / (row.epsilon * 0.1)
            ) / log_term
            assert row.reached
            assert row.ratio == pytest.approx(exact, rel=1e-5)

    def test_ratio_approaches_target(self, scalar_instance):
        table = run_hitting(scalar_instance, [1.0], [1.0], [1e-8, 1e-14, 1e-20],
                            eta_fraction=0.1, tol=1e-11)
        gaps = [row.relative_error for row in table.rows]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_eta_gap_matches_closed_form_and_shrinks(self, scalar_instance):
        # The limiting ratio does not depend on eta; at finite epsilon the
        # scalar gap between eta-fractions f and f' is exactly
        # [ln((1-f)/f) - ln((1-f')/f')] / ln(1/eps).
        gaps = {}
        for eps in (1e-8, 1e-20):
            ratios = {}
            for frac in (0.1, 0.9):
                table = run_hitting(scalar_instance, [1.0], [1.0], [eps],
                                    eta_fraction=frac, tol=1e-11)
                ratios[frac] = table.rows[0].ratio
            gaps[eps] = abs(ratios[0.1] - ratios[0.9])
            exact = 2 * np.log(9.0) / np.log(1.0 / eps)
            assert gaps[eps] == pytest.approx(exact, rel=1e-4)
        assert gaps[1e-20] < gaps[1e-8]

    @pytest.mark.parametrize("k_last", [1e4, 1e8])
    def test_a_late_coordinate_is_reached_after_one_long_jump(self, k_last):
        # With k = (1, 1, 1, k_last) on `gen --d 4 --seed 7`, s* grows like
        # k_last, and the plateau before the last activation is one jump.
        # Without jumps k_last = 1e4 takes 13 s, and 1e8 does not end.
        inst, _ = generate_direct(4, 7)
        with recorded_integrate(budget=2000):
            table = run_hitting(inst, np.ones(4), [1.0, 1.0, 1.0, k_last], [1e-12])
        row, = table.rows
        assert row.reached and row.relative_error <= 1e-5

    def test_not_reached_flagged(self, scalar_instance):
        table = run_hitting(scalar_instance, [1.0], [1.0], [1e-8],
                            eta_fraction=0.1, s_max=0.5)
        assert not table.rows[0].reached
        assert table.rows[0].ratio is None

    def test_eta_fraction_validated(self, scalar_instance):
        # Both harnesses derive the hitting radius through one check.
        for fraction in (1.5, 1.0, 0.0, -0.2):
            with pytest.raises(DomainError):
                run_hitting(scalar_instance, [1.0], [1.0], [1e-8],
                            eta_fraction=fraction)
            with pytest.raises(DomainError):
                run_compare(scalar_instance, [1.0], [1.0], [1e-8],
                            eta_fraction=fraction)


class TestSweep:
    """The three harnesses validate their epsilons once, before any work."""

    RUNNERS = {
        "compare": lambda inst, eps, tmp: run_compare(inst, ONES2, ONES2, eps),
        "hitting": lambda inst, eps, tmp: run_hitting(inst, ONES2, ONES2, eps),
        "figure1": lambda inst, eps, tmp: run_figure1(inst, ONES2, ONES2, eps, tmp),
    }

    @pytest.mark.parametrize("runner", RUNNERS)
    @pytest.mark.parametrize("eps, error", [
        ([], DimensionMismatch), ([0.5, 0.5], DomainError), ([1.5], DomainError),
        ([0.0], DomainError), ([1e-8, np.nan], NonFinite), ("x", DimensionMismatch),
    ])
    def test_invalid_epsilons(self, separable_instance, tmp_path, monkeypatch,
                              runner, eps, error):
        def no_work(*args, **kwargs):
            raise AssertionError("work began before the epsilons were checked")

        for name in ("compute_path", "convergence_time_s_star"):
            monkeypatch.setattr(limit_path, name, no_work)
        monkeypatch.setattr(dynamics, "simulate", no_work)
        with pytest.raises(error):
            self.RUNNERS[runner](separable_instance, eps, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_compare_flushes_nothing_for_a_bad_epsilon(self, scalar_instance):
        partials = []
        with pytest.raises(NonFinite):
            run_compare(scalar_instance, [1.0], [1.0], [1e-8, np.nan],
                        on_failure=partials.append)
        assert partials == []

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_rows_by_decreasing_epsilon(self, separable_instance, tmp_path, runner):
        result = self.RUNNERS[runner](separable_instance, [1e-12, 1e-6, 1e-9],
                                      tmp_path)
        if runner == "figure1":
            assert [name for name in result if name.startswith("trajectory")] == [
                "trajectory_eps_1e-06.csv", "trajectory_eps_1e-09.csv",
                "trajectory_eps_1e-12.csv"]
        else:
            assert [row.epsilon for row in result.rows] == [1e-6, 1e-9, 1e-12]


class TestRunFigure1:
    def test_files_exist(self, portrait):
        _, out, paths = portrait
        assert set(paths) == {
            "field", "fixed_points",
            "trajectory_eps_1e-08.csv", "trajectory_eps_1e-20.csv",
        }
        assert (out / "field.csv").exists()

    def test_field_matches_flow(self, portrait):
        instance, out, _ = portrait
        rows = np.loadtxt(out / "field.csv", delimiter=",", skiprows=2)
        assert rows.shape == (625, 4)
        theta = rows[37, :2]
        expected = theta * (instance.r - instance.M @ theta)
        np.testing.assert_allclose(rows[37, 2:], expected, atol=1e-12)

    def test_origin_among_fixed_points(self, portrait):
        _, out, _ = portrait
        obj = json.loads((out / "fixed_points.json").read_text())
        assert len(obj["points"]) == 4
        assert [0.0, 0.0] in [p["theta"] for p in obj["points"]]

    def test_trajectories_terminate_at_minimizer(self, portrait):
        instance, out, _ = portrait
        target = instance.minimizer()
        for name in ("trajectory_eps_1e-08.csv", "trajectory_eps_1e-20.csv"):
            rows = np.loadtxt(out / name, delimiter=",", skiprows=2)
            final = rows[-1, 2:4]
            assert np.linalg.norm(final - target) <= 1e-3

    def test_trajectories_visit_every_saddle(self, portrait):
        # The flow lingers near each stationary point of the activation
        # sequence before jumping to the next one.
        instance, out, _ = portrait
        path = compute_path(instance, ONES2)
        for name in ("trajectory_eps_1e-08.csv", "trajectory_eps_1e-20.csv"):
            rows = np.loadtxt(out / name, delimiter=",", skiprows=2)
            theta = rows[:, 2:4]
            for seg in path.segments[1:]:
                approach = np.min(
                    np.linalg.norm(theta - seg.theta_star, axis=1)
                )
                assert approach <= 1e-3

    def test_trajectory_schema(self, portrait):
        # The simulate command's schema: s, t, theta_*, w_*, loss, avg_*.
        instance, out, _ = portrait
        lines = (out / "trajectory_eps_1e-08.csv").read_text().splitlines()
        assert lines[0] == "# dlnflow-csv v1 trajectory"
        assert lines[1].split(",") == ["s", "t", "theta_1", "theta_2", "w_1",
                                       "w_2", "loss", "avg_1", "avg_2"]
        rows = np.loadtxt(out / "trajectory_eps_1e-08.csv", delimiter=",",
                          skiprows=2)
        np.testing.assert_array_equal(rows[0, 7:], [0.0, 0.0])
        np.testing.assert_allclose(rows[:, 6], loss(instance, rows[:, 2:4]),
                                   rtol=1e-12, atol=1e-12)

    def test_dimension_guard(self, tmp_path):
        inst = ProblemInstance(M=np.eye(3), r=[1.0, 1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            run_figure1(inst, np.ones(3), np.ones(3), [1e-8], tmp_path)


class TestExperimentConfig:
    """A sweep's ``--config`` file: one JSON object keyed by option name."""

    def test_config_is_an_object(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[5]")
        result = CliRunner().invoke(main, ["--out-dir", str(tmp_path),
                                           "compare", "--config", str(path)])
        assert result.exit_code == 2
        assert "holds a JSON list, not an object" in result.output

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "instance": {"generator": "direct", "d": 2, "seed": 1},
            "epsilons": [0.1], "bogus": 1,
        }))
        for command in ("compare", "hitting-time", "figure1"):
            result = CliRunner().invoke(main, ["--out-dir", str(tmp_path),
                                               command, "--config", str(path)])
            assert result.exit_code == 2
            assert ("config keys this command does not read: ['bogus']"
                    in result.output)
        assert sorted(tmp_path.iterdir()) == [path]


class TestWriters:
    def test_schema_header(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "test-kind", ["a", "b"], [[1.0, 2.0]])
        lines = p.read_text().splitlines()
        assert lines[0] == "# dlnflow-csv v1 test-kind"
        assert lines[1] == "a,b"

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            write_csv(tmp_path / "t.csv", "test-kind", ["a"], [[np.nan]])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinity_rejected(self, tmp_path, value):
        with pytest.raises(DomainError):
            write_csv(tmp_path / "t.csv", "test-kind", ["a", "b"], [[1.0, value]])
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize("rows", [[[None, 1.0], [np.nan, 2.0]],
                                      [(1.0, None), (2.0, np.nan)]])
    def test_nan_below_none_rejected(self, tmp_path, rows):
        # None reads as NaN in the bit table, so the NaN matches the cell
        # above it bit for bit and must still not reuse its empty text.
        with pytest.raises(DomainError):
            write_csv(tmp_path / "t.csv", "test-kind", ["a", "b"], rows)
        assert list(tmp_path.iterdir()) == []

    def test_none_is_an_empty_cell(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "test-kind", ["a", "b", "c"],
                      [[1.0, None, True], [None, 2.5, False]])
        assert p.read_bytes().split(b"\r\n")[1:] == [
            b"1.0,,1.0", b",2.5,0.0", b""]

    def test_bytes_match_csv_module(self, tmp_path, rng):
        # Reference: the csv module with repr() of each float.
        rows = rng.standard_normal((20, 7)) * 10.0 ** rng.integers(-300, 300, (20, 7))
        expected = io.StringIO(newline="")
        expected.write("# dlnflow-csv v1 test-kind\n")
        writer = csv.writer(expected)
        writer.writerow([f"c{i}" for i in range(7)])
        for row in rows:
            writer.writerow(repr(float(v)) for v in row)
        p = write_csv(tmp_path / "t.csv", "test-kind",
                      [f"c{i}" for i in range(7)], rows)
        assert p.read_bytes() == expected.getvalue().encode()

    def test_ragged_row_rejected(self, tmp_path):
        with pytest.raises(DomainError, match="row 0 has 1 cells") as err:
            write_csv(tmp_path / "t.csv", "test-kind", ["a", "b"],
                      [[1.0], [1.0, 2.0, 3.0]])
        assert exit_code(err.value) == 2
        assert list(tmp_path.iterdir()) == []


_ABOVE = object()
# Values that compare equal while their bits or types differ, subnormals,
# and None, beside arbitrary finite floats.
_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 0, False, 1.0, 1, True, None, 5e-324, -5e-324,
                     2.5e-310, 2**53 + 1, -(2**63), 1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_NON_FINITE = [np.nan, np.inf, -np.inf]
_writer_properties = settings(derandomize=True, deadline=None, database=None,
                              max_examples=60)


@st.composite
def csv_tables(draw, min_rows=0):
    """A header and rows in which each cell is drawn anew or, often, is the
    cell directly above it, so that columns hold runs of equal values."""
    width = draw(st.integers(1, 5))
    rows = []
    for _ in range(draw(st.integers(min_rows, 12))):
        fresh = [draw(st.one_of(st.just(_ABOVE), _CELLS) if rows else _CELLS)
                 for _ in range(width)]
        rows.append([rows[-1][j] if v is _ABOVE else v for j, v in enumerate(fresh)])
    return [f"c{j}" for j in range(width)], rows


@_writer_properties
@given(csv_tables())
@example((["a", "b"], [[0.0, -0.0], [-0.0, 0.0], [0, False], [None, None],
                         [None, 1.0], [1.0, None]]))
@example((["a"], [[True], [1], [1.0], [5e-324], [5e-324], [-5e-324]]))
def test_write_csv_bytes_equal_the_cellwise_reference(table):
    # A table without None is also written from its float array.
    header, rows = table
    tables = [rows]
    if not any(v is None for row in rows for v in row):
        tables.append(np.array(rows, dtype=float).reshape(len(rows), len(header)))
    with tempfile.TemporaryDirectory() as tmp:
        for given_rows in tables:
            path = write_csv(Path(tmp) / "t.csv", "test-kind", header, given_rows)
            assert path.read_bytes() == csv_bytes("test-kind", header, rows)


@_writer_properties
@given(csv_tables(min_rows=1), st.sampled_from(_NON_FINITE),
       st.sampled_from(["as drawn", "equal", "None"]), st.data())
def test_write_csv_rejects_non_finite_anywhere(table, bad, above, data):
    # NaN and +-inf raise in any cell: under an equal non-finite cell, under
    # an empty one, or under whatever was drawn; no file is left behind.
    header, rows = table
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(header) - 1))
    rows[i][j] = bad
    if i and above != "as drawn":
        rows[i - 1][j] = bad if above == "equal" else None
    with tempfile.TemporaryDirectory() as tmp:
        with pytest.raises(DomainError, match="non-finite value"):
            write_csv(Path(tmp) / "t.csv", "test-kind", header, rows)
        assert list(Path(tmp).iterdir()) == []
