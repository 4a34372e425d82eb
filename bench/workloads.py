"""The benchmark's workloads: inputs made from a seed, the op, the checks.

Each op runs one ``dlnflow`` CLI command in-process on one generated
instance, in its own scratch working directory, and writes that command's
normal artifacts. The artifacts are checked after the op's timed interval
against routes that do not share the command's code path.

Why these three: the paper's two scaling axes are the dimension ``d``
(the limit-path homotopy, about O(d^5)) and ``|log epsilon|`` (the step
count of the log-coordinate simulator). Each layer a planned optimisation
targets does most of an op's work in one workload and little or none in
another, so the other workload must read "no change".
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dlnflow import lcp, problem

MU_CHECK_TOL = 1e-8
S_STAR_RTOL = 1e-9


class CheckFailed(Exception):
    """An artifact is missing, malformed, or disagrees with its oracle."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None


def _read_csv(path: Path, kind: str) -> tuple[list[str], np.ndarray]:
    """Header and rows of a ``# dlnflow-csv v1 <kind>`` file."""
    try:
        with open(path, newline="") as fh:
            lines = list(csv.reader(fh))
    except OSError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None
    _require(len(lines) >= 2 and lines[0] == [f"# dlnflow-csv v1 {kind}"],
             f"{path.name}: missing '# dlnflow-csv v1 {kind}' header")
    header, body = lines[1], lines[2:]
    try:
        rows = np.array([[float(v) for v in row] for row in body], dtype=float)
    except ValueError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None
    _require(all(len(row) == len(header) for row in body),
             f"{path.name}: ragged rows")
    _require(bool(np.all(np.isfinite(rows))), f"{path.name}: non-finite value")
    return header, rows.reshape(len(body), len(header))


@dataclass(frozen=True)
class OpInput:
    """One generated instance and the initialization the op uses."""

    index: int
    instance_path: Path
    instance: problem.ProblemInstance
    C: np.ndarray
    k: np.ndarray


def instance_seed(seed: int, index: int) -> int:
    """Generator seed of the instance at ``index`` for workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass(frozen=True)
class Workload:
    """A CLI command at a fixed size; subclasses define argv and checks."""

    name: str
    d: int
    epsilons: tuple[float, ...] = ()
    pool: int = 8  # instances generated per set-up; the loop cycles over them

    def initialization(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        return np.ones(self.d), np.ones(self.d)

    def make_input(self, seed: int, index: int, directory: Path) -> OpInput:
        """Generate and write the instance of op ``index``; same seed, same input."""
        instance, _ = problem.generate_direct(self.d, instance_seed(seed, index))
        path = Path(directory) / f"instance-{index}.json"
        problem.save_instance(instance, path)
        C, k = self.initialization(np.random.default_rng([seed, index]))
        return OpInput(index, path.resolve(), instance, C, k)

    def argv(self, inp: OpInput) -> list[str]:
        raise NotImplementedError

    def check(self, inp: OpInput, workdir: Path) -> None:
        raise NotImplementedError


class LimitPathWorkload(Workload):
    def argv(self, inp):
        return ["limit-path", "--instance", str(inp.instance_path),
                "--k", _fmt(inp.k), "--out-json", "path.json",
                "--out-csv", "path.csv"]

    def check(self, inp, workdir):
        M, r, d = inp.instance.M, inp.instance.r, inp.instance.d
        obj = _read_json(workdir / "path.json")
        try:
            s_star = float(obj["s_star"])
            active_sets = [tuple(a) for a in obj["active_sets"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckFailed(f"path.json: bad field {exc}") from None

        closed = float(np.max(np.linalg.solve(M, inp.k) / np.linalg.solve(M, r)))
        _require(abs(s_star - closed) <= S_STAR_RTOL * abs(closed),
                 f"s_star {s_star!r} != closed form {closed!r}")
        _require(bool(active_sets) and active_sets[0] == ()
                 and set(active_sets[-1]) == set(range(d)),
                 "active sets do not run from empty to the full set")
        _require(all(set(a) < set(b) for a, b in zip(active_sets, active_sets[1:])),
                 "active sets are not strictly nested")

        header, rows = _read_csv(workdir / "path.csv", "limit-path")
        _require(len(header) == 1 + 2 * d and rows.shape[0] == 200,
                 f"path.csv has shape {rows.shape}, expected (200, {1 + 2 * d})")
        for j in (rows.shape[0] // 4, rows.shape[0] // 2, 3 * rows.shape[0] // 4):
            s, mu_csv = rows[j, 0], rows[j, 1:1 + d]
            mu_ref = lcp.solve_qp_nonneg(inp.k / s - r, M)
            err = float(np.max(np.abs(mu_csv - mu_ref)))
            _require(err <= MU_CHECK_TOL * max(1.0, float(np.max(np.abs(mu_ref)))),
                     f"mu(s={s:.6g}) differs from the QP route by {err:.3e}")


class CompareWorkload(Workload):
    def argv(self, inp):
        return ["--out-dir", "out", "compare", "--instance", str(inp.instance_path),
                "--epsilons", _fmt(self.epsilons),
                "--C", _fmt(inp.C), "--k", _fmt(inp.k)]

    def check(self, inp, workdir):
        # compare.csv drops rows whose hitting time was not reached, so the
        # row count and flags are read from compare.json.
        obj = _read_json(workdir / "out" / "compare.json")
        rows = obj.get("rows")
        _require(isinstance(rows, list), "compare.json: no rows")
        eps = sorted(self.epsilons, reverse=True)
        _require([row.get("epsilon") for row in rows] == eps,
                 f"compare.json rows {len(rows)} do not match epsilons {eps}")
        _require(all(row.get("hitting_reached") is True for row in rows),
                 "a hitting time was not reached")
        for flag in ("state_monotone", "loss_monotone", "average_monotone"):
            _require(obj.get(flag) is True, f"compare.json: {flag} is not true")
        _, csv_rows = _read_csv(workdir / "out" / "compare.csv", "compare")
        _require(csv_rows.shape[0] == len(eps), "compare.csv row count")


class HittingWorkload(Workload):
    def initialization(self, rng):
        return rng.uniform(0.5, 2.0, self.d), rng.uniform(0.5, 2.0, self.d)

    def argv(self, inp):
        return ["--out-dir", "out", "hitting-time",
                "--instance", str(inp.instance_path),
                "--epsilons", _fmt(self.epsilons), "--eta-fraction", "0.1",
                "--C", _fmt(inp.C), "--k", _fmt(inp.k)]

    def check(self, inp, workdir):
        obj = _read_json(workdir / "out" / "hitting.json")
        rows = obj.get("rows")
        _require(isinstance(rows, list), "hitting.json: no rows")
        eps = sorted(self.epsilons, reverse=True)
        _require([row.get("epsilon") for row in rows] == eps,
                 f"hitting.json rows do not match epsilons {eps}")
        _require(all(row.get("reached") is True for row in rows),
                 "a hitting time was not reached")
        errors = [row["relative_error"] for row in rows]
        _require(all(b < a for a, b in zip(errors, errors[1:])),
                 f"relative_error does not decrease with epsilon: {errors}")
        _, csv_rows = _read_csv(workdir / "out" / "hitting.csv", "hitting")
        _require(csv_rows.shape[0] == len(eps), "hitting.csv row count")


# BENCHMARK.json records why each workload was chosen.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        LimitPathWorkload(name="limit-path-d128", d=128),
        CompareWorkload(name="compare-d8", d=8,
                        epsilons=(1e-8, 1e-12, 1e-16, 1e-20)),
        # Step counts differ by up to 1.5x between these instances, so a
        # larger pool keeps the instance mix from setting the spread
        # between seeds; one pass of 16 fits a 30 s run.
        HittingWorkload(name="hitting-extreme-d32", d=32,
                        epsilons=(1e-30, 1e-100, 1e-300), pool=16),
    )
}
