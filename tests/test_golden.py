"""Golden artifacts: every command, run on small fixed inputs, must write
what the files in ``tests/golden/`` record.

Structure is compared exactly: JSON keys and their order, schema strings,
row counts, ``reached`` flags, active sets, exit codes and echoed lines.
Floats are compared within ``REL_TOL`` relative, so that a few-ULP change
of summation order does not count as a changed artifact.

Regenerate the files, after a deliberate change of an artifact, with

    PYTHONPATH=src python tests/test_golden.py

It rewrites only the files that a fresh run no longer matches, so drift
within ``REL_TOL`` leaves the others as committed. It prints the first
mismatch beside each file it wrote, and names the ones it kept.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from dlnflow.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
REL_TOL = 1e-12

# Inputs the cases read, written to ``<tmp>/in`` before each run.
INPUTS = {
    # s* = 1 at a single breakpoint.
    "tridiag.json": {"M": [[2.0, -1.0], [-1.0, 2.0]], "r": [1.0, 1.0]},
    # Two breakpoints: coordinate 0 joins at s = 0.5, coordinate 1 at 0.75.
    "staged.json": {"M": [[2.0, -1.0], [-1.0, 2.0]], "r": [2.0, 1.0]},
    # Three breakpoints with k = (1, 2, 1.5).
    "d3.json": {"M": [[2.0, -0.5, -0.3], [-0.5, 1.5, -0.4], [-0.3, -0.4, 1.8]],
                "r": [1.0, 0.6, 0.8]},
    "lcp.json": {"q": [-1.0, 1.0, -2.0],
                 "M": [[2.0, -0.5, -0.3], [-0.5, 1.5, -0.4], [-0.3, -0.4, 1.8]]},
    "config.json": {"instance": {"generator": "direct", "d": 3, "seed": 5},
                    "epsilons": [1e-6, 1e-10], "C": [1.0, 2.0, 1.0],
                    "grid_points": 21, "eta_fraction": 0.2},
}

# Arguments of each case; ``{in}`` and ``{out}`` name the input and output
# directories. Commands that print a JSON document have it compared as
# JSON; the others have their echoed lines compared exactly.
CASES = {
    "gen-direct": "gen --d 3 --seed 4 --out {out}/inst.json",
    "gen-rejection": "gen --d 2 --n 3 --seed 7 --generator rejection "
                     "--out {out}/inst.json",
    "simulate": "simulate --instance {in}/staged.json --epsilon 1e-12 --C 1,2 "
                "--k 1,1.5 --s-max 1.5 --grid 11 --out {out}/traj.csv",
    "limit-path": "limit-path --instance {in}/d3.json --k 1,2,1.5 "
                  "--out-json {out}/path.json --out-csv {out}/path.csv --grid 11",
    "fixed-points": "fixed-points --instance {in}/d3.json",
    "lcp-solve": "lcp-solve --input {in}/lcp.json",
    "compare-reached": "--out-dir {out} compare --instance {in}/staged.json "
                       "--epsilons 1e-6,1e-12 --grid 41",
    "compare-unreached": "--out-dir {out} compare --instance {in}/tridiag.json "
                         "--epsilons 1e-8 --s-max 0.8 --grid 41",
    "hitting-time": "--out-dir {out} hitting-time --instance {in}/staged.json "
                    "--epsilons 1e-8,1e-100,1e-300",
    "figure1": "--out-dir {out} figure1 --instance {in}/tridiag.json "
               "--epsilons 1e-8 --grid 11",
    "compare-config": "--out-dir {out} compare --config {in}/config.json",
}
JSON_STDOUT = {"fixed-points", "lcp-solve"}


def _read_csv(path: Path) -> dict:
    with open(path, newline="") as fh:
        comment, header, *rows = csv.reader(fh)
    return {"comment": comment, "header": header,
            "rows": [[float(c) if c else None for c in row] for row in rows]}


def run_case(name: str, tmp: Path) -> dict:
    """Run one case in ``tmp`` and return what it printed and wrote, with
    ``tmp`` replaced by ``<tmp>``."""
    (tmp / "in").mkdir()
    (tmp / "out").mkdir()
    for file, obj in INPUTS.items():
        (tmp / "in" / file).write_text(json.dumps(obj))
    args = CASES[name].replace("{in}", str(tmp / "in")).replace(
        "{out}", str(tmp / "out")).split()
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    stdout = result.stdout.replace(str(tmp), "<tmp>")
    files = {}
    for path in sorted((tmp / "out").rglob("*")):
        key = str(path.relative_to(tmp / "out"))
        files[key] = (_read_csv(path) if path.suffix == ".csv"
                      else json.loads(path.read_text()))
    return {
        "exit_code": result.exit_code,
        "stdout": (json.loads(stdout) if name in JSON_STDOUT
                   else stdout.splitlines()),
        "files": files,
    }


def assert_matches(actual, expected, where="") -> None:
    """Equal structure; floats within ``REL_TOL`` relative."""
    if isinstance(expected, float):
        assert isinstance(actual, float), f"{where}: {actual!r} is not a float"
        assert math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=0.0), (
            f"{where}: {actual!r} != {expected!r}")
    elif isinstance(expected, dict):
        assert isinstance(actual, dict), f"{where}: {actual!r} is not an object"
        assert list(actual) == list(expected), f"{where}: keys differ"
        for key in expected:
            assert_matches(actual[key], expected[key], f"{where}/{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list), f"{where}: {actual!r} is not a list"
        assert len(actual) == len(expected), (
            f"{where}: {len(actual)} items, expected {len(expected)}")
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{where}[{i}]")
    else:
        assert type(actual) is type(expected) and actual == expected, (
            f"{where}: {actual!r} != {expected!r}")


@pytest.mark.parametrize("name", CASES)
def test_golden(name, tmp_path):
    expected = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert_matches(run_case(name, tmp_path), expected, name)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in CASES:
        path = GOLDEN_DIR / f"{name}.json"
        with tempfile.TemporaryDirectory() as tmp:
            record = run_case(name, Path(tmp))
        try:
            assert_matches(record, json.loads(path.read_text()), name)
        except (FileNotFoundError, AssertionError) as exc:
            path.write_text(json.dumps(record, indent=1) + "\n")
            print(f"wrote {path}: {exc}", file=sys.stderr)
        else:
            print(f"kept {path}", file=sys.stderr)
