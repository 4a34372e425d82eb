"""Source mutants that the tests must kill, kept as code that re-runs.

    python tests/mutants.py [ID ...]

Each entry makes one exact source edit, ``old`` -> ``new``, in a temporary
copy of the tree and runs ``pytest -x`` there on the tests it names. The
mutant is killed when that run ends with failing tests (pytest's exit code
1). It survives when they all pass, and any other exit code, such as a
named test that no longer exists, is an error. So is a run that passes
``TIMEOUT_S`` or raises ``MemoryError`` in its ``MEMORY_BYTES`` of
address space, the bounds that stop a mutant whose loop runs away. The
script prints one line per mutant and exits 1 unless every mutant it ran
was killed. Standard library only; ``tests/test_mutants.py`` checks in
tier-1 that each ``old`` occurs exactly once in its file, so moved code
must update this registry.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Each mutant's pytest takes about 2 s and 0.37 GB of address space.
TIMEOUT_S = 120.0
MEMORY_BYTES = 4 << 30


@dataclass(frozen=True)
class Mutant:
    id: str
    file: str  # relative to the root of the tree
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the root


MUTANTS = [
    Mutant("kernel-pivot-sign", "src/dlnflow/lcp.py",
           "pivot = column[n] - row @ row",
           "pivot = column[n] + row @ row",
           ("tests/test_lcp.py::TestActiveSetCholesky::"
            "test_matches_dense_solve_after_every_append",)),
    Mutant("instance-factor-shifted", "src/dlnflow/lcp.py",
           "        return cho_factor(M)\n",
           "        return cho_factor(M + 1e-3 * np.eye(len(M)))\n",
           ("tests/test_problem.py::TestPositiveDefiniteCheck::test_tridiagonal",)),
    Mutant("breakpoint-tol-1e-9", "src/dlnflow/lcp.py",
           "BREAKPOINT_TOL = 1e-12\n",
           "BREAKPOINT_TOL = 1e-9\n",
           ("tests/test_limit_path.py::TestComputePath::test_exchangeable_tie_table",)),
    Mutant("breakpoint-tol-1e-14", "src/dlnflow/lcp.py",
           "BREAKPOINT_TOL = 1e-12\n",
           "BREAKPOINT_TOL = 1e-14\n",
           ("tests/test_limit_path.py::TestComputePath::test_exchangeable_tie_table",)),
    Mutant("late-without-tolerance", "src/dlnflow/lcp.py",
           "late = s_cur + BREAKPOINT_TOL * s_cur",
           "late = s_cur",
           ("tests/test_limit_path.py::TestComputePath::test_exchangeable_tie_table",)),
    Mutant("certificate-passes-nan", "src/dlnflow/limit_path.py",
           "failing = np.flatnonzero(~(np.max(list(residuals.values()), axis=0)\n"
           "                               <= SEGMENT_CHECK_TOL))",
           "failing = np.flatnonzero(np.max(list(residuals.values()), axis=0)\n"
           "                         > SEGMENT_CHECK_TOL)",
           ("tests/test_limit_path.py::TestSegmentCertificate::test_nan_residuals_rejected",)),
    Mutant("certificate-without-negative-w", "src/dlnflow/limit_path.py",
           '                 "negative_w": np.maximum(-np.min(w, axis=1), 0.0) + 0.0,\n',
           "",
           ("tests/test_limit_path.py::TestSegmentCertificate::test_missed_activation_rejected",)),
    Mutant("certificate-without-affine", "src/dlnflow/limit_path.py",
           '    residuals = {"affine": affine / scale,\n'
           '                 "negative_w"',
           '    residuals = {"negative_w"',
           ("tests/test_limit_path.py::TestSegmentCertificate::test_perturbed_slope_rejected",)),
    Mutant("w0-without-log-C", "src/dlnflow/problem.py",
           "return self.k + np.log(self.C) / self.log_epsilon",
           "return self.k",
           ("tests/test_problem.py::TestInitialization::"
            "test_w0_is_k_plus_log_C_over_log_epsilon",
            "tests/test_dynamics.py::TestDynamicsInvariants::"
            "test_monotonicity_violation_reported")),
    Mutant("quiet-delta-1e-8", "src/dlnflow/dynamics.py",
           "QUIET_DELTA = 1e-15\n",
           "QUIET_DELTA = 1e-8\n",
           ("tests/test_dynamics.py::TestQuietStretches::test_the_converged_tail_is_one_jump",)),
    Mutant("hitting-stop-strict", "src/dlnflow/dynamics.py",
           "gap_j * gap_j - eta2 <= 0.0 and _ball_gap(theta, target, eta) <= 0.0",
           "gap_j * gap_j - eta2 < 0.0 and _ball_gap(theta, target, eta) < 0.0",
           ("tests/test_dynamics.py::TestHittingTime::"
            "test_the_stop_is_exact_at_the_squared_radius",)),
    Mutant("hit-root-reads-the-next-row", "src/dlnflow/dynamics.py",
           "trajectory._dense.on_step(j - 1, s)",
           "trajectory._dense.on_step(j, s)",
           ("tests/test_dynamics.py::TestHittingTime::"
            "test_the_root_on_a_hand_built_row_is_the_reference",
            "tests/test_properties.py::"
            "test_the_root_on_the_entering_row_is_the_reference")),
    Mutant("step-scale-skips-the-error-rows", "src/dlnflow/integrate.py",
           "np.multiply(W, h, out=hW_h)",
           "np.multiply(W, h, out=hW_h), np.copyto(he, W[7])",
           ("tests/test_integrate.py::test_loop_matches_the_reference_bit_for_bit",)),
    Mutant("floor-lifted-at-first-crossing", "src/dlnflow/integrate.py",
           "            np.maximum(u_new, floor, out=base)\n"
           "            exp(u_new, theta_new)\n"
           "            if u_new.item(low) >= floor:\n"
           "                low = int(u_new.argmin())\n"
           "            floored = u_new.item(low) < floor\n",
           "            crossed = bool(((u_new >= floor) & (base <= floor)).any())\n"
           "            np.maximum(u_new, floor, out=base)\n"
           "            exp(u_new, theta_new)\n"
           "            floored = not crossed\n",
           ("tests/test_integrate.py::test_no_stage_theta_is_subnormal",)),
    Mutant("floor-lowest-never-re-sought", "src/dlnflow/integrate.py",
           "            if u_new.item(low) >= floor:\n"
           "                low = int(u_new.argmin())\n",
           "",
           ("tests/test_integrate.py::test_no_stage_theta_is_subnormal",)),
    Mutant("floored-end-without-exp-u", "src/dlnflow/integrate.py",
           "            exp(u_new, theta_new)\n",
           "",
           ("tests/test_integrate.py::test_loop_matches_the_reference_bit_for_bit"
            "[extreme-d32]",
            "tests/test_integrate.py::test_a_hook_that_never_stops_changes_nothing"
            "[extreme-d32]")),
    Mutant("base-not-refreshed", "src/dlnflow/integrate.py",
           "        else:\n"
           "            base[...] = u_new\n",
           "",
           ("tests/test_integrate.py::test_loop_matches_the_reference_bit_for_bit",)),
    Mutant("buffer-grows-a-row-late", "src/dlnflow/integrate.py",
           "if len(knots) == len(rows):",
           "if len(knots) > len(rows):",
           ("tests/test_integrate.py::test_loop_matches_the_reference_bit_for_bit"
            "[extreme-d32]",)),
    Mutant("csv-reuses-non-finite", "src/dlnflow/experiments.py",
           "np.logical_and(bits[1:] == bits[:-1], np.isfinite(table[:-1]), out=reuse[1:])",
           "np.equal(bits[1:], bits[:-1], out=reuse[1:])",
           ("tests/test_experiments.py::TestWriters::test_nan_below_none_rejected",)),
    Mutant("csv-reuses-equal-values", "src/dlnflow/experiments.py",
           "np.logical_and(bits[1:] == bits[:-1], np.isfinite(table[:-1]), out=reuse[1:])",
           "np.logical_and(table[1:] == table[:-1], np.isfinite(table[:-1]), out=reuse[1:])",
           ("tests/test_experiments.py::test_write_csv_bytes_equal_the_cellwise_reference",)),
]


def apply(mutant: Mutant, root: Path) -> None:
    """Make ``mutant``'s edit in the tree at ``root``."""
    path = root / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.id}: old text occurs {text.count(mutant.old)} "
                         f"times in {mutant.file}, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def run(mutant: Mutant) -> tuple[str, float]:
    """``killed``, ``survived`` or ``error: ...``, and the wall time."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out",
            "BENCH_*.json"))
        apply(mutant, tree)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 *mutant.tests],
                cwd=tree, env=env, capture_output=True, text=True,
                timeout=TIMEOUT_S, preexec_fn=_cap_memory)
        except subprocess.TimeoutExpired:
            return f"error: still running after {TIMEOUT_S:g} s", time.perf_counter() - start
    if "MemoryError" in proc.stdout + proc.stderr:
        outcome = f"error: out of its {MEMORY_BYTES / 2**30:g} GiB of address space"
    elif proc.returncode == 1:
        outcome = "killed"
    elif proc.returncode == 0:
        outcome = "survived"
    else:
        lines = (proc.stdout + proc.stderr).strip().splitlines()
        outcome = f"error: pytest exit {proc.returncode}: {lines[-1] if lines else ''}"
    return outcome, time.perf_counter() - start


def main(ids) -> int:
    unknown = set(ids) - {m.id for m in MUTANTS}
    if unknown:
        print(f"unknown mutant ids: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not ids or m.id in ids]
    start, killed = time.perf_counter(), 0
    for mutant in chosen:
        outcome, seconds = run(mutant)
        killed += outcome == "killed"
        print(f"{mutant.id:32} {outcome} ({seconds:.1f} s)", flush=True)
    print(f"{killed} of {len(chosen)} mutants killed in "
          f"{time.perf_counter() - start:.1f} s")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
