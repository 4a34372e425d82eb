"""dlnflow benchmark: one workload, closed loop, one client, one process.

    python3 bench/run.py --workload limit-path-d128 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The program is imported from ``src/``
of that checkout. Each op calls a ``dlnflow`` CLI command in-process on
a generated instance (see ``workloads.py``), in its own scratch working
directory under ``.bench_out/``; its artifacts are checked and digested
after its timed interval. BLAS runs single-threaded. Reported times are
scaled to a host running at reference speed (see ``hostspeed.py``); the
run record keeps the unscaled times.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes over the same instances and prints the
per-layer metrics (``tracer.py``) and the tracing overhead. The last
line of stdout is the result object; a human summary goes to stderr and
the run record to ``.bench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREADS = "1"
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3


@dataclass
class OpResult:
    index: int
    wall_s: float
    cpu_s: float
    ok: bool
    reason: str
    digest: str
    scale: float = 1.0  # host-speed scale measured around the op


def _digest(directory: Path) -> str:
    """sha256 over the relative names and bytes of every file written."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_op(workload, inp, workdir: Path, cli_main, tracer=None, op_id=0) -> OpResult:
    """Run one op in ``workdir``; check and digest its artifacts afterwards.

    A non-zero exit code, a raised exception or a failed check marks the op
    failed; it is never dropped.
    """
    workdir.mkdir(parents=True)
    argv = workload.argv(inp)
    captured = io.StringIO()
    reason = ""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            traced = tracer.op(op_id) if tracer is not None else contextlib.nullcontext()
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                with traced:
                    cli_main.main(args=argv, prog_name="dlnflow", standalone_mode=False)
            except SystemExit as exc:
                if exc.code not in (0, None):
                    reason = f"exit code {exc.code}"
            except Exception:
                reason = "raised " + traceback.format_exc(limit=-1).strip()
            wall = time.perf_counter() - wall
            cpu = time.process_time() - cpu
    finally:
        os.chdir(cwd)
    if not reason:
        try:
            workload.check(inp, workdir)
        except Exception as exc:
            reason = f"check failed: {exc}"
    if reason:
        reason += " | output: " + captured.getvalue()[-300:]
    digest = _digest(workdir)
    shutil.rmtree(workdir)
    return OpResult(inp.index, wall, cpu, not reason, reason, digest)


class Runner:
    """Ops of one workload over a pool of inputs, in one scratch directory."""

    def __init__(self, workload, seed: int, work: Path, cli_main):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.cli_main = cli_main
        self.inputs = []
        self.digests: dict[int, str] = {}
        self.findings: list[str] = []
        self._ops = 0

    def setup(self) -> float:
        """Generate and write the input pool and run one warm-up op.

        Returns the wall time of both; the warm-up op is not an op sample.
        """
        start = time.perf_counter()
        directory = self.work / f"inputs-{self._ops}"
        directory.mkdir(parents=True)
        self.inputs = [self.workload.make_input(self.seed, i, directory)
                       for i in range(self.workload.pool)]
        warm = self.op(self.inputs[0])
        if not warm.ok:
            self.findings.append(f"warm-up op failed: {warm.reason}")
        return time.perf_counter() - start

    def op(self, inp, tracer=None) -> OpResult:
        import hostspeed  # imports numpy, so only after bootstrap()

        self._ops += 1
        result, scale = hostspeed.scale_of(lambda: run_op(
            self.workload, inp, self.work / f"op-{self._ops}",
            self.cli_main, tracer, self._ops))
        result.scale = scale
        if result.ok:
            first = self.digests.setdefault(inp.index, result.digest)
            if first != result.digest:
                self.findings.append(
                    f"instance {inp.index}: artifacts differ between identical ops")
        return result

    def passes(self, seconds: float, tracer=None) -> tuple[list[OpResult], list[OpResult]]:
        """Closed loop in whole passes over the pool, for about ``seconds``.

        A pass runs every instance once, and once more under ``tracer`` if
        one is given. Whole passes give every instance the same number of
        runs, so the instance mix and the traced counts repeat exactly for
        a seed. A further pass starts only if it should end by the deadline;
        at least one pass runs.
        """
        untraced, traced = [], []
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            untraced += [self.op(inp) for inp in self.inputs]
            if tracer is not None:
                with tracer.installed():
                    traced += [self.op(inp, tracer) for inp in self.inputs]
            now = time.perf_counter()
            if 2 * now - pass_start > start + seconds:
                return untraced, traced


def bootstrap() -> bool:
    """Pin BLAS threads and put this checkout's ``src/`` first on the path.

    Must run before numpy is imported. False when the sources are missing.
    """
    if not (SRC / "dlnflow" / "__init__.py").is_file():
        print(f"error: no dlnflow sources under {SRC.name}/ of this checkout",
              file=sys.stderr)
        return False
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    return True


def _median(values) -> float:
    return float(statistics.median(values))


def scaled(results: list[OpResult], field: str) -> list[float]:
    """``field`` of each op, scaled to the reference host speed."""
    return [getattr(r, field) * r.scale for r in results]


def end_to_end(results: list[OpResult], setup_s: float) -> dict[str, dict]:
    wall = scaled(results, "wall_s")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": sum(r.ok for r in results) / sum(wall), "unit": "op/s"},
        "op_s_p50": {"value": _median(wall), "unit": "s"},
        "op_cpu_s_p50": {"value": _median(scaled(results, "cpu_s")), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB"},
    }


def per_layer(tracer, untraced, traced) -> dict[str, dict]:
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = (_median(scaled(traced, "wall_s"))
                                   - _median(scaled(untraced, "wall_s")))
    units = {"_s": "s", "_ratio": "ratio", "_per_segment": "1/segment",
             "_per_hit": "1/hit", "bytes_written": "B"}
    return {name: {"value": float(value),
                   "unit": next((u for suffix, u in units.items()
                                 if name.endswith(suffix)), "count")}
            for name, value in sorted(metrics.items())}


def _git(*args) -> str | None:
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    """What a timing depends on besides the workload: code, versions, machine."""
    status = _git("status", "--porcelain", "--", "src")
    return {
        "git_rev": _git("rev-parse", "HEAD"),
        "src_dirty": None if status is None else bool(status),
        "versions": {"python": platform.python_version(),
                     **{p: metadata.version(p) for p in ("numpy", "scipy", "click")}},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads": BLAS_THREADS,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def run_record(args, runner, results, setup_runs, import_s) -> dict:
    """The run's settings, environment and unscaled samples."""
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **environment(),
        "import_s": import_s,
        "setup_runs_s": [s for s, _ in setup_runs],
        "setup_scales": [scale for _, scale in setup_runs],
        "pool_size": runner.workload.pool,
        "samples": len(results),
        "op_instance": [r.index for r in results],
        "op_wall_s": [r.wall_s for r in results],
        "op_cpu_s": [r.cpu_s for r in results],
        "op_scale": [r.scale for r in results],
        "failures": [{"instance": r.index, "reason": r.reason}
                     for r in results if not r.ok],
        "findings": runner.findings,
        "artifact_digests": {str(i): d for i, d in sorted(runner.digests.items())},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not bootstrap():
        return 2
    from dlnflow import cli

    import hostspeed
    import tracer as tracing
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    import_s = time.perf_counter() - _START

    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        runner = Runner(WORKLOADS[args.workload], args.seed, work, cli.main)
        setup_runs = [hostspeed.scale_of(runner.setup) for _ in range(SETUP_REPEATS)]
        setup_s = (import_s * setup_runs[0][1]
                   + _median(s * scale for s, scale in setup_runs))
        tracer = tracing.Tracer() if args.trace else None
        untraced, traced = runner.passes(args.seconds, tracer)
        if args.trace:
            metrics = per_layer(tracer, untraced, traced)
            results, samples = untraced + traced, len(traced)
        else:
            metrics = end_to_end(untraced, setup_s)
            results, samples = untraced, len(untraced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not r.ok for r in results)
    record = run_record(args, runner, results, setup_runs, import_s)
    record["metrics"] = metrics
    if args.trace:
        record["spans"] = tracer.span_records()
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(results)} ops, {failed} failed "
          f"(fail_frac {failed / len(results):.4g})", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:12.6g} {m['unit']:10s} n={samples}",
              file=sys.stderr)
    print(f"  unscaled wall p50 {_median(r.wall_s for r in results):.6g} s, "
          f"host-speed scale p50 {_median(r.scale for r in results):.4g}",
          file=sys.stderr)
    for finding in runner.findings:
        print(f"  finding: {finding}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not runner.findings,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
