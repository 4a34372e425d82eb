"""Scaling sweep along the paper's two axes; not part of the gated benchmark.

    python3 bench/sweep.py [--dims 4,64,128,256] [--out FILE]

Along ``d``: ``compute_path``, ``simulate`` at eps=1e-12 and
``hitting_time_on`` on ``generate_direct(d, seed=7)`` with k = C = 1.
Along ``|log eps|``: ``simulate`` at d=4 for eps in {1e-12, 1e-100, 1e-300}.
Times are medians of ``REPEATS`` untraced calls; counts (Cholesky
factorizations, path segments, integrator steps) come from one further
call under the benchmark's tracer. The record (with the environment of
``run.py``) is printed as JSON and optionally written to ``--out``.
Add 512 to ``--dims`` to read the large-d path target (minutes per call
today).
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import sys
import time

import run

SEED = 7
D_AXIS_EPSILON = 1e-12
EPS_AXIS_D = 4
EPS_AXIS = (1e-12, 1e-100, 1e-300)
REPEATS = 3


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def measure(fn, tracer, op_id: int):
    """Median wall time of ``fn()`` over ``REPEATS`` calls, then one traced call."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    with tracer.installed(), tracer.op(op_id):
        fn()
    return result, statistics.median(times), tracer.counts[op_id]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dims", default="4,64,128,256")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if not run.bootstrap():
        return 2
    import numpy as np
    from dlnflow import dynamics, limit_path, problem

    from tracer import Tracer

    tracer = Tracer()
    ops = itertools.count(1)

    def trajectory_case(instance, epsilon, s_max):
        init = problem.Initialization(C=np.ones(instance.d), k=np.ones(instance.d),
                                      epsilon=epsilon)
        return lambda: dynamics.simulate(instance, init, s_max)

    rows = []
    for d in (int(x) for x in args.dims.split(",")):
        instance, _ = problem.generate_direct(d, SEED)
        k = np.ones(d)
        path, path_s, counts = measure(lambda: limit_path.compute_path(instance, k),
                                       tracer, next(ops))
        factors = sum(counts[f"{m}.cho_factor.calls"]
                      for m in ("lcp", "limit_path", "fixed_points"))
        traj, sim_s, sim_counts = measure(
            trajectory_case(instance, D_AXIS_EPSILON, 1.5 * path.s_star),
            tracer, next(ops))
        eta = 0.1 * float(np.min(instance.minimizer()))
        _, hit_s, _ = measure(lambda: dynamics.hitting_time_on(traj, eta),
                              tracer, next(ops))
        rows.append({"d": d, "compute_path_s": path_s, "cho_factor_calls": factors,
                     "segments": counts["limit_path.segments"],
                     "simulate_s": sim_s, "steps": sim_counts["integrate.steps"],
                     "hitting_time_on_s": hit_s})
        print(f"d={d:4d} compute_path {path_s:9.4f} s  {factors:6d} factors  "
              f"simulate {sim_s:7.4f} s ({sim_counts['integrate.steps']} steps)  "
              f"hitting_time_on {hit_s:7.4f} s", file=sys.stderr)

    instance, _ = problem.generate_direct(EPS_AXIS_D, SEED)
    s_star = limit_path.compute_path(instance, np.ones(EPS_AXIS_D)).s_star
    eps_rows = []
    for epsilon in EPS_AXIS:
        _, sim_s, counts = measure(trajectory_case(instance, epsilon, 1.5 * s_star),
                                   tracer, next(ops))
        eps_rows.append({"d": EPS_AXIS_D, "epsilon": epsilon, "simulate_s": sim_s,
                         "steps": counts["integrate.steps"],
                         "rejected": counts["integrate.rejected"]})
        print(f"d={EPS_AXIS_D} eps={epsilon:.0e} simulate {sim_s:7.4f} s "
              f"({counts['integrate.steps']} steps)", file=sys.stderr)

    record = {"sweep": "dlnflow scaling", "seed": SEED, "repeats": REPEATS,
              "d_axis_epsilon": D_AXIS_EPSILON, **run.environment(),
              "cpu": _cpu_model(),
              "d_axis": rows, "eps_axis": eps_rows}
    text = json.dumps(record, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
