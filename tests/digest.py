"""One sha256 over what a fixed set of integration runs computes.

    PYTHONPATH=src python tests/digest.py [NAME ...]

Each case is a ``simulate`` or ``hitting_time`` run on
``generate_direct(d, seed)`` with C and k drawn from U(0.5, 2) by its seed.
While they run, ``dynamics.integrate`` is wrapped to keep each call's
knots, step-end u, dense rows and ``IntegratorStats`` and the theta its
step hook is handed; the digest covers those, each simulated trajectory's
grid theta and each hitting time, in case order. Two trees whose runs are
the same bit for bit print the same line, so a claim that a change is
"bit for bit" is this line printed on both. Standard library and numpy
only; the named cases, or all of them, run in a few seconds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import sys

import numpy as np

from dlnflow import Initialization, dynamics, generate_direct
from dlnflow.limit_path import convergence_time_s_star


@dataclasses.dataclass(frozen=True)
class Case:
    name: str
    kind: str  # "simulate" to span * s*, or "hitting" with s_cap = span * s*
    d: int
    seed: int
    eps: float
    span: float


# The first case is the smallest, the one tier-1 runs.
CASES = (
    Case("simulate-d8-1e-8", "simulate", 8, 1, 1e-8, 1.5),
    # The converged tail at eps = 1e-12 is stepped over in one jump.
    Case("simulate-d8-1e-12-tail", "simulate", 8, 2, 1e-12, 4.0),
    Case("hitting-d8-1e-20", "hitting", 8, 3, 1e-20, 2.0),
    Case("hitting-d8-1e-100", "hitting", 8, 4, 1e-100, 2.0),
    Case("simulate-d32-1e-8", "simulate", 32, 5, 1e-8, 1.5),
    Case("hitting-d32-1e-30", "hitting", 32, 6, 1e-30, 2.0),
    Case("hitting-d32-1e-100", "hitting", 32, 7, 1e-100, 2.0),
    # Floored (some u0 below -650), lifted once every coordinate has
    # climbed to the floor, and jumping over quiet plateaus.
    Case("hitting-d8-1e-300", "hitting", 8, 8, 1e-300, 2.0),
    Case("simulate-d8-1e-300", "simulate", 8, 9, 1e-300, 1.5),
    Case("hitting-d32-1e-300", "hitting", 32, 10, 1e-300, 2.0),
    Case("simulate-d32-1e-300", "simulate", 32, 11, 1e-300, 1.5),
)


def _update(h, *arrays) -> None:
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(repr(a.shape).encode() + a.tobytes())


def run(case: Case, h) -> None:
    """Run ``case`` and feed what it computes to ``h``."""
    instance, _ = generate_direct(case.d, case.seed)
    rng = np.random.default_rng(case.seed)
    C, k = rng.uniform(0.5, 2.0, case.d), rng.uniform(0.5, 2.0, case.d)
    init = Initialization(C=C, k=k, epsilon=case.eps)
    s_end = case.span * convergence_time_s_star(instance, k)
    integrate, calls = dynamics.integrate, []
    signature = inspect.signature(integrate)

    def recorded(*args, **kwargs):
        arguments = signature.bind(*args, **kwargs).arguments
        hook, thetas = arguments.get("step_callback"), []
        if hook is not None:
            def keep(theta):
                thetas.append(theta)
                return hook(theta)
            arguments["step_callback"] = keep
        dense = integrate(**arguments)
        calls.append((dense, thetas))
        return dense

    dynamics.integrate = recorded
    try:
        if case.kind == "simulate":
            trajectory = dynamics.simulate(instance, init, s_end)
            _update(h, trajectory.theta, trajectory.averages)
        else:
            eta = 0.1 * float(instance.minimizer().min())
            _update(h, [dynamics.hitting_time(instance, init, eta, s_end)])
    finally:
        dynamics.integrate = integrate
    for dense, thetas in calls:
        knots, u = dense.step_ends
        _update(h, knots, u, dense._rows, thetas)
        h.update(repr(dataclasses.astuple(dense.stats)).encode())


def main(names) -> int:
    unknown = set(names) - {c.name for c in CASES}
    if unknown:
        print(f"unknown case names: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [c for c in CASES if not names or c.name in names]
    h = hashlib.sha256()
    for case in chosen:
        h.update(case.name.encode())
        run(case, h)
    print(f"{h.hexdigest()}  {len(chosen)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
