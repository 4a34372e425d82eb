"""Experiment harnesses: simulate, compare against the limit, emit files.

Everything here is deterministic for a fixed configuration: instances come
from seeded generators or files, tolerances are explicit, and all outputs
are written atomically (temp file + rename) with a schema version header.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass
from pathlib import Path

import numpy as np

from . import dynamics, fixed_points, limit_path, problem
from .errors import DimensionMismatch, DomainError, NotReached
from .lcp import _finite_array
# write_json is called through this module's name; bench/tracer.py wraps it here.
from .problem import Initialization, ProblemInstance, _write_atomic, write_json

CSV_SCHEMA = "dlnflow-csv v1"
# Half-width of the windows around activation times that the compare
# state and loss gaps exclude, as a fraction of s*.
WINDOW_FRACTION = 0.05
# Default hitting radius as a fraction of the smallest minimizer coordinate.
DEFAULT_ETA_FRACTION = 0.1
# Points per axis of the phase portrait's vector-field grid.
FIELD_POINTS = 25
# repr() of the floats that write_csv rejects.
_NON_FINITE = frozenset({"nan", "inf", "-inf"})


# -- output helpers ----------------------------------------------------------

def write_csv(path, kind: str, header: list[str], rows) -> Path:
    """Write a CSV with a version/kind comment header, atomically.

    ``rows`` is a 2-D float array, or a list of rows whose cells may be
    ``None``, written as an empty cell, for a value that does not exist.
    Each other cell is ``repr(float(v))``. A row whose width differs from
    the header's, NaN and infinity are rejected. A finite cell whose value
    equals, bit for bit, the cell directly above it reuses that cell's text,
    so the bytes are those of formatting every cell.
    """
    table = rows if isinstance(rows, np.ndarray) else None
    rows = list(rows) if table is None else table.tolist()
    width = len(header)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DomainError(f"{kind} row {i} has {len(row)} cells, "
                              f"not the header's {width}")
    if table is None:
        # None reads as NaN here, and a non-finite cell is never reused.
        table = np.array(rows, dtype=float).reshape(len(rows), width)
    bits = table.view(np.int64)
    reuse = np.zeros(table.shape, dtype=bool)
    np.logical_and(bits[1:] == bits[:-1], np.isfinite(table[:-1]), out=reuse[1:])

    def write(fh):
        fh.write(f"# {CSV_SCHEMA} {kind}\n")
        fh.write(",".join(header) + "\r\n")
        # Row 0 reuses nothing, so the header's texts are never read.
        above = header
        for row, mask in zip(rows, reuse.tolist()):
            cells = [text if same else "" if v is None else repr(float(v))
                     for v, text, same in zip(row, above, mask)]
            if not _NON_FINITE.isdisjoint(cells):
                raise DomainError(f"non-finite value in {kind} row: {cells}")
            fh.write(",".join(cells) + "\r\n")
            above = cells

    return _write_atomic(path, write)


def _write_report(out_dir, stem: str, document: dict, *table) -> list[Path]:
    """``<stem>.json`` and, given ``table`` = (kind, header, rows),
    ``<stem>.csv`` in ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = [write_json(out_dir / f"{stem}.json", document)]
    if table:
        written.append(write_csv(out_dir / f"{stem}.csv", *table))
    return written


# -- inputs -------------------------------------------------------------------

def sweep(epsilons) -> list[float]:
    """The epsilons of a sweep, nonempty, distinct and inside (0, 1),
    ordered by decreasing epsilon."""
    eps = _finite_array(epsilons, "epsilons", (None,)).tolist()
    if len(set(eps)) != len(eps):
        raise DomainError("epsilons must be distinct")
    if not all(0.0 < e < 1.0 for e in eps):
        raise DomainError("epsilons must lie strictly inside (0, 1)")
    return sorted(eps, reverse=True)


def epsilon_label(eps: float) -> str:
    """Shortest scientific text of eps: ``1e-08``, ``1.2e-08``."""
    return np.format_float_scientific(eps, trim="-")


def ones_unless(values, d: int):
    """``values`` unconverted, or all ones of length d when absent."""
    return np.ones(d) if values is None else values


def uniform_grid(s_max: float, points: int) -> np.ndarray:
    """``points`` >= 2 uniform samples of a finite span [0, s_max]."""
    if not (points >= 2 and 0.0 < s_max < np.inf):
        raise DomainError(f"a grid needs 2 or more points on a finite span, "
                          f"got {points} on [0, {s_max}]")
    return np.linspace(0.0, s_max, points)


# -- documents ------------------------------------------------------------------

def write_limit_path(path: limit_path.LimitPath, out_json, out_csv,
                     grid_points: int) -> list[Path]:
    """Write the path's breakpoints, active sets and stationary points as
    JSON and, with ``out_csv``, mu(s) and the limit process sampled on
    ``grid_points`` uniform points of [0, 1.5 s*] as CSV."""
    s_grid = uniform_grid(1.5 * path.s_star, grid_points)
    written = [write_json(out_json, {
        "schema": "dlnflow-limit-path v1",
        "breakpoints": path.breakpoints.tolist(),
        "s_star": path.s_star,
        "active_sets": [list(seg.active) for seg in path.segments],
        "fixed_points": [seg.theta_star.tolist() for seg in path.segments],
    })]
    if out_csv is not None:
        theta, mu_vals = path.sample(s_grid)
        d = theta.shape[1]
        header = (["s"] + [f"mu_{i + 1}" for i in range(d)]
                  + [f"theta_star_{i + 1}" for i in range(d)])
        written.append(write_csv(out_csv, "limit-path", header,
                                 np.column_stack([s_grid, mu_vals, theta])))
    return written


def write_trajectory(path, traj: dynamics.Trajectory) -> Path:
    """Write the sampled trajectory: s, t, theta_*, w_*, loss and the
    running average avg_* (0 at s = 0)."""
    d = traj.instance.d
    header = (
        ["s", "t"]
        + [f"theta_{i + 1}" for i in range(d)]
        + [f"w_{i + 1}" for i in range(d)]
        + ["loss"]
        + [f"avg_{i + 1}" for i in range(d)]
    )
    rows = np.column_stack([traj.s, traj.t, traj.theta, traj.w,
                            traj.loss_values(), traj.averages])
    return write_csv(path, "trajectory", header, rows)


def lcp_json(solution) -> dict:
    """The ``lcp-solve`` document for one ``LcpSolution``."""
    return {"schema": "dlnflow-lcp v1", "w": solution.w.tolist(),
            "z": solution.z.tolist(), "support": list(solution.support)}


def fixed_points_json(points) -> dict:
    """The fixed-points document for a list of ``FixedPoint``."""
    return {
        "schema": "dlnflow-fixed-points v1",
        "points": [
            {"support": list(p.support), "theta": p.theta.tolist(),
             "residual": p.residual}
            for p in points
        ],
    }


# -- comparison experiment -----------------------------------------------------

@dataclass(frozen=True)
class ComparisonRow:
    """Sup-norm gaps between one simulation and the asymptotic prediction."""

    epsilon: float
    state_error: float
    loss_error: float
    average_error: float
    hitting_ratio: float | None
    hitting_reached: bool


@dataclass(frozen=True)
class ComparisonReport:
    """Fields in the order of the ``dlnflow-compare v1`` JSON keys."""

    s_star: float
    breakpoints: tuple[float, ...]
    excluded_windows: tuple[tuple[float, float], ...]
    average_window: tuple[float, float]
    eta: float
    state_monotone: bool | None
    loss_monotone: bool | None
    average_monotone: bool | None
    rows: tuple[ComparisonRow, ...]          # ordered by decreasing epsilon

    def to_json_dict(self) -> dict:
        return {"schema": "dlnflow-compare v1", **asdict(self)}

    def write(self, out_dir) -> list[Path]:
        """Write ``compare.json`` and ``compare.csv`` with one row per
        epsilon; a hitting ratio that was not reached is an empty cell."""
        return _write_report(
            out_dir, "compare", self.to_json_dict(), "compare",
            ["epsilon", "state_error", "loss_error", "average_error",
             "hitting_ratio", "reached"], map(astuple, self.rows))

    def write_partial(self, out_dir) -> Path:
        """Write ``compare.partial.json`` alone, for the rows that finished
        before a failure."""
        return _write_report(out_dir, "compare.partial", self.to_json_dict())[0]


def _hitting_radius(instance: ProblemInstance, eta_fraction: float) -> float:
    """eta = eta_fraction * min_i (M^{-1} r)_i, with eta_fraction in (0, 1),
    where the limiting hitting ratio does not depend on eta."""
    if not (0.0 < eta_fraction < 1.0):
        raise DomainError("eta_fraction must lie strictly between 0 and 1")
    return eta_fraction * float(np.min(instance.minimizer()))


def _sup_gap(values: np.ndarray, limit: np.ndarray, mask: np.ndarray) -> float:
    return float(np.max(np.abs(values[mask] - limit[mask])))


def _monotone_decreasing(values: list[float]) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def run_compare(
    instance: ProblemInstance,
    C,
    k,
    epsilons,
    *,
    s_max: float | None = None,
    grid_points: int = dynamics.DEFAULT_GRID_POINTS,
    tol: float = dynamics.DEFAULT_TOL,
    eta_fraction: float = DEFAULT_ETA_FRACTION,
    on_failure=None,
) -> ComparisonReport:
    """Per-epsilon sup-norm gaps to the limiting process and its average.

    The state and loss gaps are taken over the grid minus windows of radius
    ``WINDOW_FRACTION * s*`` around each activation time, where uniform
    convergence provably fails; the windows are recorded in the report. The
    average gap is taken over [0.1 s*, s_max]; a grid with no point for
    either gap raises ``DomainError``. With several epsilons
    (ordered decreasing) the report flags whether each gap decreases
    monotonically. If an epsilon's row raises, ``on_failure`` is called
    with the report of the finished rows before the exception propagates.
    """
    epsilons = sweep(epsilons)
    path = limit_path.compute_path(instance, k)
    s_star = path.s_star
    if s_max is None:
        s_max = 1.5 * s_star
    grid = uniform_grid(s_max, grid_points)

    delta = WINDOW_FRACTION * s_star
    windows = tuple((float(b - delta), float(b + delta)) for b in path.breakpoints)
    state_mask = grid > 0
    for lo, hi in windows:
        state_mask &= ~((grid >= lo) & (grid <= hi))
    avg_lo = 0.1 * s_star
    avg_mask = grid >= avg_lo
    if not (state_mask.any() and avg_mask.any()):
        raise DomainError(f"no grid point to compare: the state gap needs one off "
                          f"{windows}, the average gap one in [{avg_lo}, {s_max}]")

    limit_theta, limit_mu = path.sample(grid)
    limit_loss = problem.loss(instance, limit_theta)
    eta = _hitting_radius(instance, eta_fraction)

    def report(rows, complete: bool):
        # Monotonicity flags need every epsilon; a partial report has none.
        flags = [None] * 3
        if complete and len(rows) >= 2:
            flags = [_monotone_decreasing([getattr(r, name) for r in rows])
                     for name in ("state_error", "loss_error", "average_error")]
        return ComparisonReport(
            s_star=float(s_star),
            breakpoints=tuple(float(b) for b in path.breakpoints),
            excluded_windows=windows,
            average_window=(float(avg_lo), float(s_max)),
            eta=float(eta),
            state_monotone=flags[0],
            loss_monotone=flags[1],
            average_monotone=flags[2],
            rows=tuple(rows),
        )

    rows = []
    try:
        for eps in epsilons:
            init = Initialization(C=C, k=k, epsilon=eps)
            traj = dynamics.simulate(instance, init, s_max, s_grid=grid, tol=tol)
            try:
                ratio = dynamics.hitting_time_on(traj, eta) / (-init.log_epsilon)
                reached = True
            except NotReached:
                ratio, reached = None, False
            rows.append(ComparisonRow(
                epsilon=eps,
                state_error=_sup_gap(traj.theta, limit_theta, state_mask),
                loss_error=_sup_gap(traj.loss_values(), limit_loss, state_mask),
                average_error=_sup_gap(traj.averages, limit_mu, avg_mask),
                hitting_ratio=ratio,
                hitting_reached=reached,
            ))
    except Exception:
        if on_failure is not None:
            on_failure(report(rows, complete=False))
        raise
    return report(rows, complete=True)


# -- hitting-time experiment ---------------------------------------------------

@dataclass(frozen=True)
class HittingRow:
    epsilon: float
    ratio: float | None
    relative_error: float | None
    reached: bool


@dataclass(frozen=True)
class HittingTable:
    """Fields in the order of the ``dlnflow-hitting v1`` JSON keys."""

    s_star: float
    eta: float
    rows: tuple[HittingRow, ...]

    def to_json_dict(self) -> dict:
        return {"schema": "dlnflow-hitting v1", **asdict(self)}

    def write(self, out_dir) -> list[Path]:
        """Write ``hitting.json`` and ``hitting.csv`` with one row per
        epsilon; values of an unreached epsilon are empty cells."""
        return _write_report(
            out_dir, "hitting", self.to_json_dict(), "hitting",
            ["epsilon", "ratio", "relative_error", "reached"],
            map(astuple, self.rows))


def run_hitting(
    instance: ProblemInstance,
    C,
    k,
    epsilons,
    eta_fraction: float = DEFAULT_ETA_FRACTION,
    *,
    s_max: float | None = None,
    tol: float = dynamics.DEFAULT_TOL,
) -> HittingTable:
    """Rescaled hitting times of the eta-ball around the minimizer.

    eta is eta_fraction times the smallest minimizer coordinate. Rows are
    ordered by decreasing epsilon and carry the relative gap to the
    predicted convergence time.
    """
    epsilons = sweep(epsilons)
    s_star = limit_path.convergence_time_s_star(instance, k)
    if s_max is None:
        s_max = 2.0 * s_star
    eta = _hitting_radius(instance, eta_fraction)

    rows = []
    for eps in epsilons:
        init = Initialization(C=C, k=k, epsilon=eps)
        try:
            tau = dynamics.hitting_time(instance, init, eta, s_max, tol=tol)
            ratio = tau / (-init.log_epsilon)
            rel = abs(ratio - s_star) / s_star
            rows.append(HittingRow(eps, ratio, rel, True))
        except NotReached:
            rows.append(HittingRow(eps, None, None, False))
    return HittingTable(s_star=float(s_star), eta=float(eta), rows=tuple(rows))


# -- phase-portrait experiment ---------------------------------------------------

def run_figure1(
    instance: ProblemInstance,
    C,
    k,
    epsilons,
    out_dir,
    *,
    s_max: float | None = None,
    grid_points: int = dynamics.DEFAULT_GRID_POINTS,
    tol: float = dynamics.DEFAULT_TOL,
) -> dict[str, str]:
    """Phase-portrait data for two-dimensional instances.

    Emits the vector field of the flow on a rectangular grid, all four
    stationary points, and one trajectory file per epsilon, once every
    trajectory is simulated. Rendering is left to external tools.
    """
    epsilons = sweep(epsilons)
    if instance.d != 2:
        raise DimensionMismatch(f"phase portrait requires d = 2, got {instance.d}")
    if s_max is None:
        s_max = 2.0 * limit_path.convergence_time_s_star(instance, k)
    s_grid = uniform_grid(s_max, grid_points)
    trajectories = {
        f"trajectory_eps_{epsilon_label(eps)}.csv": dynamics.simulate(
            instance, Initialization(C=C, k=k, epsilon=eps), s_max,
            s_grid=s_grid, tol=tol)
        for eps in epsilons
    }

    points = fixed_points.enumerate_fixed_points(instance)
    hi = 1.25 * max(float(np.max(p.theta)) for p in points)
    hi = max(hi, 1e-3)

    axis = np.linspace(0.0, hi, FIELD_POINTS)
    th1, th2 = np.meshgrid(axis, axis, indexing="ij")
    theta = np.column_stack([th1.ravel(), th2.ravel()])
    field = theta * (instance.r - theta @ instance.M.T)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "field": str(write_csv(out_dir / "field.csv", "figure1-field",
                               ["theta_1", "theta_2", "v_1", "v_2"],
                               np.column_stack([theta, field]))),
        "fixed_points": str(write_json(out_dir / "fixed_points.json",
                                       fixed_points_json(points))),
    }
    for name, traj in trajectories.items():
        paths[name] = str(write_trajectory(out_dir / name, traj))
    return paths
