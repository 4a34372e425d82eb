"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.

Simulations here run at integration tolerance 1e-11: the invariants below
carry 1e-10 slack, and at looser tolerances the converged tail leaves
tolerance-scale jitter in theta that would be measured instead of the
dynamics. Every trajectory produced by this module is recorded and swept by
the invariant criterion.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from conftest import random_k_matrix, random_instance, scalar_logistic
from dlnflow import (
    Initialization,
    ProblemInstance,
    compute_path,
    convergence_time_s_star,
    enumerate_fixed_points,
    from_data,
    generate_direct,
    generate_rejection,
    hitting_time_on,
    run_compare,
    simulate,
    solve_lcp,
    solve_qp_nonneg,
    theta_star_of_s,
)
from dlnflow.problem import loss
from oracles import solve_lcp_bruteforce, solve_limit_lcp

SIM_TOL = 1e-11
INVARIANT_SLACK = 1e-10
EPS_SWEEP = (1e-6, 1e-12, 1e-20)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[ACCEPT-{num:02d}] {'PASS' if ok else 'FAIL'} {detail}")


# -- shared simulations -------------------------------------------------------

@dataclass
class SimRecord:
    label: str
    max_coordinate_drop: float
    max_loss_increase: float
    worst_region_residual: float
    min_theta: float


_SIM_LOG: list[SimRecord] = []
_SIM_CACHE: dict = {}


def checked_simulate(label, instance, init, s_max, grid_points=400):
    key = (label, init.epsilon, s_max)
    if key in _SIM_CACHE:
        return _SIM_CACHE[key]
    grid = np.linspace(0.0, s_max, grid_points)
    traj = simulate(instance, init, s_max, s_grid=grid, tol=SIM_TOL)
    losses = traj.loss_values()
    residuals = instance.r[None, :] - traj.theta @ instance.M
    _SIM_LOG.append(
        SimRecord(
            label=f"{label} eps={init.epsilon:.0e}",
            max_coordinate_drop=max(0.0, float(-np.min(np.diff(traj.theta, axis=0)))),
            max_loss_increase=max(0.0, float(np.max(np.diff(losses)))),
            worst_region_residual=float(np.min(residuals)),
            min_theta=float(np.min(traj.theta)),
        )
    )
    _SIM_CACHE[key] = traj
    return traj


def separable_instance():
    return ProblemInstance(M=np.eye(2), r=[2.0, 1.0])


def fig2_instance():
    return from_data(generate_rejection(n=5, d=4, seed=20))


# -- criteria -----------------------------------------------------------------

def test_criterion_01_separable_oracle():
    """Closed-form breakpoints and terminal time; sup-norm tracking of the
    piecewise-constant limit away from activation times.

    The paper proves the limit, not a bound at fixed epsilon, so the tracking
    is checked against the exact solution: on M = I, C = k = 1 coordinate i
    is a logistic with rate and limit r_i started at epsilon, and its limit
    jumps from 0 to r_i at s = 1/r_i."""
    inst = separable_instance()
    ones = np.ones(2)
    path = compute_path(inst, ones)
    bp_ok = np.allclose(path.breakpoints, [0.5, 1.0], atol=1e-9)
    s_star_ok = abs(path.s_star - 1.0) <= 1e-9

    rates = (2.0, 1.0)
    windows = [(0.6, 0.9), (1.1, 1.5)]
    grid = np.concatenate([np.linspace(lo, hi, 150) for lo, hi in windows])
    limit = np.array([theta_star_of_s(path, s) for s in grid])
    exact_limit = np.column_stack([np.where(grid > 1.0 / r, r, 0.0) for r in rates])
    sups, exact_sups, gaps = {}, {}, {}
    for eps in EPS_SWEEP:
        traj = checked_simulate("separable", inst, Initialization(ones, ones, eps), 1.5)
        theta = traj.theta_at(grid)
        t = grid * np.log(1.0 / eps)
        exact = np.column_stack(
            [scalar_logistic(t, eps, rate=r, limit=r) for r in rates])
        sups[eps] = float(np.max(np.abs(theta - limit)))
        exact_sups[eps] = float(np.max(np.abs(exact - exact_limit)))
        gaps[eps] = float(np.max(np.abs(theta - exact)))
    tracks = all(gaps[e] <= 1e-8 and abs(sups[e] - exact_sups[e]) <= 1e-8
                 for e in EPS_SWEEP)
    # At small epsilon the sup sits at the window edges s = 0.9 and 1.1,
    # where the slow coordinate is eps^0.1 / (1 + eps^0.1) off its limit.
    edge_eps = 1e-12
    edge = edge_eps**0.1 / (1 + edge_eps**0.1)
    edge_ok = abs(exact_sups[edge_eps] - edge) <= 1e-12
    monotone = sups[1e-6] > sups[1e-12] > sups[1e-20]

    ok = bp_ok and s_star_ok and tracks and edge_ok and monotone
    report(1, ok,
           f"breakpoints={'ok' if bp_ok else 'BAD'} s_star={'ok' if s_star_ok else 'BAD'} "
           f"monotone={'ok' if monotone else 'BAD'} "
           + " ".join(f"[eps={e:.0e}: sup={sups[e]:.6f} exact={exact_sups[e]:.6f} "
                      f"|theta-exact|={gaps[e]:.1e}]" for e in EPS_SWEEP))
    assert bp_ok and s_star_ok
    for eps in EPS_SWEEP:
        assert gaps[eps] <= 1e-8, (
            f"simulated theta is {gaps[eps]:.2e} off the exact logistic at "
            f"eps={eps:.0e} (tolerance 1e-8)")
        assert abs(sups[eps] - exact_sups[eps]) <= 1e-8, (
            f"sup-norm gap {sups[eps]:.6f} at eps={eps:.0e} differs from the "
            f"closed-form gap {exact_sups[eps]:.6f} by more than 1e-8")
    assert edge_ok, (
        f"closed-form sup {exact_sups[edge_eps]:.6f} at eps={edge_eps:.0e} is not "
        f"the window-edge value eps^0.1/(1+eps^0.1) = {edge:.6f}")
    assert monotone, (
        "sup-norm gap not strictly decreasing in eps: "
        + " > ".join(f"{sups[e]:.6f}" for e in EPS_SWEEP))


def test_criterion_02_average_tracks_regularization_path():
    """Running averages converge uniformly to the regularized minimizers."""
    details = []
    all_ok = True
    for label, inst in [("separable", separable_instance()),
                        ("fig2", fig2_instance())]:
        ones = np.ones(inst.d)
        path = compute_path(inst, ones)
        s_max = 1.5 * path.s_star
        grid = np.linspace(0.1 * path.s_star, s_max, 200)
        mu_vals = np.array([path.mu_at(s) for s in grid])
        errs = []
        for eps in EPS_SWEEP:
            traj = checked_simulate(label, inst, Initialization(ones, ones, eps),
                                    s_max)
            errs.append(float(np.max(np.abs(traj.average(grid) - mu_vals))))
        ok = errs[0] > errs[1] > errs[2]
        all_ok &= ok
        details.append(f"{label}: {errs[0]:.4f} > {errs[1]:.4f} > {errs[2]:.4f}"
                       f" {'ok' if ok else 'BAD'}")
    report(2, all_ok, "; ".join(details))
    assert all_ok


HITTING_SPECS = [(2, 11), (3, 12), (4, 13), (5, 14), (5, 15)]


def test_criterion_03_hitting_time_ratio():
    """At eps = 1e-20 the rescaled hitting time is within 10% of the
    predicted convergence time and insensitive to the ball radius."""
    rows = []
    all_ok = True
    for d, seed in HITTING_SPECS:
        inst, _ = generate_direct(d, seed, offdiag_scale=0.4 / max(1, d - 1))
        ones = np.ones(d)
        s_star = convergence_time_s_star(inst, ones)
        init = Initialization(ones, ones, 1e-20)
        traj = checked_simulate(f"hitting-d{d}-s{seed}", inst, init, 2.0 * s_star)
        log_term = np.log(1e20)
        theta_min = float(np.min(inst.minimizer()))
        ratio_01 = hitting_time_on(traj, 0.1 * theta_min) / log_term
        ratio_05 = hitting_time_on(traj, 0.5 * theta_min) / log_term
        rel = abs(ratio_01 - s_star) / s_star
        eta_gap = abs(ratio_01 - ratio_05) / max(ratio_01, ratio_05)
        ok = rel <= 0.10 and eta_gap <= 0.05
        all_ok &= ok
        rows.append(f"d={d}: rel={rel:.1%} etaGap={eta_gap:.1%}")
    report(3, all_ok, "; ".join(rows))
    assert all_ok


def test_criterion_04_lcp_oracle_equivalence():
    """Pivoting, exhaustive enumeration and projected gradient agree on 200
    random anti-correlated systems."""
    rng = np.random.default_rng(2024)
    worst_value_gap = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 9))
        M = random_k_matrix(rng, d)
        q = rng.normal(size=d) * rng.uniform(0.5, 3.0)
        a = solve_lcp(q, M)
        b = solve_lcp_bruteforce(q, M)
        c = solve_qp_nonneg(q, M)
        assert a.support == b.support
        gap = max(float(np.max(np.abs(a.z - b.z))), float(np.max(np.abs(a.z - c))))
        worst_value_gap = max(worst_value_gap, gap)
        assert gap <= 1e-8
    report(4, True, f"200 instances, supports exact, worst value gap "
                    f"{worst_value_gap:.2e} (bound 1e-8)")


def test_criterion_05_antitonicity():
    """Componentwise ordering of primal solutions under offset ordering."""
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 9))
        M = random_k_matrix(rng, d)
        q2 = rng.normal(size=d)
        q1 = q2 - rng.uniform(0.0, 2.0, size=d)
        z1 = solve_lcp(q1, M).z
        z2 = solve_lcp(q2, M).z
        worst = max(worst, float(np.max(z2 - z1)))
        assert np.all(z1 >= z2 - 1e-10)
    report(5, True, f"100 ordered pairs, worst reversal {worst:.2e} (bound 1e-10)")


def test_criterion_06_fixed_points():
    """All 2^d stationary points exist with exact supports and tiny residuals."""
    rng = np.random.default_rng(4242)
    worst_residual = 0.0
    count = 0
    for _ in range(50):
        d = int(rng.integers(1, 7))
        inst = random_instance(rng, d)
        points = enumerate_fixed_points(inst)
        assert len(points) == 2 ** d
        for mask, fp in enumerate(points):
            expected = tuple(i for i in range(d) if (mask >> i) & 1)
            assert fp.support == expected
            if fp.support:
                assert np.all(fp.theta[list(fp.support)] > 0)
            assert fp.residual <= 1e-10
            worst_residual = max(worst_residual, fp.residual)
            count += 1
    report(6, True, f"{count} stationary points across 50 instances, worst "
                    f"residual {worst_residual:.2e} (bound 1e-10)")


def test_criterion_07_dynamics_invariants():
    """Monotone coordinates, nonincreasing loss, and confinement to the
    invariant region, on every simulation this suite ran."""
    # Make sure the sweep is nonempty and covers the main regimes even if
    # the earlier criteria were deselected.
    inst = separable_instance()
    ones = np.ones(2)
    for eps in EPS_SWEEP:
        checked_simulate("separable", inst, Initialization(ones, ones, eps), 1.5)
    f2 = fig2_instance()
    ones4 = np.ones(4)
    checked_simulate("fig2", f2, Initialization(ones4, ones4, 1e-20),
                     1.5 * compute_path(f2, ones4).s_star)

    worst_drop = max(r.max_coordinate_drop for r in _SIM_LOG)
    worst_rise = max(r.max_loss_increase for r in _SIM_LOG)
    worst_region = min(r.worst_region_residual for r in _SIM_LOG)
    min_theta = min(r.min_theta for r in _SIM_LOG)
    ok = (worst_drop <= INVARIANT_SLACK and worst_rise <= INVARIANT_SLACK
          and worst_region >= -INVARIANT_SLACK and min_theta >= 0.0)
    report(7, ok,
           f"{len(_SIM_LOG)} simulations: worst drop {worst_drop:.2e}, worst "
           f"loss rise {worst_rise:.2e}, worst region residual "
           f"{worst_region:.2e} (slack 1e-10)")
    assert worst_drop <= INVARIANT_SLACK
    assert worst_rise <= INVARIANT_SLACK
    assert worst_region >= -INVARIANT_SLACK
    assert min_theta >= 0.0


def test_criterion_08_figure2_sharper_approximation():
    """Shrinking the initialization scale sharpens both the state and the
    loss staircase approximations."""
    inst = fig2_instance()
    ones = np.ones(4)
    rep = run_compare(inst, ones, ones, [1e-8, 1e-20], tol=SIM_TOL)
    large, small = rep.rows
    state_ok = small.state_error < large.state_error
    loss_ok = small.loss_error < large.loss_error
    report(8, state_ok and loss_ok,
           f"state {large.state_error:.3e} -> {small.state_error:.3e}, "
           f"loss {large.loss_error:.3e} -> {small.loss_error:.3e}")
    assert state_ok and loss_ok


def test_criterion_09_positive_definiteness():
    """Anti-correlation plus positive output correlation force a positive
    definite covariance, with no exceptions across 500 instances."""
    lambda_mins = []
    for i in range(300):
        inst, _ = generate_direct(d=1 + i % 10, seed=i)
        lambda_mins.append(np.linalg.eigvalsh(inst.M)[0])
    for i in range(200):
        d = 1 + i % 3
        inst = from_data(generate_rejection(n=d + 2, d=d, seed=i))
        lambda_mins.append(np.linalg.eigvalsh(inst.M)[0])
    smallest = min(lambda_mins)
    report(9, smallest > 0, f"500 instances, min lambda_min {smallest:.3e} > 0")
    assert smallest > 0


def test_criterion_10_path_consistency():
    """Closed-form path pieces agree with pointwise solves; the terminal
    breakpoint equals the predicted convergence time."""
    rng = np.random.default_rng(555)
    inst = random_instance(rng, 5)
    k = rng.uniform(0.5, 2.0, size=5)
    path = compute_path(inst, k)
    worst = 0.0
    for s in rng.uniform(1e-3, 1.4 * path.s_star, size=100):
        seg = path.segment_at(s)
        sol = solve_limit_lcp(inst, k, s)
        worst = max(worst, float(np.max(np.abs(seg.z_at(s) - sol.z))))
        assert np.allclose(seg.z_at(s), sol.z, atol=1e-9)
    s_star = convergence_time_s_star(inst, k)
    terminal_gap = abs(path.breakpoints[-1] - s_star) / max(1.0, s_star)
    ok = terminal_gap <= 1e-9
    report(10, ok, f"100 pointwise checks, worst gap {worst:.2e} (bound 1e-9); "
                   f"terminal vs closed form rel gap {terminal_gap:.2e}")
    assert ok
