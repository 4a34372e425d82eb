"""Property tests: the limit path, the three LCP routes and trajectory
invariants over generated instances, with fixed (derandomized) example
sequences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import random_instance, random_k_matrix
from dlnflow import (
    Initialization,
    ProblemInstance,
    compute_path,
    generate_direct,
    simulate,
    solve_lcp,
    solve_qp_nonneg,
)
from dlnflow.dynamics import (
    DEFAULT_TOL,
    MONOTONE_RUNTIME_TOL,
    hitting_time,
    hitting_time_on,
)
from dlnflow.errors import NotReached
from oracles import solve_lcp_bruteforce

AGREE_TOL = 1e-8

properties = settings(derandomize=True, deadline=None, database=None,
                      max_examples=60)


@st.composite
def instances_and_k(draw):
    """A ``conftest.random_k_matrix`` instance with d <= 8 and random k."""
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inst = random_instance(rng, d)
    return inst, rng.uniform(0.3, 3.0, size=d)


def closed_form_s_star(inst, k):
    return float(np.max(np.linalg.solve(inst.M, k) / inst.minimizer()))


@properties
@given(instances_and_k(), st.lists(st.floats(0.01, 2.0), min_size=1, max_size=3))
def test_path_matches_pointwise_oracles(case, fractions):
    inst, k = case
    path = compute_path(inst, k)
    for s in np.array(fractions) * path.s_star:
        q = k - s * inst.r
        seg = path.segment_at(s)
        z, w = seg.z_at(s), seg.w_at(s)
        exact = solve_lcp_bruteforce(q, inst.M)
        theta = solve_qp_nonneg(q, inst.M)
        np.testing.assert_allclose(z, exact.z, atol=AGREE_TOL)
        np.testing.assert_allclose(w, exact.w, atol=AGREE_TOL)
        np.testing.assert_allclose(z, theta, atol=AGREE_TOL)
        np.testing.assert_allclose(w, q + inst.M @ theta, atol=AGREE_TOL)


def assert_nested_path_with_closed_form_s_star(inst, k):
    path = compute_path(inst, k)
    actives = [set(seg.active) for seg in path.segments]
    assert actives[0] == set()
    assert actives[-1] == set(range(inst.d))
    assert all(a < b for a, b in zip(actives, actives[1:]))
    assert np.all(np.diff(path.breakpoints) > 0)
    s_star = closed_form_s_star(inst, k)
    assert abs(path.breakpoints[-1] - s_star) <= 1e-9 * max(1.0, s_star)


@properties
@given(instances_and_k())
def test_active_sets_nested_and_s_star_closed_form(case):
    assert_nested_path_with_closed_form_s_star(*case)


@st.composite
def exchangeable_blocks(draw):
    """K-matrices (1 + a) I - (a / c) 1 1^T with d <= 64, a in [0, 2] and
    c in [d, 4 d], with r and k equal to 1 perturbed by delta N(0, 1) for
    delta in {0, 1e-15, ..., 1e-6}: every activation root lies within about
    delta of the others, so coordinates activate in near-ties."""
    d = draw(st.integers(1, 64))
    a = draw(st.floats(0.0, 2.0))
    c = d * draw(st.floats(1.0, 4.0))
    delta = draw(st.sampled_from([0.0] + [10.0 ** -e for e in range(15, 5, -1)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r, k = 1.0 + delta * rng.normal(size=(2, d))
    M = (1.0 + a) * np.eye(d) - (a / c) * np.ones((d, d))
    return ProblemInstance(M=M, r=r), k


@properties
@given(exchangeable_blocks())
def test_near_ties_give_a_consistent_path(case):
    # compute_path raises PathInconsistent where near-tied roots fail to join.
    assert_nested_path_with_closed_form_s_star(*case)


@properties
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.floats(0.1, 5.0))
def test_three_lcp_routes_agree(d, seed, scale):
    rng = np.random.default_rng(seed)
    M = random_k_matrix(rng, d)
    q = scale * rng.normal(size=d)
    pivoting = solve_lcp(q, M)
    exact = solve_lcp_bruteforce(q, M)
    theta = solve_qp_nonneg(q, M)
    assert pivoting.support == exact.support
    np.testing.assert_allclose(pivoting.z, exact.z, atol=AGREE_TOL)
    np.testing.assert_allclose(pivoting.w, exact.w, atol=AGREE_TOL)
    np.testing.assert_allclose(pivoting.z, theta, atol=AGREE_TOL)
    # K-matrices make the solution antitone in q: raising q lowers z.
    q_up = q + np.abs(scale * rng.normal(size=d))
    assert np.all(solve_lcp(q_up, M).z <= pivoting.z + AGREE_TOL)


@properties
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.floats(-150.0, 150.0))
def test_lcp_solution_scales_with_q(d, seed, exponent):
    # The solution of (c q, M) is c z: no tolerance may be absolute.
    rng = np.random.default_rng(seed)
    M = random_k_matrix(rng, d)
    q = rng.normal(size=d)
    c = 10.0 ** exponent
    base, scaled = solve_lcp(q, M), solve_lcp(c * q, M)
    assert scaled.support == base.support
    assert np.max(np.abs(scaled.z - c * base.z)) <= 1e-12 * c * np.max(base.z)


def test_tie_joins_in_one_event():
    inst = ProblemInstance(M=np.eye(3), r=[1.0, 1.0, 2.0])
    path = compute_path(inst, np.ones(3))
    assert [seg.active for seg in path.segments] == [(), (2,), (0, 1, 2)]
    np.testing.assert_allclose(path.breakpoints, [0.5, 1.0])


def test_large_d_mu_matches_qp():
    inst, _ = generate_direct(128, 7)
    k = np.ones(128)
    path = compute_path(inst, k)
    for seg in (path.segments[1], path.segments[64], path.segments[-2]):
        s = 0.5 * (seg.s_lo + seg.s_hi)
        np.testing.assert_allclose(path.sample([s])[1][0],
                                   solve_qp_nonneg(k / s - inst.r, inst.M),
                                   atol=AGREE_TOL)


@st.composite
def trajectories(draw):
    """``generate_direct`` instances with d <= 6, C and k uniform in [0.5, 2]
    and log-uniform eps in [1e-300, 1e-4], simulated to 2 s*."""
    d = draw(st.integers(1, 6))
    inst, _ = generate_direct(d, draw(st.integers(0, 2**32 - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    C, k = rng.uniform(0.5, 2.0, size=(2, d))
    eps = 10.0 ** draw(st.floats(-300.0, -4.0))
    s_max = 2.0 * compute_path(inst, k).s_star
    return simulate(inst, Initialization(C=C, k=k, epsilon=eps), s_max)


@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(trajectories())
def test_trajectory_invariants_and_hitting_time(traj):
    # 16 points per accepted step of the dense output, plus the end point:
    # every 16th point is a step endpoint.
    dense = traj._dense
    fractions = np.arange(16) / 16
    s = np.append((dense._lefts[:, None] + dense._widths[:, None] * fractions)
                  .ravel(), traj.s_max)
    theta = traj.theta_at(s)
    target = traj.instance.minimizer()
    gap = np.linalg.norm(theta - target, axis=1)
    # simulate certifies the step endpoints. Between them the quartic dense
    # output is accurate to the integration tolerance in w, that is to
    # |log eps| * tol * theta in theta (README, numerical notes).
    slack = DEFAULT_TOL * -traj.init.log_epsilon * float(np.max(target))
    for stride, extra in ((16, 0.0), (1, slack)):
        tol = MONOTONE_RUNTIME_TOL + extra
        assert np.min(np.diff(theta[::stride], axis=0)) >= -tol
        assert np.max(np.diff(gap[::stride])) <= tol
        assert np.all(theta[::stride] <= target + 1e-10 + extra)

    # Running averages against an independent oracle: the cumulative
    # 8-point Gauss-Legendre quadrature of theta over the accepted steps.
    nodes, weights = np.polynomial.legendre.leggauss(8)
    lefts, widths = dense._lefts, dense._widths
    x = lefts[:, None] + 0.5 * widths[:, None] * (nodes + 1.0)
    theta_x = traj.theta_at(x.ravel()).reshape(*x.shape, -1)
    per_step = 0.5 * widths[:, None] * np.einsum("j,njd->nd", weights, theta_x)
    integral = np.cumsum(per_step, axis=0)
    ends = lefts + widths
    late = ends >= 0.01 * traj.s_max
    quadrature = integral[late] / ends[late, None]
    assert np.max(np.abs(traj.average(ends[late]) - quadrature)) <= slack

    # The bisection finds the first crossing of the fine scan.
    eta = 0.1 * float(np.min(target))
    below = np.flatnonzero(gap <= eta)
    if below.size == 0:
        with pytest.raises(NotReached):
            hitting_time_on(traj, eta)
        with pytest.raises(NotReached):
            hitting_time(traj.instance, traj.init, eta, traj.s_max)
        return
    j = below[0]
    assert j > 0
    first = brentq(lambda x: np.linalg.norm(traj.theta_at(x) - target) - eta,
                   s[j - 1], s[j], xtol=1e-15, rtol=1e-15)
    tau = hitting_time_on(traj, eta)
    # Stopped at the first step inside the ball, on the same bracket.
    assert hitting_time(traj.instance, traj.init, eta, traj.s_max) == tau
    ratio = tau / -traj.init.log_epsilon
    assert abs(ratio - first) <= 2e-6 * first
