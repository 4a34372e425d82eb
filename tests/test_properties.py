"""Property tests: the limit path, the three LCP routes and trajectory
invariants over generated instances, with fixed (derandomized) example
sequences."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import (
    hit_or_not_reached,
    hitting_stop,
    random_instance,
    random_k_matrix,
    recorded_integrate,
)
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
    _ball_gap,
    hitting_time,
    hitting_time_on,
)
from dlnflow.errors import NotReached, PathInconsistent
from dlnflow.limit_path import SEGMENT_CHECK_TOL, _certify_path
from oracles import (
    exact_path,
    exact_s_star,
    hitting_time_reference,
    solve_lcp_bruteforce,
    verify_path,
)

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
    grid = np.array(fractions) * path.s_star
    for s, z in zip(grid, grid[:, None] * path.sample(grid)[1]):
        q = k - s * inst.r
        w = q + inst.M @ z
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
    return path


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


# The relative merge tolerance compute_path documents, written out rather
# than imported, so that a changed BREAKPOINT_TOL breaks the contract.
MERGE_TOL = Fraction(1e-12)


@st.composite
def planted_ties(draw):
    """K-matrices on d <= 8 coordinates in up to 3 symmetric blocks: M_ij,
    r_i and k_i depend only on the blocks of i and j, so a block's
    coordinates tie exactly, and coordinates 0 and 1 share a block. Then
    k_0 is scaled by 1 + delta, with delta 0 or of size 10^[-17, -13] or
    10^[-11, -6], either sign: never within a factor 10 of MERGE_TOL. A
    third band, 10^[-14, -13], puts gaps just below that factor, where a
    merge tolerance too small by 100 already splits the cluster."""
    d = draw(st.integers(2, 8))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = rng.integers(0, m, size=d)
    blocks[1] = blocks[0]
    off = np.triu(rng.uniform(0.0, 1.0, size=(m, m)))
    off = off + np.triu(off, 1).T
    sizes = np.bincount(blocks, minlength=m)
    # A row's off-diagonal mass, formed once per block so that equal rows
    # get equal diagonals.
    diag = off @ sizes - np.diag(off) + rng.uniform(0.2, 1.5, size=m)
    M = -off[blocks][:, blocks]
    np.fill_diagonal(M, diag[blocks])
    r, k = rng.uniform(0.3, 2.0, size=m)[blocks], rng.uniform(0.3, 3.0, size=m)[blocks]
    exponent = draw(st.one_of(st.floats(-17.0, -13.0), st.floats(-11.0, -6.0),
                              st.floats(-14.0, -13.0)))
    delta = draw(st.sampled_from([0.0, 1.0, -1.0])) * 10.0 ** exponent
    k[0] *= 1.0 + delta
    return ProblemInstance(M=M, r=r), k


def merge_clusters(breakpoints, sets):
    """The exact path with each cluster of breakpoints within MERGE_TOL of
    its earliest, relative to it, merged there into that breakpoint and the
    cluster's last active set; and each relative gap the merge compared."""
    merged, merged_sets, gaps = breakpoints[:1], list(sets[:1]), []
    for s, active in zip(breakpoints[1:], sets[1:]):
        gaps.append((s - merged[-1]) / merged[-1])
        if gaps[-1] <= MERGE_TOL:
            merged_sets[-1] = active
        else:
            merged.append(s)
            merged_sets.append(active)
    return merged, merged_sets, gaps


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(st.one_of(instances_and_k(), planted_ties()))
def test_the_float_path_is_the_exact_path_with_near_ties_merged(case):
    # compute_path's contract against the rational homotopy of its float
    # data: the active sets are the exact ones with every cluster of roots
    # within MERGE_TOL of its earliest merged there, and each breakpoint is
    # within 4 ulps of its exact cluster's earliest. The exact s* is its
    # closed form.
    inst, k = case
    breakpoints, sets = exact_path(inst, k)
    assert breakpoints[-1] == exact_s_star(inst, k)
    merged, merged_sets, gaps = merge_clusters(breakpoints, sets)
    # Away from the merge threshold the contract decides every cluster.
    assume(not any(MERGE_TOL / 10 <= gap <= 10 * MERGE_TOL for gap in gaps))
    path = compute_path(inst, k)
    assert [seg.active for seg in path.segments] == [(), *merged_sets]
    assert len(path.breakpoints) == len(merged)
    for s, exact in zip(path.breakpoints.tolist(), merged):
        assert abs(Fraction(s) - exact) <= 4 * Fraction(np.spacing(s))


@properties
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.floats(-100.0, 100.0),
       st.floats(-150.0, 150.0), st.floats(-150.0, 150.0))
def test_rescaled_instance_gives_the_rescaled_path(d, seed, log10_b, log10_c_b,
                                                   log10_b_a):
    # The path of (a M, b r, c k) has the same active sets, breakpoints
    # scaled by c / b and stationary points scaled by b / a: no tolerance
    # of the homotopy may be absolute.
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, d)
    k = rng.uniform(0.5, 2.0, size=d)
    b = 10.0 ** log10_b
    c, a = b * 10.0 ** log10_c_b, b / 10.0 ** log10_b_a
    base = compute_path(inst, k)
    scaled = compute_path(ProblemInstance(M=a * inst.M, r=b * inst.r), c * k)
    assert ([seg.active for seg in scaled.segments]
            == [seg.active for seg in base.segments])
    np.testing.assert_allclose(scaled.breakpoints, base.breakpoints * (c / b),
                               rtol=1e-10)
    for mine, theirs in zip(scaled.segments, base.segments):
        np.testing.assert_allclose(mine.theta_star, theirs.theta_star * (b / a),
                                   rtol=1e-10)


@properties
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.floats(0.1, 5.0),
       st.sets(st.integers(0, 7)))
def test_three_lcp_routes_agree(d, seed, scale, zeros):
    rng = np.random.default_rng(seed)
    M = random_k_matrix(rng, d)
    q = scale * rng.normal(size=d)
    # Exact zeros in q split into k_i = r_i = 0 for the homotopy.
    q[[i for i in zeros if i < d]] = 0.0
    homotopy = solve_lcp(q, M)
    exact = solve_lcp_bruteforce(q, M)
    theta = solve_qp_nonneg(q, M)
    assert homotopy.support == exact.support
    np.testing.assert_allclose(homotopy.z, exact.z, atol=AGREE_TOL)
    np.testing.assert_allclose(homotopy.w, exact.w, atol=AGREE_TOL)
    np.testing.assert_allclose(homotopy.z, theta, atol=AGREE_TOL)
    # K-matrices make the solution antitone in q: raising q lowers z.
    q_up = q + np.abs(scale * rng.normal(size=d))
    assert np.all(solve_lcp(q_up, M).z <= homotopy.z + AGREE_TOL)


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


@st.composite
def corrupted_paths(draw):
    """An instance and k from ``instances_and_k`` or ``generate_direct(64, .)``,
    its path, and the path with one random segment corrupted: its slope or
    intercept moved along one coordinate by 1e-10 to 1e-1 of the path's
    largest, or its pieces replaced by the previous segment's (a missed
    activation)."""
    if draw(st.booleans()):
        inst, k = draw(instances_and_k())
    else:
        inst, _ = generate_direct(64, draw(st.integers(0, 2**32 - 1)))
        k = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(
            0.3, 3.0, size=64)
    path = compute_path(inst, k)
    segments = list(path.segments)
    kind = draw(st.sampled_from(["theta_star", "z_intercept", "missed"]))
    j = draw(st.integers(kind == "missed", len(segments) - 1))
    if kind == "missed":
        segments[j] = segments[j - 1]
    else:
        largest = max(np.max(np.abs(getattr(seg, kind))) for seg in segments)
        moved = getattr(segments[j], kind).copy()
        moved[draw(st.integers(0, inst.d - 1))] += (
            draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-10.0, -1.0))
            * largest)
        segments[j] = dataclasses.replace(segments[j], **{kind: moved})
    return inst, k, path, dataclasses.replace(path, segments=tuple(segments))


def first_failure(certify, inst, k, path):
    """The failing segment and probe point that ``certify`` names, with the
    names of the residuals above tolerance; None when the path passes."""
    try:
        certify(inst, k, path)
    except PathInconsistent as exc:
        where, rest = str(exc).split(", relative to ")
        residuals = (item.split() for item in rest.split(": ")[1].split(", "))
        return where, {name for name, err in residuals
                       if float(err) > SEGMENT_CHECK_TOL}
    return None


@properties
@given(corrupted_paths())
def test_one_pass_certificate_names_the_reference_failure(case):
    inst, k, path, corrupted = case
    assert first_failure(_certify_path, inst, k, path) is None
    assert first_failure(verify_path, inst, k, path) is None
    assert (first_failure(_certify_path, inst, k, corrupted)
            == first_failure(verify_path, inst, k, corrupted))


def test_tie_joins_in_one_event():
    inst = ProblemInstance(M=np.eye(3), r=[1.0, 1.0, 2.0])
    path = compute_path(inst, np.ones(3))
    assert [seg.active for seg in path.segments] == [(), (2,), (0, 1, 2)]
    np.testing.assert_allclose(path.breakpoints, [0.5, 1.0])


def test_large_d_mu_matches_qp():
    inst, _ = generate_direct(128, 7)
    k = np.ones(128)
    path = compute_path(inst, k)
    # Segment j spans breakpoints j - 1 and j.
    for j in (1, 64, len(path.segments) - 2):
        s = 0.5 * (path.breakpoints[j - 1] + path.breakpoints[j])
        np.testing.assert_allclose(path.sample([s])[1][0],
                                   solve_qp_nonneg(k / s - inst.r, inst.M),
                                   atol=AGREE_TOL)


@pytest.mark.parametrize("d", [64, 128, 256])
def test_path_at_scale_matches_dense_solves(d):
    # Every segment against dense solves on its block M[I, I], and mu(s)
    # at random s against M_II^{-1} (r_I - k_I / s) on the support of s,
    # both within 1e-12 of the scale of the terms; zero off I.
    inst, _ = generate_direct(d, d)
    rng = np.random.default_rng(d)
    k = rng.uniform(0.3, 3.0, size=d)
    M, r = inst.M, inst.r
    path = assert_nested_path_with_closed_form_s_star(inst, k)
    for seg in path.segments:
        active = list(seg.active)
        assert not np.any(np.delete([seg.theta_star, seg.z_intercept], active, axis=1))
        if active:
            want = np.linalg.solve(M[np.ix_(active, active)],
                                   np.column_stack([r[active], -k[active]]))
            got = np.column_stack([seg.theta_star, seg.z_intercept])[active]
            assert np.all(np.max(np.abs(got - want), axis=0)
                          <= 1e-12 * np.max(np.abs(want), axis=0))

    s = rng.uniform(0.0, 1.5, size=20) * path.s_star
    for s_i, mu_i in zip(s, path.sample(s)[1]):
        seg = path.segments[np.searchsorted(path.breakpoints, s_i, side="right")]
        active = list(seg.active)
        want = np.zeros(d)
        if active:
            want[active] = np.linalg.solve(M[np.ix_(active, active)],
                                           r[active] - k[active] / s_i)
        scale = np.max(np.abs(seg.theta_star) + np.abs(seg.z_intercept) / s_i)
        assert np.max(np.abs(mu_i - want)) <= 1e-12 * scale
        np.testing.assert_array_equal(np.delete(mu_i, active), 0.0)


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
@given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.floats(-300.0, -4.0),
       st.floats(-150.0, 150.0))
@example(3, 2672239441, -7.27, -85.41)
def test_rescaled_flow_gives_the_rescaled_trajectory(d, seed, log10_eps,
                                                     log10_lam):
    # The flow of (lam M, r) from C / lam is theta / lam: neither the step
    # cap, the error weight nor the monotonicity certificate may depend on
    # the scale, so each run is within |log eps| tol max theta* of it.
    inst, _ = generate_direct(d, seed)
    C, k = np.random.default_rng(seed).uniform(0.5, 2.0, size=(2, d))
    eps, lam = 10.0 ** log10_eps, 10.0 ** log10_lam
    grid = np.linspace(0.0, 1.5 * compute_path(inst, k).s_star, 31)
    base = simulate(inst, Initialization(C=C, k=k, epsilon=eps), grid[-1],
                    s_grid=grid)
    scaled = simulate(ProblemInstance(M=lam * inst.M, r=inst.r),
                      Initialization(C=C / lam, k=k, epsilon=eps), grid[-1],
                      s_grid=grid)
    bound = -np.log(eps) * DEFAULT_TOL * np.max(inst.minimizer())
    assert np.max(np.abs(lam * scaled.theta - base.theta)) <= bound


@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(trajectories())
def test_trajectory_invariants_and_hitting_time(traj):
    # 16 points per accepted step of the dense output, plus the end point:
    # every 16th point is a step endpoint.
    knots = traj.knots
    lefts, widths = knots[:-1], np.diff(knots)
    fractions = np.arange(16) / 16
    s = np.append((lefts[:, None] + widths[:, None] * fractions).ravel(), traj.s_max)
    theta = traj.theta_at(s)
    target = traj.instance.minimizer()
    gap = np.linalg.norm(theta - target, axis=1)
    # simulate certifies monotonicity at the step endpoints. Between them the
    # quartic dense output is accurate to the integration tolerance in w,
    # that is to |log eps| * tol * theta in theta (README, numerical notes).
    slack = DEFAULT_TOL * -traj.init.log_epsilon * float(np.max(target))
    # simulate does not certify theta <= M^{-1} r: at the endpoints a
    # coordinate that has just activated overshoots it by the integration
    # error: at most 0.55 * tol * max(M^{-1} r) on 1000 random instances
    # drawn as this strategy draws them (2.8e-10 on a d = 5 instance at
    # eps = 1e-300, 3e-13 on it at tol 1e-11).
    overshoot = DEFAULT_TOL * float(np.max(target))
    for stride, extra in ((16, 0.0), (1, slack)):
        tol = MONOTONE_RUNTIME_TOL + extra
        assert np.min(np.diff(theta[::stride], axis=0)) >= -tol
        assert np.max(np.diff(gap[::stride])) <= tol
        assert np.all(theta[::stride] <= target + 1e-10 + max(extra, overshoot))

    # Running averages against an independent oracle: the cumulative
    # 8-point Gauss-Legendre quadrature of theta over the accepted steps.
    nodes, weights = np.polynomial.legendre.leggauss(8)
    x = lefts[:, None] + 0.5 * widths[:, None] * (nodes + 1.0)
    theta_x = traj.theta_at(x.ravel()).reshape(*x.shape, -1)
    per_step = 0.5 * widths[:, None] * np.einsum("j,njd->nd", weights, theta_x)
    integral = np.cumsum(per_step, axis=0)
    ends = lefts + widths
    late = ends >= 0.01 * traj.s_max
    quadrature = integral[late] / ends[late, None]
    assert np.max(np.abs(traj.average(ends[late]) - quadrature)) <= slack

    # The root inside the first step that ends in the ball is the first
    # crossing of the fine scan, to roundoff.
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
    # Stopped at the first step that ends inside the ball: the step it roots.
    assert hitting_time(traj.instance, traj.init, eta, traj.s_max) == tau
    ratio = tau / -traj.init.log_epsilon
    assert abs(ratio - first) <= 1e-12 * first


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.floats(-300.0, -6.0),
       st.floats(0.5, 2.0))
def test_a_run_stopped_at_the_hit_has_reached_it(d, seed, log10_eps, cap_fraction):
    # hitting_time stops the run at the first step whose theta is inside the
    # ball, then scans the same step ends with the same gap: NotReached comes
    # exactly when no step ended inside, at caps before and after the hit.
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, d)
    C, k = rng.uniform(0.5, 2.0, size=(2, d))
    init = Initialization(C=C, k=k, epsilon=10.0 ** log10_eps)
    target = inst.minimizer()
    eta = 0.1 * float(np.min(target))
    s_cap = cap_fraction * compute_path(inst, k).s_star
    with recorded_integrate() as calls:
        try:
            hitting_time(inst, init, eta, s_cap)
            reached = True
        except NotReached:
            reached = False
    # The stop decides every step as the scan's gap does, so only the last
    # step may end inside, and a run stopped there has reached the ball.
    stop, steps = calls[0]["step_callback"], calls[0]["steps"]
    inside = [bool(stop(theta)) for theta in steps]
    assert inside == (_ball_gap(np.array(steps), target, eta) <= 0.0).tolist()
    assert not any(inside[:-1]) and reached == inside[-1]


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.integers(1, 32), st.integers(0, 2**32 - 1))
def test_the_squared_radius_stop_decides_as_the_gap(d, seed):
    # Rows of theta on rays from a random target, within 8 ulps of eta of
    # the sphere: hitting_time's stop on each row decides as the gap of that
    # row in the stack, as hitting_time_on scans the step ends.
    rng = np.random.default_rng(seed)
    target = rng.uniform(0.5, 2.0, d)
    eta = rng.uniform(0.01, 0.9) * float(target.min())
    rays = rng.standard_normal((17, d))
    radii = eta + np.arange(-8, 9) * np.spacing(eta)
    thetas = target + (radii / np.linalg.norm(rays, axis=1))[:, None] * rays
    stop = hitting_stop(target, eta)
    inside = [bool(stop(theta)) for theta in thetas]
    assert inside == (_ball_gap(thetas, target, eta) <= 0.0).tolist()


@settings(derandomize=True, deadline=None, database=None, max_examples=12)
@given(st.integers(1, 32), st.integers(0, 2**32 - 1), st.floats(-300.0, -6.0),
       st.booleans(), st.floats(0.01, 0.9))
def test_the_stopped_run_roots_the_hit_of_the_full_run(d, seed, log10_eps, tie,
                                                       eta_fraction):
    # hitting_time's stop tests the squared gap of the coordinate that joins
    # last before the whole gap. A rounded sum of nonnegative squares is
    # never below one of its terms, so that test flips no decision, and the
    # stopped run roots the step the scan of the unstopped run roots, bit
    # for bit. A planted tie has two coordinates reach s* together, so the
    # one tested first can enter the ball while the other is still outside.
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, d)
    k = k_with_a_tie(rng, inst) if tie and d > 1 else rng.uniform(0.5, 2.0, d)
    init = Initialization(C=rng.uniform(0.5, 2.0, d), k=k, epsilon=10.0 ** log10_eps)
    eta = eta_fraction * float(inst.minimizer().min())
    s_cap = 2.0 * compute_path(inst, k).s_star
    full = simulate(inst, init, s_cap, np.array([0.0, s_cap]))
    assert (hit_or_not_reached(hitting_time, inst, init, eta, s_cap)
            == hit_or_not_reached(hitting_time_on, full, eta))


def k_with_a_tie(rng, inst):
    """A k at which coordinates 0 and 1 join the limit path last, together.

    (M^{-1} k)_i / target_i = rho_i, largest at 1 on coordinates 0 and 1.
    Off-diagonal entries of M are nonpositive, so
    k_i >= r_i - M_ii target_i (1 - rho_i) >= r_i / 2."""
    target = inst.minimizer()
    rho = 1.0 - rng.uniform(0.0, 0.5, inst.d) * inst.r / (np.diag(inst.M) * target)
    rho[:2] = 1.0
    k = inst.M @ (rho * target)
    return k * (rng.uniform(0.5, 2.0) / k.min())


@settings(derandomize=True, deadline=None, database=None, max_examples=24)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.floats(-300.0, -6.0),
       st.booleans(), st.floats(0.01, 0.9))
def test_the_root_on_the_entering_row_is_the_reference(d, seed, log10_eps, tie,
                                                       eta_fraction):
    # hitting_time_on roots the gap on the entering step's row alone; the
    # reference reads every gap through theta_at. Bit for bit the same
    # time, or NotReached on both: a quarter of the runs end at s*/2, before
    # the hit.
    rng = np.random.default_rng(seed)
    cap_fraction = 0.5 if rng.uniform() < 0.25 else 2.0
    inst = random_instance(rng, d)
    k = k_with_a_tie(rng, inst) if tie and d > 1 else rng.uniform(0.5, 2.0, d)
    init = Initialization(C=rng.uniform(0.5, 2.0, d), k=k, epsilon=10.0 ** log10_eps)
    eta = eta_fraction * float(inst.minimizer().min())
    s_cap = cap_fraction * compute_path(inst, k).s_star
    traj = simulate(inst, init, s_cap, np.array([0.0, s_cap]))
    assert (hit_or_not_reached(hitting_time_on, traj, eta)
            == hit_or_not_reached(hitting_time_reference, traj, eta))
