"""Property tests: the limit path and the three LCP routes over generated
instances, with fixed (derandomized) example sequences."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_instance, random_k_matrix
from dlnflow import (
    ProblemInstance,
    compute_path,
    generate_direct,
    solve_lcp,
    solve_lcp_bruteforce,
    solve_qp_nonneg,
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


@properties
@given(instances_and_k())
def test_active_sets_nested_and_s_star_closed_form(case):
    inst, k = case
    path = compute_path(inst, k)
    actives = [set(seg.active) for seg in path.segments]
    assert actives[0] == set()
    assert actives[-1] == set(range(inst.d))
    assert all(a < b for a, b in zip(actives, actives[1:]))
    assert np.all(np.diff(path.breakpoints) > 0)
    s_star = closed_form_s_star(inst, k)
    assert abs(path.breakpoints[-1] - s_star) <= 1e-9 * max(1.0, s_star)


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
        np.testing.assert_allclose(path.mu_at(s),
                                   solve_qp_nonneg(k / s - inst.r, inst.M),
                                   atol=AGREE_TOL)
