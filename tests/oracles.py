"""Test oracles: routes to the package's answers that do not go through the
code they check.

``solve_lcp_bruteforce`` enumerates every support instead of pivoting on
the incremental Cholesky kernel; ``solve_limit_lcp`` and ``mu`` solve the
parametric problem pointwise instead of following the path homotopy;
``lyapunov`` and ``in_invariant_region`` are diagnostics of trajectories.
"""

from __future__ import annotations

import numpy as np

from dlnflow import lcp
from dlnflow.errors import DimensionTooLarge, DomainError, NumericalFailure, OutOfRange
from dlnflow.fixed_points import FixedPoint
from dlnflow.lcp import STRICT_TOL, LcpSolution, _finite_array
from dlnflow.limit_path import _check_k
from dlnflow.problem import ProblemInstance

BRUTEFORCE_MAX_DIM = 20


class NoSolution(NumericalFailure):
    """Exhaustive support enumeration found no complementary pair."""


class MultipleSolutions(NumericalFailure):
    """Exhaustive support enumeration found more than one complementary pair."""


def solve_lcp_bruteforce(q, M) -> LcpSolution:
    """Solve by enumerating all 2^d supports; oracle for the pivoting path.

    A support I passes when z_I = -(M_II)^{-1} q_I is strictly positive and
    the induced dual vector is nonnegative. Uniqueness of the passing
    support is part of the contract: zero passes mean the problem is
    infeasible for this matrix class, several mean M is not a K-matrix or
    the data sits on a degenerate boundary.
    """
    q = _finite_array(q, "q", (None,))
    M = _finite_array(M, "M", (q.size, q.size))
    d = q.size
    if d > BRUTEFORCE_MAX_DIM:
        raise DimensionTooLarge(f"brute force limited to d <= {BRUTEFORCE_MAX_DIM}")

    winners: list[LcpSolution] = []
    for mask in range(2 ** d):
        idx = np.flatnonzero([(mask >> i) & 1 for i in range(d)])
        z = np.zeros(d)
        if idx.size:
            try:
                z_active = np.linalg.solve(M[np.ix_(idx, idx)], -q[idx])
            except np.linalg.LinAlgError:
                continue
            if np.any(z_active <= STRICT_TOL):
                continue
            z[idx] = z_active
        w = q + M @ z
        w[idx] = 0.0
        if np.any(w < -STRICT_TOL):
            continue
        winners.append(
            LcpSolution(w=np.maximum(w, 0.0), z=z, support=tuple(idx.tolist()))
        )

    if not winners:
        raise NoSolution("no support passes the sign checks")
    if len(winners) > 1:
        raise MultipleSolutions(
            f"{len(winners)} supports pass: {[s.support for s in winners]}"
        )
    return winners[0]


def solve_limit_lcp(instance: ProblemInstance, k, s: float) -> LcpSolution:
    """Pointwise solve of the parametric problem at rescaled time s."""
    k = _check_k(instance, k)
    if s <= 0.0:
        raise OutOfRange("s must be positive")
    return lcp.solve_lcp(k - s * instance.r, instance.M)


def mu(instance: ProblemInstance, k, s: float) -> np.ndarray:
    """Minimizer of f + <k, theta>/s over theta >= 0, via z(s) = s mu(s)."""
    return solve_limit_lcp(instance, k, s).z / s


def lyapunov(theta, fp: FixedPoint) -> float:
    """Energy sum_{i in support} (theta_i - theta*_i log theta_i).

    Along the flow this decreases up to vanishing corrections while the
    trajectory travels the plateau of the given stationary point.
    """
    theta = np.asarray(theta, dtype=float)
    if not fp.support:
        return 0.0
    idx = np.array(fp.support, dtype=int)
    vals = theta[idx]
    if np.any(vals <= 0.0):
        raise DomainError("theta must be strictly positive on the support")
    return float(np.sum(vals - fp.theta[idx] * np.log(vals)))


def in_invariant_region(
    instance: ProblemInstance, theta, slack: float = 1e-10
) -> bool:
    """Membership in {theta >= 0 : r - M theta >= 0}, up to slack on the
    residual side; this region is forward-invariant and forces monotone
    trajectories."""
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < 0.0):
        return False
    return bool(np.all(instance.r - instance.M @ theta >= -slack))
