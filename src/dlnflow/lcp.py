"""Linear complementarity solvers for symmetric positive-definite Z-matrices.

Given q and such a matrix M (a K-matrix), find (w, z) with

    w = q + M z,    w >= 0,    z >= 0,    w^T z = 0.

K-matrices make the solution unique and monotone in q, which the pivoting
solver exploits: inverses of principal submatrices have nonnegative entries,
so growing the active set never pushes a primal coordinate negative; one
Cholesky factor, extended a row per activation, serves every solve. A
projected-gradient bound-constrained QP solver is an independent
cross-check; the test suite keeps a brute-force support enumerator as a
second one (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, solve_triangular

from .errors import (
    DimensionMismatch,
    MaxIterations,
    NonFinite,
    NotKMatrix,
    PositivityViolation,
    SingularSubmatrix,
)

# Strict-inequality threshold, relative to the scale of what it bounds.
STRICT_TOL = 1e-12


@dataclass(frozen=True)
class LcpSolution:
    """A complementary pair (w, z) with its strictly-positive support.

    Coordinates with w_i = z_i = 0 (degenerate boundaries) are classified
    as inactive and excluded from the support.
    """

    w: np.ndarray
    z: np.ndarray
    support: tuple[int, ...]

    def residuals(self, q: np.ndarray, M: np.ndarray) -> dict[str, float]:
        """Violation magnitudes of the defining conditions (0 when exact)."""
        affine = float(np.max(np.abs(self.w - q - M @ self.z)))
        neg_w = float(max(0.0, -np.min(self.w, initial=0.0)))
        neg_z = float(max(0.0, -np.min(self.z, initial=0.0)))
        comp = float(abs(self.w @ self.z))
        per_coord = float(np.max(np.minimum(self.w, self.z), initial=0.0))
        return {
            "affine": affine,
            "negative_w": neg_w,
            "negative_z": neg_z,
            "complementarity": comp,
            "per_coordinate": max(0.0, per_coord),
        }


def _finite_array(a, name: str, shape: tuple) -> np.ndarray:
    """``a`` as a read-only float array of ``shape``, where ``None`` allows
    any length. A ragged, non-numeric, empty or misshapen value raises
    ``DimensionMismatch``, a NaN or infinite entry ``NonFinite``."""
    try:
        arr = np.array(a, dtype=float)
    except (TypeError, ValueError):
        raise DimensionMismatch(f"{name} must be an array of numbers") from None
    if arr.ndim != len(shape):
        raise DimensionMismatch(
            f"{name} must be {len(shape)}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise DimensionMismatch(f"{name} must be nonempty")
    if any(want not in (None, got) for want, got in zip(shape, arr.shape)):
        raise DimensionMismatch(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFinite(f"{name} contains non-finite entries")
    arr.flags.writeable = False
    return arr


def check_k_matrix(M: np.ndarray) -> tuple:
    """Certify a square matrix as a K-matrix and return its ``cho_factor``.

    Symmetry, nonpositive off-diagonals and a Cholesky factor; every
    instance and every ``(q, M)`` pair of :func:`solve_lcp` passes here.
    """
    asym = np.max(np.abs(M - M.T))
    if asym > STRICT_TOL * max(1.0, np.max(np.abs(M))):
        raise NotKMatrix(f"M is not symmetric (max asymmetry {asym:.3e})")
    if np.any(M - np.diag(np.diag(M)) > 0.0):
        raise NotKMatrix("M has a positive off-diagonal entry")
    try:
        return cho_factor(M)
    except LinAlgError as exc:
        raise NotKMatrix(f"M is not positive definite ({exc})") from None


class ActiveSetCholesky:
    """Lower Cholesky factor of M[I, I] for an active set I that only grows.

    Rows sit in activation order in a preallocated d x d array; appending a
    coordinate costs one O(|I|^2) triangular solve, solving costs two.
    """

    def __init__(self, M: np.ndarray):
        self.M = M
        self.order: list[int] = []
        self._lower = np.zeros_like(M)

    def append(self, joining) -> None:
        """Add the coordinates in ``joining`` to I, one row each."""
        for j in joining:
            n = len(self.order)
            row = solve_triangular(self._lower[:n, :n], self.M[self.order, j],
                                   lower=True, check_finite=False)
            pivot = self.M[j, j] - row @ row
            if not pivot > 0.0:
                raise SingularSubmatrix(
                    f"pivot {pivot:.3e} adding coordinate {j} to {self.order}"
                )
            self._lower[n, :n] = row
            self._lower[n, n] = np.sqrt(pivot)
            self.order.append(int(j))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with M[I, I] x_I = b_I and x = 0 off I; b may have columns."""
        n = len(self.order)
        lower = self._lower[:n, :n]
        y = solve_triangular(lower, b[self.order], lower=True, check_finite=False)
        x = np.zeros_like(b, dtype=float)
        x[self.order] = solve_triangular(lower, y, lower=True, trans="T",
                                         check_finite=False)
        return x


def solve_lcp(q, M) -> LcpSolution:
    """Solve the complementarity problem by Chandrasekaran's method.

    Starting from z = 0, the coordinate with the most negative dual value
    joins the active set, its row is appended to the Cholesky factor and
    the principal system is re-solved. For K-matrices the primal iterates
    are monotone, so no coordinate leaves and at most d additions are
    needed; a primal value below -STRICT_TOL * max|z| raises
    ``PositivityViolation``. No threshold is absolute, so ``(c q, M)`` has
    the solution ``c z``, with the same support, at any scale c > 0.
    """
    q = _finite_array(q, "q", (None,))
    M = _finite_array(M, "M", (q.size, q.size))
    check_k_matrix(M)
    factor = ActiveSetCholesky(M)
    while True:
        z = factor.solve(-q)
        if np.min(z) < -STRICT_TOL * np.max(np.abs(z)):
            raise PositivityViolation(
                f"primal value {np.min(z):.3e} on active set {factor.order}"
            )
        z = np.maximum(z, 0.0)
        Mz = M @ z
        w = q + Mz
        # w is zero on the active set, so only inactive coordinates violate;
        # there M z <= 0, and a violation stands out from |q| + |M z|.
        w[factor.order] = 0.0
        violated = np.flatnonzero(w < -STRICT_TOL * (np.abs(q) + np.abs(Mz)))
        if violated.size == 0:
            break
        factor.append([violated[np.argmin(w[violated])]])

    # A coordinate joins with a violation, which makes its z positive.
    support = tuple(np.flatnonzero(z > 0.0).tolist())
    w = np.maximum(w, 0.0)
    return LcpSolution(w=w, z=z, support=support)


def solve_qp_nonneg(q, M, tol: float = 1e-10, max_iter: int = 500_000) -> np.ndarray:
    """Minimize <q, theta> + 0.5 <theta, M theta> over theta >= 0.

    Projected gradient descent with the fixed step 1/lambda_max(M), run
    until the unit-step projected-gradient residual drops below ``tol``.
    Deliberately independent of the pivoting code path.
    """
    q = _finite_array(q, "q", (None,))
    M = _finite_array(M, "M", (q.size, q.size))
    eigs = np.linalg.eigvalsh(M)
    if eigs[0] <= 0.0:
        raise NotKMatrix(f"matrix not positive definite (lambda_min={eigs[0]:.3e})")
    step = 1.0 / eigs[-1]

    theta = np.zeros(q.size)
    residual = np.inf
    for _ in range(max_iter):
        grad = q + M @ theta
        residual = float(np.max(np.abs(theta - np.maximum(theta - grad, 0.0))))
        if residual <= tol:
            return theta
        theta = np.maximum(theta - step * grad, 0.0)
    raise MaxIterations(residual=residual, iterations=max_iter)
