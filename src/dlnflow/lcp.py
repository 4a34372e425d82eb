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
from scipy.linalg import LinAlgError, cho_factor
from scipy.linalg.blas import dtpsv

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

    Symmetry relative to max|M|, nonpositive off-diagonals and a Cholesky
    factor; every instance and every ``(q, M)`` pair of :func:`solve_lcp`
    passes here.
    """
    asym, scale = np.max(np.abs(M - M.T)), np.max(np.abs(M))
    if asym > STRICT_TOL * scale:
        raise NotKMatrix(f"M is not symmetric (max asymmetry {asym / scale:.3e} "
                         f"of max|M|)")
    if np.any(M - np.diag(np.diag(M)) > 0.0):
        raise NotKMatrix("M has a positive off-diagonal entry")
    try:
        return cho_factor(M)
    except LinAlgError as exc:
        raise NotKMatrix(f"M is not positive definite ({exc})") from None


class ActiveSetCholesky:
    """Lower Cholesky factor L of M[I, I] for a growing active set I, with
    the forward substitution L^{-1} b[I] of a fixed vector or columns b.

    L's rows sit in activation order, one after another in a buffer that
    BLAS reads, uncopied, as the packed upper triangle of L^T. An append
    costs one O(|I|^2) triangular solve and one forward-substitution row; a
    solve costs one back substitution per column of b.
    """

    def __init__(self, M: np.ndarray, b: np.ndarray):
        self.M = M
        self.order: list[int] = []
        self._shape = np.shape(b)
        # One row per column of b.
        self._rhs = np.reshape(b, (len(M), -1)).T
        self._forward = np.zeros(self._rhs.shape)
        self._packed = np.zeros(len(M) * (len(M) + 1) // 2)

    def append(self, joining) -> None:
        """Add the coordinates in ``joining`` to I, one row each."""
        for j in joining:
            n = len(self.order)
            # BLAS reads the first n entries and rejects an empty vector.
            column = self.M[self.order + [j], j]
            row = dtpsv(n, self._packed, column, trans=1)[:n]
            pivot = column[n] - row @ row
            if not pivot > 0.0:
                raise SingularSubmatrix(
                    f"pivot {pivot:.3e} adding coordinate {j} to {self.order}"
                )
            start, diagonal = n * (n + 1) // 2, np.sqrt(pivot)
            self._packed[start:start + n + 1] = np.append(row, diagonal)
            forward = self._forward
            forward[:, n] = (self._rhs[:, j] - forward[:, :n] @ row) / diagonal
            self.order.append(int(j))

    def solve(self) -> np.ndarray:
        """x with M[I, I] x_I = b_I and x = 0 off I."""
        n = len(self.order)
        x = np.zeros(self._forward.shape)
        for x_col, forward in zip(x, self._forward):
            x_col[self.order] = dtpsv(n, self._packed, forward, trans=0)[:n]
        return x.T.reshape(self._shape)


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
    factor = ActiveSetCholesky(M, -q)
    while True:
        z = factor.solve()
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
