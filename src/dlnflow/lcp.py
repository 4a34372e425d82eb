"""Linear complementarity solvers for symmetric positive-definite Z-matrices.

Given q and such a matrix M (a K-matrix), find (w, z) with

    w = q + M z,    w >= 0,    z >= 0,    w^T z = 0.

K-matrices make the solution unique and antitone in q, and the solution
z(s) of LCP(k - s r, M) for k, r >= 0 is a homotopy whose support only
grows: inverses of principal submatrices have nonnegative entries, so
growing the active set never pushes a primal coordinate negative, and one
Cholesky factor, extended a row per activation, serves every segment.
``solve_lcp`` follows that homotopy to s = 1 and the limit path to its end.
A projected-gradient bound-constrained QP solver is an independent
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
    SingularSubmatrix,
)

# Strict-inequality threshold, relative to the scale of what it bounds.
STRICT_TOL = 1e-12
# A dual root within this relative distance of a breakpoint joins there.
BREAKPOINT_TOL = 1e-12
QP_TOL = 1e-10
QP_MAX_ITER = 500_000


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

    ``order`` is I in join order, a read-only integer view of the first
    |I| entries of a preallocated buffer; an append writes past them, so a
    view taken earlier keeps its set. L's rows sit in that order, one after
    another in a buffer that BLAS reads, uncopied, as the packed upper
    triangle of L^T. An append costs one O(|I|^2) triangular solve and one
    forward-substitution row; a solve costs one back substitution per
    column of b.
    """

    def __init__(self, M: np.ndarray, b: np.ndarray):
        self.M = M
        self._joined = np.empty(len(M), dtype=np.intp)
        self.order = self._view(0)
        self._shape = np.shape(b)
        # One row per column of b.
        self._rhs = np.reshape(b, (len(M), -1)).T
        self._forward = np.zeros(self._rhs.shape)
        self._packed = np.zeros(len(M) * (len(M) + 1) // 2)

    def _view(self, m: int) -> np.ndarray:
        view = self._joined[:m]
        view.flags.writeable = False
        return view

    def append(self, joining) -> None:
        """Add the coordinates in ``joining`` to I, one row each."""
        for j in joining:
            n = len(self.order)
            self._joined[n] = j
            # BLAS reads the first n entries and rejects an empty vector.
            column = self.M[self._joined[:n + 1], j]
            row = dtpsv(n, self._packed, column, trans=1)[:n]
            pivot = column[n] - row @ row
            if not pivot > 0.0:
                raise SingularSubmatrix(
                    f"pivot {pivot:.3e} adding coordinate {j} to {self.order.tolist()}"
                )
            start, diagonal = n * (n + 1) // 2, np.sqrt(pivot)
            self._packed[start:start + n] = row
            self._packed[start + n] = diagonal
            forward = self._forward
            forward[:, n] = (self._rhs[:, j] - forward[:, :n] @ row) / diagonal
            self.order = self._view(n + 1)

    def solve(self) -> np.ndarray:
        """x with M[I, I] x_I = b_I and x = 0 off I."""
        n = len(self.order)
        x = np.zeros(self._forward.shape)
        for x_col, forward in zip(x, self._forward):
            x_col[self.order] = dtpsv(n, self._packed, forward, trans=0)[:n]
        return x.T.reshape(self._shape)


def homotopy(M: np.ndarray, k: np.ndarray, r: np.ndarray, s_end: float):
    """Follow z(s), the solution of LCP(k - s r, M), from s = 0 to ``s_end``.

    On an active set I, z and the dual w = k - s r + M z are affine in s,
    z_I solving M_II z_I = (s r - k)_I. An inactive dual line falling to 0
    has a root; the earliest one is the next breakpoint and only its
    coordinate joins there, and a root within a relative ``BREAKPOINT_TOL``
    of the current breakpoint, such as the rest of a tie, joins it on the
    next pass. Coordinates never leave, and a root at or past ``s_end``
    does not join. Yields each segment as its starting breakpoint, its
    active set in join order (the kernel's read-only ``order`` view, which
    later joins leave as it is), and z's intercept and slope on it.
    """
    rhs = np.column_stack([-k, r])
    factor = ActiveSetCholesky(M, rhs)
    s_cur = 0.0
    while True:
        lines = factor.solve()
        # Both dual lines, w = w_int + s w_slp, from one product with M.
        w_int, w_slp = (M @ lines - rhs).T
        # The upcoming zeros of the inactive dual lines.
        roots = np.divide(-w_int, w_slp, out=np.full(len(M), np.inf),
                          where=w_slp < 0.0)
        roots[factor.order] = np.inf
        j = int(roots.argmin())
        root = roots.item(j)
        # A root within a relative tolerance of s_cur joins at s_cur: joins
        # only pull the other roots earlier, so a skipped one never returns.
        late = s_cur + BREAKPOINT_TOL * s_cur
        if root <= late:
            factor.append(np.flatnonzero(roots <= late))
            continue
        yield s_cur, factor.order, *lines.T
        s_cur = root
        if not s_cur < s_end:
            return
        factor.append([j])


def solve_lcp(q, M) -> LcpSolution:
    """Solve the complementarity problem as the :func:`homotopy` at s = 1.

    With k = max(q, 0) and r = max(-q, 0), k - r = q exactly, so z(1)
    solves LCP(q, M). Every coordinate with q_i < 0 has its root at 0 and
    joins at once; a root at s = 1 does not join, so a degenerate
    coordinate (w_i = z_i = 0) stays out of the support. The join rule is
    the only threshold, relative, and k and r scale exactly with q, so
    ``(c q, M)`` has the solution ``c z``, with the same support, at any
    scale c > 0.
    """
    q = _finite_array(q, "q", (None,))
    M = _finite_array(M, "M", (q.size, q.size))
    check_k_matrix(M)
    for _, order, z_int, theta in homotopy(M, np.maximum(q, 0.0), np.maximum(-q, 0.0),
                                           1.0):
        pass
    z = np.maximum(z_int + theta, 0.0)
    w = q + M @ z
    w[order] = 0.0
    support = tuple(np.flatnonzero(z > 0.0).tolist())
    return LcpSolution(w=np.maximum(w, 0.0), z=z, support=support)


def solve_qp_nonneg(q, M) -> np.ndarray:
    """Minimize <q, theta> + 0.5 <theta, M theta> over theta >= 0.

    Projected gradient descent with the fixed step 1/lambda_max(M), run
    until the unit-step projected-gradient residual is at most ``QP_TOL``,
    for at most ``QP_MAX_ITER`` steps; independent of the homotopy code.
    """
    q = _finite_array(q, "q", (None,))
    M = _finite_array(M, "M", (q.size, q.size))
    eigs = np.linalg.eigvalsh(M)
    if eigs[0] <= 0.0:
        raise NotKMatrix(f"matrix not positive definite (lambda_min={eigs[0]:.3e})")
    step = 1.0 / eigs[-1]

    theta = np.zeros(q.size)
    residual = np.inf
    for _ in range(QP_MAX_ITER):
        grad = q + M @ theta
        residual = float(np.max(np.abs(theta - np.maximum(theta - grad, 0.0))))
        if residual <= QP_TOL:
            return theta
        theta = np.maximum(theta - step * grad, 0.0)
    raise MaxIterations(residual=residual, iterations=QP_MAX_ITER)
