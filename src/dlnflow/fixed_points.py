"""Stationary points of the multiplicative gradient flow.

For every subset I of coordinates there is exactly one nonnegative
stationary point supported on I: zero off I and (M_II)^{-1} r_I on I.
Anti-correlation makes every such submatrix inverse entrywise nonnegative,
which forces the supported coordinates to be strictly positive; both facts
are re-checked numerically here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    PositivityViolation,
    SingularSubmatrix,
)
from .problem import ProblemInstance

POSITIVITY_TOL = 1e-12
ENUMERATION_MAX_DIM = 20


@dataclass(frozen=True)
class FixedPoint:
    """A stationary point with its support and vector-field residual."""

    support: tuple[int, ...]
    theta: np.ndarray
    residual: float


def fixed_point(instance: ProblemInstance, support: Iterable[int]) -> FixedPoint:
    """Stationary point supported exactly on the given coordinate set."""
    d = instance.d
    idx = np.array(sorted(set(int(i) for i in support)), dtype=int)
    if idx.size and (idx[0] < 0 or idx[-1] >= d):
        raise DimensionMismatch(f"support {idx.tolist()} out of range for d={d}")

    theta = np.zeros(d)
    if idx.size:
        try:
            factor = cho_factor(instance.M[np.ix_(idx, idx)])
        except LinAlgError:
            raise SingularSubmatrix(
                f"submatrix {idx.tolist()} failed to factor; instance invalid"
            ) from None
        theta_active = cho_solve(factor, instance.r[idx])
        if np.any(theta_active <= POSITIVITY_TOL):
            raise PositivityViolation(
                f"computed active coordinates not strictly positive: "
                f"{theta_active.tolist()}"
            )
        theta[idx] = theta_active

    field = theta * (instance.r - instance.M @ theta)
    residual = float(np.max(np.abs(field))) if d else 0.0
    return FixedPoint(support=tuple(idx.tolist()), theta=theta, residual=residual)


def enumerate_fixed_points(instance: ProblemInstance) -> list[FixedPoint]:
    """All 2^d stationary points, in support-mask order."""
    d = instance.d
    if d > ENUMERATION_MAX_DIM:
        raise DimensionTooLarge(f"enumeration limited to d <= {ENUMERATION_MAX_DIM}")
    points = []
    for mask in range(2 ** d):
        support = [i for i in range(d) if (mask >> i) & 1]
        points.append(fixed_point(instance, support))
    return points
