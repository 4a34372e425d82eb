"""The small-initialization limit: regularization path and activation times.

As the initialization scale vanishes, the rescaled trajectory converges to
a piecewise-constant process hopping between stationary points, and its
running average to the minimizer mu(s) of the decreasingly-regularized
problem

    min_{theta >= 0}  f(theta) + <k, theta> / s.

Both are read off one parametric complementarity problem with offset
q(s) = k - s r: the primal solution z(s) equals s * mu(s) and its support
I(s) grows with s. On each interval between activation events z and the
dual w are affine in s, so the whole path is computed exactly by a
homotopy: follow the affine formulas, find the next dual zero crossing in
closed form, enlarge the active set, repeat until it saturates. Once the
homotopy ends, one vectorised pass checks every segment's KKT certificate
at a probe point, and the first segment that fails it raises
``PathInconsistent``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# cho_factor and fixed_point are unused here; bench/tracer.py wraps them by name.
from scipy.linalg import cho_factor  # noqa: F401

from . import lcp
from .errors import (
    AtBreakpoint,
    OutOfRange,
    PathInconsistent,
    PositivityViolation,
)
from .fixed_points import POSITIVITY_TOL, fixed_point  # noqa: F401
from .lcp import BREAKPOINT_TOL
from .problem import ProblemInstance, _positive_array

SEGMENT_CHECK_TOL = 1e-9


@dataclass(frozen=True)
class PathSegment:
    """One constancy interval of the active set, between two breakpoints.

    The primal path is affine on it, z(s) = z_intercept + s * theta_star,
    and the dual is w = k - s r + M z. theta_star = M_II^{-1} r_I, the
    stationary point the trajectory plateaus at, is positive on the active
    set I and exactly 0 off it, so I is its support and is not stored.
    """

    z_intercept: np.ndarray
    theta_star: np.ndarray

    @property
    def active(self) -> tuple[int, ...]:
        """The active set I, sorted: the support of theta_star."""
        return tuple(np.flatnonzero(self.theta_star).tolist())


@dataclass(frozen=True)
class LimitPath:
    """Breakpoints s_1 < ... < s_q, nested active sets, and affine pieces;
    segment j lies between breakpoints j - 1 and j, with s_0 = 0."""

    breakpoints: np.ndarray
    segments: tuple[PathSegment, ...]

    @property
    def s_star(self) -> float:
        """The convergence time: the last breakpoint."""
        return float(self.breakpoints[-1])

    def sample(self, s) -> tuple[np.ndarray, np.ndarray]:
        """theta*(I(s)) and mu(s) = z(s) / s, one row per s of a vector of
        finite s >= 0; mu(0) = 0, and a breakpoint belongs to the segment it
        starts."""
        s = np.asarray(s, dtype=float)
        if not (s.ndim == 1 and np.all((s >= 0.0) & (s < np.inf))):
            raise OutOfRange("the limit path is sampled on a vector of finite s >= 0")
        seg = np.searchsorted(self.breakpoints, s, side="right")
        theta = np.array([segment.theta_star for segment in self.segments])[seg]
        z = np.array([segment.z_intercept for segment in self.segments])[seg]
        z += s[:, None] * theta
        mu = np.divide(z, s[:, None], out=np.zeros_like(z), where=s[:, None] > 0.0)
        return theta, mu


def compute_path(instance: ProblemInstance, k) -> LimitPath:
    """Exact homotopy in s, :func:`lcp.homotopy` run to s = infinity.

    The empty active set is valid on (0, min_i k_i / r_i). Each breakpoint
    activates the coordinate with the earliest root; coordinates never
    deactivate, so the last segment must carry the full set, and the last
    breakpoint is the convergence time, cross-checked against its closed
    form max_i (M^{-1} k)_i / (M^{-1} r)_i. A segment's stationary point is
    its slope M_II^{-1} r_I. After the loop, every segment's KKT
    certificate is checked in one pass (``_certify_path``), which names
    the first segment that fails.
    Against the exact rational path of its float data, the path merges each
    cluster of roots within a relative ``BREAKPOINT_TOL`` of its earliest
    there: active sets are then equal, breakpoints within a few ulps of the
    exact ones, and the exact s* is its closed form.
    """
    k = _positive_array(k, "k", (instance.d,))
    M, r = instance.M, instance.r
    # M_II^{-1} >= diag(M_II)^{-1} entrywise, so theta_i >= r_i / M_ii on I.
    positivity_floor = POSITIVITY_TOL * r / np.diag(M)
    starts: list[float] = []
    segments: list[PathSegment] = []
    for s, order, z_int, theta in lcp.homotopy(M, k, r, math.inf):
        if (theta[order] <= positivity_floor[order]).any():
            active = sorted(order.tolist())
            raise PositivityViolation(
                f"stationary point on {active} not positive: {theta[active]}"
            )
        starts.append(s)
        segments.append(PathSegment(z_intercept=z_int, theta_star=theta))
    if len(order) < instance.d:
        raise PathInconsistent(
            f"no upcoming activation from active set {sorted(order.tolist())}; "
            f"the full set must eventually activate"
        )

    path = LimitPath(breakpoints=np.array(starts[1:]), segments=tuple(segments))
    _certify_path(instance, k, path)
    closed_form = float(np.max(instance.solve(k) / instance.minimizer()))
    if abs(path.s_star - closed_form) > 1e-9 * closed_form:
        raise PathInconsistent(
            f"path terminal breakpoint {path.s_star!r} disagrees with closed form "
            f"{closed_form!r}"
        )
    return path


def _certify_path(instance: ProblemInstance, k: np.ndarray,
                  path: LimitPath) -> None:
    """KKT certificate of every segment's affine primal, in one pass.

    Segment j's probe point is the midpoint of [s_{j-1}, s_j), or 2 s_{j-1}
    on the last, unbounded segment. At the probes, the stacked z give the
    duals w = q + M z, q = k - s r, from one product with M; w on the
    active set is the stationarity ("affine") residual and is set to 0
    there. z >= 0, w >= 0 and complementarity are then checked on z and w
    divided by each segment's own scale, the largest of |z|, |w| and the
    terms of q. K-matrix complementarity solutions are unique, so a passing
    probe is the pointwise solution: a missed activation shows as a
    negative w, a spurious one as a negative z. The first failing segment
    raises ``PathInconsistent`` with its five relative residuals.
    """
    segments = path.segments
    s_lo = np.concatenate([[0.0], path.breakpoints])
    s_hi = np.append(path.breakpoints, math.inf)
    s = 0.5 * (s_lo + s_hi)
    s[-1] = 2.0 * s_lo[-1]
    theta = np.array([seg.theta_star for seg in segments])
    z = np.array([seg.z_intercept for seg in segments]) + s[:, None] * theta
    # M is symmetric, so the rows of z @ M are the M z of each probe.
    w = k - s[:, None] * instance.r + z @ instance.M
    active = theta != 0.0  # each segment's active set, as PathSegment.active
    affine = np.max(np.abs(w), axis=1, where=active, initial=0.0)
    w[active] = 0.0
    # k, r > 0 size the terms of q.
    scale = np.max([np.max(np.abs(z), axis=1), np.max(np.abs(w), axis=1),
                    np.max(k + s[:, None] * instance.r, axis=1)], axis=0)
    w /= scale[:, None]
    z /= scale[:, None]
    # Adding 0.0 turns a -0.0 part into 0.0, as max(0.0, x) reports it.
    residuals = {"affine": affine / scale,
                 "negative_w": np.maximum(-np.min(w, axis=1), 0.0) + 0.0,
                 "negative_z": np.maximum(-np.min(z, axis=1), 0.0) + 0.0,
                 "complementarity": np.abs(np.einsum("ij,ij->i", w, z)),
                 "per_coordinate": np.maximum(np.max(np.minimum(w, z), axis=1),
                                              0.0) + 0.0}
    # A NaN residual, as from a probe that overflows, fails too.
    failing = np.flatnonzero(~(np.max(list(residuals.values()), axis=0)
                               <= SEGMENT_CHECK_TOL))
    if failing.size:
        j = failing[0]
        detail = ", ".join(f"{name} {err[j]:.3e}" for name, err in residuals.items())
        raise PathInconsistent(
            f"segment [{s_lo[j]:.6g}, {s_hi[j]:.6g}) fails its KKT certificate at "
            f"s={s[j]:.6g}, relative to {scale[j]:.3e}: {detail}"
        )


def convergence_time_s_star(instance: ProblemInstance, k) -> float:
    """The last breakpoint s* of the certified path.

    Past this rescaled time the full support is active and the limit sits
    at the unconstrained minimizer.
    """
    return compute_path(instance, k).s_star


def theta_star_of_s(path: LimitPath, s: float) -> np.ndarray:
    """Value of the piecewise-constant limit process at rescaled time s.

    Undefined within a relative 1e-12 of an activation time, where the limit
    jumps; such queries raise ``AtBreakpoint``.
    """
    if not s > 0.0:
        raise OutOfRange("the limit process is defined for s > 0")
    gaps = np.abs(path.breakpoints - s)
    if np.any(gaps < BREAKPOINT_TOL * path.breakpoints):
        j = int(np.argmin(gaps))
        raise AtBreakpoint(
            f"s={s!r} is within a relative {BREAKPOINT_TOL} of breakpoint "
            f"s_{j + 1}={path.breakpoints[j]!r}"
        )
    return path.sample([s])[0][0]
