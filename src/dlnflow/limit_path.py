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
closed form, enlarge the active set, repeat until it saturates. A segment
that fails its KKT certificate raises ``PathInconsistent``.
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
    DomainError,
    NegativePrimalOnSegment,
    OutOfRange,
    PathInconsistent,
    PositivityViolation,
)
from .fixed_points import POSITIVITY_TOL, fixed_point  # noqa: F401
from .problem import ProblemInstance

BREAKPOINT_TOL = 1e-12
SEGMENT_CHECK_TOL = 1e-9


@dataclass(frozen=True)
class PathSegment:
    """One constancy interval [s_lo, s_hi) of the active set.

    Carries the exact affine coefficients of the primal/dual path on the
    interval: z(s) = z_intercept + s * z_slope (zero off the active set)
    and w(s) = w_intercept + s * w_slope (zero on it).
    """

    s_lo: float
    s_hi: float
    active: tuple[int, ...]
    z_intercept: np.ndarray
    z_slope: np.ndarray
    w_intercept: np.ndarray
    w_slope: np.ndarray

    @property
    def theta_star(self) -> np.ndarray:
        """The stationary point the trajectory plateaus at: the slope
        M_II^{-1} r_I of z on the active set I."""
        return self.z_slope

    def z_at(self, s: float) -> np.ndarray:
        return self.z_intercept + s * self.z_slope

    def w_at(self, s: float) -> np.ndarray:
        return self.w_intercept + s * self.w_slope


@dataclass(frozen=True)
class LimitPath:
    """Breakpoints s_1 < ... < s_q, nested active sets, and affine pieces."""

    breakpoints: np.ndarray
    segments: tuple[PathSegment, ...]
    s_star: float

    def segment_at(self, s: float) -> PathSegment:
        if not s > 0.0:
            raise OutOfRange("the limit path is defined for s > 0")
        return self.segments[int(np.searchsorted(self.breakpoints, s, side="right"))]

    def sample(self, s) -> tuple[np.ndarray, np.ndarray]:
        """theta*(I(s)) and mu(s) = z(s) / s, one row per s of a vector s >= 0;
        mu(0) = 0, and a breakpoint belongs to the segment it starts."""
        s = np.asarray(s, dtype=float)
        if not (s.ndim == 1 and np.all(s >= 0.0)):
            raise OutOfRange("the limit path is sampled on a vector of s >= 0")
        seg = np.searchsorted(self.breakpoints, s, side="right")
        theta = np.array([segment.theta_star for segment in self.segments])[seg]
        z = np.array([segment.z_intercept for segment in self.segments])[seg]
        z += s[:, None] * theta
        mu = np.divide(z, s[:, None], out=np.zeros_like(z), where=s[:, None] > 0.0)
        return theta, mu


def _check_k(instance: ProblemInstance, k) -> np.ndarray:
    k = lcp._finite_array(k, "k", (instance.d,))
    if not np.all(k > 0.0):
        raise DomainError("k must be strictly positive")
    return k


def compute_path(instance: ProblemInstance, k) -> LimitPath:
    """Exact homotopy in s.

    The empty active set is valid on (0, min_i k_i / r_i). With active set
    I, the inactive dual coordinates are affine in s; the next breakpoint
    is the smallest root beyond the current one, and every coordinate tied
    at that root activates simultaneously; a root within tolerance of the
    current breakpoint joins that breakpoint. Coordinates never deactivate,
    so the loop ends after at most d events with the full set; the last
    breakpoint is the convergence time, cross-checked against its closed
    form max_i (M^{-1} k)_i / (M^{-1} r)_i. Activations append rows to one
    Cholesky factor of M[I, I]; each segment must pass its KKT certificate.
    A segment's stationary point is its slope M_II^{-1} r_I.
    """
    k = _check_k(instance, k)
    M, r, d = instance.M, instance.r, instance.d

    factor = lcp.ActiveSetCholesky(M)
    # M_II^{-1} >= diag(M_II)^{-1} entrywise, so z_slp_i >= r_i / M_ii on I.
    positivity_floor = POSITIVITY_TOL * r / np.diag(M)
    s_cur = 0.0
    breakpoints: list[float] = []
    segments: list[PathSegment] = []

    while True:
        active = sorted(factor.order)
        z_int, z_slp = factor.solve(np.column_stack([-k, r])).T
        w_int = k + M @ z_int
        w_slp = M @ z_slp - r
        w_int[active] = 0.0
        w_slp[active] = 0.0
        if np.any(z_slp[active] <= positivity_floor[active]):
            raise PositivityViolation(
                f"stationary point on {active} not positive: {z_slp[active]}"
            )

        inactive = np.setdiff1d(np.arange(d), active, assume_unique=True)
        if inactive.size:
            # Next event: earliest upcoming zero of an inactive dual line.
            roots = np.full(d, np.inf)
            cand = inactive[w_slp[inactive] < 0.0]
            roots[cand] = -w_int[cand] / w_slp[cand]
            # A root within a relative tolerance of s_cur joins at s_cur: joins
            # only pull the other roots earlier, so a skipped one never returns.
            late = np.flatnonzero(roots <= s_cur + BREAKPOINT_TOL * s_cur)
            if late.size:
                factor.append(late)
                continue
            s_next = float(np.min(roots))
            if not np.isfinite(s_next):
                raise PathInconsistent(
                    f"no upcoming activation from active set {active}; "
                    f"the full set must eventually activate"
                )
            joining = np.flatnonzero(
                np.abs(roots - s_next) <= BREAKPOINT_TOL * s_next
            )
        else:
            s_next = math.inf

        segment = PathSegment(
            s_lo=s_cur,
            s_hi=s_next,
            active=tuple(active),
            z_intercept=z_int.copy(),
            z_slope=z_slp.copy(),
            w_intercept=w_int,
            w_slope=w_slp,
        )
        _verify_segment(instance, k, segment)
        segments.append(segment)

        if not inactive.size:
            break
        breakpoints.append(s_next)
        factor.append(joining)
        s_cur = s_next

    closed_form = float(np.max(instance.solve(k) / instance.minimizer()))
    if abs(s_cur - closed_form) > 1e-9 * closed_form:
        raise PathInconsistent(
            f"path terminal breakpoint {s_cur!r} disagrees with closed form "
            f"{closed_form!r}"
        )
    return LimitPath(
        breakpoints=np.array(breakpoints),
        segments=tuple(segments),
        s_star=s_cur,
    )


def _verify_segment(instance, k, segment: PathSegment) -> None:
    """KKT certificate of the affine formulas at the segment midpoint.

    Checks w = k - s r + M z, z >= 0, w >= 0 and complementarity in O(d^2)
    (``LcpSolution.residuals``). K-matrix complementarity solutions are
    unique, so a passing midpoint is the pointwise solution: a missed
    activation shows as a negative w, a spurious one as a negative z.
    """
    if math.isinf(segment.s_hi):
        mid = segment.s_lo + max(1.0, segment.s_lo)
    else:
        mid = 0.5 * (segment.s_lo + segment.s_hi)
    z_mid = segment.z_at(mid)
    w_mid = segment.w_at(mid)
    if np.min(z_mid) < -lcp.STRICT_TOL:
        raise NegativePrimalOnSegment(
            f"z(s) negative on segment [{segment.s_lo:.6g}, {segment.s_hi:.6g}): "
            f"min {np.min(z_mid):.3e}"
        )
    residuals = lcp.LcpSolution(w=w_mid, z=z_mid, support=segment.active).residuals(
        k - mid * instance.r, instance.M
    )
    # The segment's own scale; k, r > 0 size the terms of q = k - s r.
    scale = float(max(np.max(np.abs(z_mid)), np.max(np.abs(w_mid)),
                      np.max(k + mid * instance.r)))
    if max(residuals.values()) > SEGMENT_CHECK_TOL * scale:
        detail = ", ".join(f"{name} {err:.3e}" for name, err in residuals.items())
        raise PathInconsistent(
            f"segment [{segment.s_lo:.6g}, {segment.s_hi:.6g}) fails its KKT "
            f"certificate at s={mid:.6g}: {detail}"
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
    return path.segment_at(s).theta_star
