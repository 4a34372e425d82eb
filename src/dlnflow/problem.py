"""Regression instances with positively-correlated outputs and
anti-correlated features.

An instance is the pair (M, r) with M = X^T X the feature covariance and
r = X^T y the feature-output covariance, subject to

    A1:  r_i > 0 for every i,
    A2:  M_ij <= 0 for every i != j.

When r = X^T y, these force M to be positive definite (hence n >= d): a
singular Z-matrix X^T X has a nonzero nonnegative null vector v, and then
r^T v = y^T X v = 0 contradicts A1. A pair (M, r) given directly has no
such link, so every instance is certified a K-matrix (symmetric positive
definite with nonpositive off-diagonals) once, when it is built.
"""

from __future__ import annotations

import inspect
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import cho_solve

from .errors import (
    AssumptionViolated,
    DegenerateScale,
    DimensionMismatch,
    DomainError,
    RejectionBudgetExceeded,
)
from .lcp import _finite_array, check_k_matrix

RECONSTRUCTION_RTOL = 1e-10


@dataclass(frozen=True)
class RegressionData:
    """Raw design matrix X (n samples by d features) and outputs y."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = _finite_array(self.X, "X", (None, None))
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", _finite_array(self.y, "y", (X.shape[0],)))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class ProblemInstance:
    """Certified K-matrix pair (M, r); optionally keeps the data it came from.

    Construction checks A1 and A2, then ``lcp.check_k_matrix`` certifies M
    and Cholesky-factors it once (an asymmetric, singular or indefinite M
    raises ``NotKMatrix``). The factor serves every solve with M
    (:meth:`solve`, :meth:`minimizer`), so no later layer re-certifies it.
    """

    M: np.ndarray
    r: np.ndarray
    data: RegressionData | None = None
    meta: dict = field(default_factory=dict)
    _factor: tuple = field(init=False, repr=False, compare=False)
    _minimizer: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r = _finite_array(self.r, "r", (None,))
        M = _finite_array(self.M, "M", (r.size, r.size))
        bad_r = np.flatnonzero(~(r > 0.0))
        if bad_r.size:
            raise AssumptionViolated("A1", bad_r.tolist())
        bad_m = np.argwhere(M - np.diag(np.diag(M)) > 0.0)
        if bad_m.size:
            raise AssumptionViolated("A2", map(tuple, bad_m.tolist()))
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "_factor", check_k_matrix(M))
        minimizer = self.solve(r)
        minimizer.flags.writeable = False
        object.__setattr__(self, "_minimizer", minimizer)

    @property
    def d(self) -> int:
        return self.r.shape[0]

    @property
    def has_offset(self) -> bool:
        """True when the constant 0.5*||y||^2 term of the loss is known."""
        return self.data is not None

    def solve(self, b) -> np.ndarray:
        """M^{-1} b through the Cholesky factor; b may have columns."""
        return cho_solve(self._factor, b, check_finite=False)

    def minimizer(self) -> np.ndarray:
        """Unconstrained minimizer M^{-1} r of the quadratic loss (read-only)."""
        return self._minimizer


@dataclass(frozen=True)
class Initialization:
    """Initialization theta_i(0) = C_i * epsilon^{k_i} of the flow."""

    C: np.ndarray
    k: np.ndarray
    epsilon: float

    def __post_init__(self):
        C = _finite_array(self.C, "C", (None,))
        k = _finite_array(self.k, "k", C.shape)
        if not np.all(C > 0.0):
            raise DomainError("C must be strictly positive")
        if not np.all(k > 0.0):
            raise DomainError("k must be strictly positive")
        if not (0.0 < self.epsilon < 1.0):
            raise DomainError("epsilon must lie strictly between 0 and 1")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "k", k)

    @property
    def log_epsilon(self) -> float:
        """log(epsilon) < 0; the only form in which epsilon enters the flow."""
        return float(np.log(self.epsilon))

    @property
    def w0(self) -> np.ndarray:
        """Log coordinates w_i(0) = k_i + log(C_i) / log(epsilon)."""
        return self.k + np.log(self.C) / self.log_epsilon


def from_data(data: RegressionData) -> ProblemInstance:
    """Build the validated (M, r) pair from raw data, keeping provenance."""
    M = data.X.T @ data.X
    r = data.X.T @ data.y
    return ProblemInstance(M=M, r=r, data=data, meta={"n": data.n, "d": data.d})


def generate_rejection(
    n: int, d: int, seed: int, max_attempts: int = 10_000
) -> RegressionData:
    """Draw i.i.d. standard Gaussian (X, y) until A1 and A2 both hold.

    The acceptance probability decays rapidly with d, so this is only
    practical at small dimensions; use :func:`generate_direct` otherwise.
    Deterministic for a fixed seed.
    """
    if n < 1 or d < 1:
        raise DimensionMismatch("need n >= 1 and d >= 1")
    rng = np.random.default_rng(seed)
    for attempt in range(1, max_attempts + 1):
        X = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        r = X.T @ y
        if not np.all(r > 0.0):
            continue
        M = X.T @ X
        off = M - np.diag(np.diag(M))
        if np.any(off > 0.0):
            continue
        return RegressionData(X=X, y=y)
    raise RejectionBudgetExceeded(max_attempts)


def generate_direct(
    d: int, seed: int, offdiag_scale: float | None = None
) -> tuple[ProblemInstance, RegressionData]:
    """Build a valid instance of any dimension without rejection.

    M is symmetric with nonpositive off-diagonals and strictly diagonally
    dominant (hence positive definite), r is positive, and consistent data
    is reconstructed through the Cholesky factor: X is the upper factor of
    M (n = d) and y solves X^T y = r, so X^T X = M and X^T y = r up to
    roundoff. The default off-diagonal scale shrinks with d to keep
    dominance at any dimension; larger explicit values raise
    ``DegenerateScale`` when they break it.
    """
    if d < 1:
        raise DimensionMismatch("need d >= 1")
    if offdiag_scale is None:
        offdiag_scale = 0.5 / max(1, d - 1)
    if offdiag_scale < 0.0:
        raise DegenerateScale("offdiag_scale must be nonnegative")
    rng = np.random.default_rng(seed)
    diag = rng.uniform(1.0, 2.0, size=d)
    upper = -offdiag_scale * rng.uniform(0.0, 1.0, size=(d, d))
    off = np.triu(upper, k=1)
    off = off + off.T
    M = off + np.diag(diag)
    row_off = np.sum(np.abs(off), axis=1)
    if np.any(row_off >= diag):
        raise DegenerateScale(
            f"offdiag_scale={offdiag_scale} breaks strict diagonal dominance "
            f"at d={d}"
        )
    r = rng.uniform(0.5, 1.5, size=d)

    L = np.linalg.cholesky(M)          # M = L L^T
    X = L.T                            # X^T X = L L^T = M
    y = np.linalg.solve(L, r)          # X^T y = L y = r
    data = RegressionData(X=X, y=y)

    m_err = np.max(np.abs(data.X.T @ data.X - M))
    r_err = np.max(np.abs(data.X.T @ data.y - r))
    if m_err > RECONSTRUCTION_RTOL * np.max(np.abs(M)):
        raise DegenerateScale(f"covariance reconstruction residual {m_err:.3e}")
    if r_err > RECONSTRUCTION_RTOL * np.max(np.abs(r)):
        raise DegenerateScale(f"correlation reconstruction residual {r_err:.3e}")

    instance = ProblemInstance(
        M=M,
        r=r,
        data=data,
        meta={"seed": seed, "generator": "direct", "n": d, "d": d,
              "offdiag_scale": offdiag_scale},
    )
    return instance, data


def generate(spec: dict) -> ProblemInstance:
    """Build the instance a generator spec names, factoring M once:
    {"generator": "direct", "d", "seed"[, "offdiag_scale"]} or
    {"generator": "rejection", "n", "d", "seed"[, "max_attempts"]}."""
    params = dict(spec)
    kind = params.pop("generator", None)
    generator = {"direct": generate_direct, "rejection": generate_rejection}.get(kind)
    if generator is None:
        raise DomainError(f"generator must be 'direct' or 'rejection', got {kind!r}")
    try:
        inspect.signature(generator).bind(**params)
    except TypeError as exc:
        raise DomainError(f"{kind} generator spec: {exc}") from None
    for key, value in params.items():
        wanted = (int, float, type(None)) if key == "offdiag_scale" else (int,)
        if type(value) not in wanted or key == "seed" and value < 0:
            raise DomainError(f"{kind} generator spec: bad {key} {value!r}")
    if kind == "direct":
        return generate_direct(**params)[0]
    data = generate_rejection(**params)
    return ProblemInstance(M=data.X.T @ data.X, r=data.X.T @ data.y, data=data,
                           meta={"seed": params["seed"], "generator": "rejection",
                                 "n": data.n, "d": data.d})


def loss(instance: ProblemInstance, theta) -> float | np.ndarray:
    """Quadratic loss at theta, or at each row of a (..., d) array of them.

    Includes the constant 0.5*||y||^2 only when the instance carries its
    raw data; otherwise the offset-free value is returned (flagged by
    ``instance.has_offset``). A single theta gives a float.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1:] != (instance.d,):
        raise DimensionMismatch(f"theta must have shape (..., {instance.d})")
    value = (0.5 * np.einsum("...i,...i->...", theta @ instance.M, theta)
             - theta @ instance.r)
    if instance.data is not None:
        value += 0.5 * float(instance.data.y @ instance.data.y)
    return float(value) if theta.ndim == 1 else value


def to_json_dict(instance: ProblemInstance) -> dict:
    obj = {
        "M": instance.M.tolist(),
        "r": instance.r.tolist(),
        "meta": dict(instance.meta),
    }
    if instance.data is not None:
        obj["X"] = instance.data.X.tolist()
        obj["y"] = instance.data.y.tolist()
        obj["meta"].setdefault("n", instance.data.n)
        obj["meta"].setdefault("d", instance.data.d)
    return obj


def from_json_dict(obj: dict) -> ProblemInstance:
    data = None
    if obj.get("X") is not None and obj.get("y") is not None:
        data = RegressionData(X=obj["X"], y=obj["y"])
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise DomainError(f"meta must be a JSON object, got {meta!r}")
    return ProblemInstance(M=obj.get("M"), r=obj.get("r"), data=data,
                           meta=dict(meta))


def _write_atomic(path, write) -> Path:
    """Call ``write(fh)`` on ``<path>.tmp``, then rename it over ``path``;
    if either step raises, the temp file is removed first."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def save_instance(instance: ProblemInstance, path) -> None:
    """Write the instance JSON atomically (temp file + rename)."""
    _write_atomic(path, lambda fh: fh.write(json.dumps(to_json_dict(instance),
                                                        indent=2)))


def read_json_object(path) -> dict:
    """The JSON object a file holds; any other JSON value is rejected."""
    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict):
        raise DomainError(f"{path} holds a JSON {type(obj).__name__}, not an object")
    return obj


def load_instance(path) -> ProblemInstance:
    return from_json_dict(read_json_object(path))


def resolve_instance(source) -> ProblemInstance:
    """The instance at a path, or the one a generator spec builds (see
    :func:`generate`)."""
    if isinstance(source, str):
        return load_instance(source)
    if isinstance(source, dict):
        return generate(source)
    raise DomainError(f"instance is neither a path nor a spec: {source!r}")
