"""Exception hierarchy.

Three families map onto the CLI exit codes: rejected inputs and violated
model assumptions exit with 2, numerical failures with 3, exhausted
sampling/iteration budgets with 4, as does a failed allocation.
"""

import json


class DlnFlowError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(DlnFlowError):
    """Input rejected before any real computation ran."""


class NumericalFailure(DlnFlowError):
    """A computation contradicted a property it was certified to have."""


class BudgetExceeded(DlnFlowError):
    """A retry or iteration budget ran out."""


# -- validation ------------------------------------------------------------

class AssumptionViolated(ValidationError):
    """Positive-correlation (A1) or anti-correlation (A2) check failed."""

    def __init__(self, assumption: str, indices):
        self.assumption = assumption
        self.indices = tuple(indices)
        super().__init__(f"{assumption} violated at indices {list(self.indices)}")


class NonFinite(ValidationError):
    """An input array contains NaN or infinity."""


class DimensionMismatch(ValidationError):
    """Array shapes are inconsistent with the problem dimension."""


class DimensionTooLarge(ValidationError):
    """An exhaustive 2^d enumeration was requested for too large a d."""


class DegenerateScale(ValidationError):
    """Off-diagonal scale too large to keep strict diagonal dominance."""


class NotKMatrix(ValidationError):
    """Matrix is not symmetric positive definite with nonpositive off-diagonals."""


class DomainError(ValidationError):
    """A quantity was evaluated outside its mathematical domain."""


class OutOfRange(ValidationError):
    """Query point lies outside the computed range."""


class AtBreakpoint(ValidationError):
    """The piecewise-constant limit is undefined at activation times."""


# -- numerical failures ----------------------------------------------------

class PositivityViolation(NumericalFailure):
    """A coordinate that is provably positive came out nonpositive."""


class SingularSubmatrix(NumericalFailure):
    """A principal submatrix that is provably invertible failed to factor."""


class MonotonicityViolated(NumericalFailure):
    """A simulated coordinate decreased: the initialization scale is too
    large for monotone dynamics (or the integration failed)."""


class StepUnderflow(NumericalFailure):
    """Adaptive step size shrank below representable resolution."""


class PathInconsistent(NumericalFailure):
    """Closed-form path segment fails its KKT certificate."""


class NotReached(NumericalFailure):
    """Trajectory did not enter the target ball before the time cap."""

    def __init__(self, s_cap: float):
        self.s_cap = s_cap
        super().__init__(f"target ball not reached before rescaled time {s_cap}")


# -- budgets ---------------------------------------------------------------

class RejectionBudgetExceeded(BudgetExceeded):
    """Rejection sampler failed to draw a valid instance within budget."""

    def __init__(self, attempts: int):
        self.attempts = attempts
        super().__init__(f"no valid instance after {attempts} attempts")


class MaxIterations(BudgetExceeded):
    """Iterative solver hit its iteration cap; carries the final residual."""

    def __init__(self, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(residual {residual:.3e})"
        )


def exit_code(exc: BaseException) -> int:
    """The documented CLI exit code of ``exc``; files that cannot be read,
    parsed or written count as rejected input, and a failed allocation
    (``MemoryError``) as an exhausted budget. The CLI reports codes 2 to 4
    as one ``error:`` line; an exception mapped to 1 keeps its traceback."""
    if isinstance(exc, (ValidationError, OSError, json.JSONDecodeError)):
        return 2
    if isinstance(exc, (BudgetExceeded, MemoryError)):
        return 4
    if isinstance(exc, DlnFlowError):
        return 3
    return 1
