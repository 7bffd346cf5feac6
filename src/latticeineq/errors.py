"""Exception hierarchy shared by the whole package."""


class LatticeError(ValueError):
    """Base class for all toolkit errors."""

    prefix = "error"


class InvalidInputError(LatticeError):
    """Malformed argument: bad axis, bad dimension, bad exponent, bad file."""

    prefix = "invalid input"


class DomainError(LatticeError):
    """Value outside the mathematical domain of the operation (e.g. negative
    entries passed to an operation defined for nonnegative functions)."""

    prefix = "domain error"


class DegenerateInputError(LatticeError):
    """Structurally valid but degenerate input (zero function, empty set)."""

    prefix = "degenerate input"


class PreconditionError(LatticeError):
    """A stated precondition does not hold (e.g. a norm constraint)."""

    prefix = "precondition"


class BudgetExceededError(LatticeError):
    """An enumeration would exceed the configured budget.

    Carries the estimated instance count so callers can report it; when
    `exact` is false the estimate is only a lower bound.
    """

    def __init__(self, estimate: int, budget: int, exact: bool = True):
        self.estimate = estimate
        self.budget = budget
        super().__init__(
            f"enumeration would visit {'' if exact else 'at least '}{estimate} "
            f"subsets, over the budget of {budget}"
        )
