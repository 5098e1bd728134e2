"""Exception types shared across the package."""


class AbqError(Exception):
    """Base class for all abqlab errors."""


class BudgetExceededError(AbqError):
    """An evaluation budget guard was hit (e.g. tensor-grid size)."""


class DomainError(AbqError):
    """An argument lies outside the valid range of an operation."""


class SaturationError(AbqError):
    """A transform would overflow in double precision."""


class NumericalDegradationError(AbqError):
    """Linear algebra lost too much accuracy to trust the result."""


class LinearDependenceError(AbqError):
    """A new design point is (numerically) linearly dependent on the
    current ones; the caller must stop or reselect."""


class WeakAdaptivityViolation(AbqError):
    """An adaptive term became nonpositive where it must be positive."""


class ConfigError(AbqError):
    """An experiment configuration failed validation."""


class NonFiniteIntegrandError(AbqError):
    """The integrand returned NaN or inf at a selected point."""
