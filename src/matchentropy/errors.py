"""Exception hierarchy shared across the solvers and the CLI."""


class MatchEntropyError(Exception):
    """Base class for all package errors."""


class ValidationError(MatchEntropyError):
    """A precondition on inputs or configuration is violated."""


class NumericalError(MatchEntropyError):
    """A solver produced an unusable result (non-convergence, bad pivot, ...)."""


class CflError(ValidationError):
    """Explicit time step violates the stability bound k*d/h^2 <= 1.

    An unstable explicit configuration is a precondition violated by the
    input, so it is a validation error; it is raised before the first step.
    """


class ConvergenceError(NumericalError):
    """An iterative solve did not reach its tolerance within the iteration cap."""
