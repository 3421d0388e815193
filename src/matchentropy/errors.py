"""Exception hierarchy shared across the solvers and the CLI."""


class MatchEntropyError(Exception):
    """Base class for all package errors."""


class ValidationError(MatchEntropyError):
    """A precondition on inputs or configuration is violated."""


class NumericalError(MatchEntropyError):
    """A solver produced an unusable result (non-convergence, bad pivot, ...)."""


class ConvergenceError(NumericalError):
    """An iterative solve did not reach its tolerance within the iteration cap."""
