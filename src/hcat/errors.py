"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PreconditionError(ValueError):
    """A documented precondition of an operation was violated."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to converge within its configured limits."""


class CertificationFailure(RuntimeError):
    """A numerical certification check failed.

    Carries the offending abscissa and the values that violated the
    required inequality, so reports can point at the exact failure.
    """

    def __init__(self, message, *, t=None, values=None):
        super().__init__(message)
        self.t = t
        self.values = values

