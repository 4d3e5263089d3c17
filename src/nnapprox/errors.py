"""Exception hierarchy shared by all nnapprox modules."""

__all__ = ["NNApproxError", "ParameterError", "InputError", "DomainError", "NumericalError"]


class NNApproxError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(NNApproxError):
    """A constructed object received a value outside its allowed domain."""


class InputError(NNApproxError):
    """An operation received arguments it cannot work with."""


class DomainError(InputError):
    """Evaluation was requested where the target function is undefined."""


class NumericalError(NNApproxError):
    """A numerical procedure failed to converge within its budget."""
