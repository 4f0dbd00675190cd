"""Exception types shared across the package."""


class AnisodiffError(Exception):
    """Base class for all package errors."""


class ConfigError(AnisodiffError):
    """A parameter or configuration value violates a precondition.

    The message names the offending field and the constraint it broke.
    """


class InstabilityError(AnisodiffError):
    """The time integrator detected blow-up (circuit breaker tripped)."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class InsufficientDecayError(AnisodiffError):
    """A decay series never fell below the upper fit-window threshold."""


class FitWindowError(AnisodiffError):
    """Too few samples qualify for the decay-rate fit window."""

