"""Exception hierarchy shared across the toolkit."""


class SelfPulseError(Exception):
    """Base class for all toolkit errors."""


class DomainError(SelfPulseError, ValueError):
    """A precondition on parameters or arguments was violated."""


class NumericalError(SelfPulseError, RuntimeError):
    """A numerical procedure failed (step-size underflow, singular solve, ...).

    ``time_reached`` carries the integration time at failure when applicable.
    """

    def __init__(self, message, time_reached=None):
        super().__init__(message)
        self.time_reached = time_reached


class ThresholdError(DomainError):
    """Requested drive strength is at or beyond the Hopf threshold."""
