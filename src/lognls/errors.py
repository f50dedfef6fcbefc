"""Exception types shared across the package."""


class LogNLSError(Exception):
    """Base class for all errors raised by lognls."""


class ConfigError(LogNLSError):
    """A run's settings are unusable; the CLI exits 2 on it."""


class InvalidInput(LogNLSError):
    """An argument breaks a rule of the function it is passed to: a grid,
    field, potential, eps or field file that the package cannot use."""


class ZeroField(LogNLSError):
    pass


class SeedOutsideRegion(LogNLSError):
    pass


class SolverFailure(LogNLSError):
    """A solve did not reach Converged status; carries the partial result."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result
