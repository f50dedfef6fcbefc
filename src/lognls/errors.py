"""Exception types shared across the package."""


class LogNLSError(Exception):
    """Base class for all errors raised by lognls."""


# --- grid construction / compatibility ---

class NonPositiveSpacing(LogNLSError):
    pass


class DomainTooCoarse(LogNLSError):
    pass


class NonConformingSpacing(LogNLSError):
    pass


class GridMismatch(LogNLSError):
    pass


class ShrinkingDomain(LogNLSError):
    pass


class SpacingMismatch(LogNLSError):
    pass


# --- potential construction ---

class MissingOriginWell(LogNLSError):
    pass


class FlatPotential(LogNLSError):
    pass


class DuplicateWells(LogNLSError):
    pass


class NonPositiveEpsilon(LogNLSError):
    pass


# --- energy / functional evaluation ---

class ZeroField(LogNLSError):
    pass


# --- solver ---

class DomainTooSmall(LogNLSError):
    pass


class SeedOutsideRegion(LogNLSError):
    pass


class SolverFailure(LogNLSError):
    """A solve did not reach Converged status; carries the partial result."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


# --- cli ---

class ConfigError(LogNLSError):
    pass
