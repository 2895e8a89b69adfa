"""Exception types shared across the package."""


class LatschedError(Exception):
    """Base class for all latsched errors."""


class InvalidModelError(LatschedError):
    """Model matrices are malformed (dimensions, symmetry, observability)."""


class SingularUpdateError(LatschedError):
    """Innovation covariance is singular or too ill-conditioned to invert."""


class IncompleteScheduleError(LatschedError):
    """A schedule does not minimally cover the requested window, or names a
    method id outside 1..D."""


class ExplosionGuardError(LatschedError):
    """Exact scheduler search tree exceeds its depth or size guard."""


class GraphExpansionError(LatschedError):
    """Covariance-graph expansion failed to terminate within the node budget."""


class InfeasibleCertificateError(LatschedError):
    """A bound was requested from a certificate that fails the feasibility check."""


class ConfigError(LatschedError):
    """Scenario configuration is malformed; message names the offending path."""


class SourceExhausted(LatschedError):
    """A measurement source has no more data; loops terminate cleanly on this."""
