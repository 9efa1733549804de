"""Exception types shared across the package.

Every type derives from SfwmkitError, so a caller can tell the package's
errors (bad input, no solution) apart from program bugs.
"""


class SfwmkitError(Exception):
    """Base of the package's exception types."""


class DomainError(SfwmkitError, ValueError):
    """Input lies outside the validity window of a model or sampled grid."""


class ModeCutoffError(SfwmkitError, RuntimeError):
    """A mode solver (LP01, HE11 or FSM) found no root in its analytic bracket."""


class ConfigError(SfwmkitError, ValueError):
    """Inconsistent or malformed configuration."""


class GridError(SfwmkitError, ValueError):
    """Spectral grid does not overlap the region it is meant to sample."""


class NoPhasematchError(SfwmkitError, RuntimeError):
    """No nondegenerate phasematched point exists in the search window."""


class NoGroupVelocityMatchError(SfwmkitError, RuntimeError):
    """No group-velocity-matched pump wavelength in the search range."""


class FitError(SfwmkitError, RuntimeError):
    """A fitting routine failed to converge."""
