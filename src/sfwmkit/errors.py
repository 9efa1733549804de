"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input lies outside the validity window of a model or sampled grid."""


class ModeCutoffError(RuntimeError):
    """A mode solver (LP01, HE11 or FSM) found no root in its analytic bracket."""


class ConfigError(ValueError):
    """Inconsistent or malformed configuration."""


class GridError(ValueError):
    """Spectral grid does not overlap the region it is meant to sample."""


class NoPhasematchError(RuntimeError):
    """No nondegenerate phasematched point exists in the search window."""


class NoGroupVelocityMatchError(RuntimeError):
    """No group-velocity-matched pump wavelength in the search range."""


class FitError(RuntimeError):
    """A fitting routine failed to converge."""
