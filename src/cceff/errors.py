"""Exception types raised across the package.

Numeric and model failures derive from :class:`CCEffError` so callers can
catch the whole family with one clause; the CLI maps them to exit code 1.
Arguments outside their declared domain raise :class:`InvalidInput`, a
``ValueError``, which the CLI reports as a usage error with exit code 2.
"""

__all__ = [
    "CCEffError",
    "InfeasiblePrevalence",
    "BracketFailure",
    "ZeroCell",
    "ZeroMargin",
    "Separation",
    "NonConvergence",
    "InfeasibleStart",
    "BoundaryEstimate",
    "SingularInformation",
    "VacuousMinimizer",
    "AllReplicatesFailed",
    "InvalidInput",
]


class InvalidInput(ValueError):
    """A parameter, design or Monte Carlo setting lies outside its declared domain."""


class CCEffError(Exception):
    """Base class for all errors raised by this package."""


class InfeasiblePrevalence(CCEffError):
    """``limiting_values`` got a supplied prevalence outside (0, 1 - eps]."""


class BracketFailure(CCEffError):
    """Root bracketing for the intercept exceeded the allowed range."""


class ZeroCell(CCEffError):
    """A contingency table cell needed by a closed-form estimate is zero."""


class ZeroMargin(CCEffError):
    """A covariate or exposure stratum contains no observations."""


class Separation(CCEffError):
    """The likelihood is maximized at infinity (estimates diverged)."""


class NonConvergence(CCEffError):
    """An iterative fit failed to meet its convergence tolerance."""


class InfeasibleStart(CCEffError):
    """No valid starting point exists for the constrained fit."""


class BoundaryEstimate(CCEffError):
    """A constrained estimate ran into the boundary of the parameter space."""


class SingularInformation(CCEffError):
    """The information matrix is numerically singular."""


class VacuousMinimizer(CCEffError):
    """``bias_minimizer``: delta vanishes identically (beta = 0 or gamma = 0)."""


class AllReplicatesFailed(CCEffError):
    """Every Monte Carlo replicate raised; no estimates to aggregate."""
