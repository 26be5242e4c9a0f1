"""Exception hierarchy for the lab.

Configuration / domain problems map to CLI exit code 2, numerical
breakdowns (lost precision, degenerate brackets, non-convergence) to
exit code 3.
"""


class LabError(Exception):
    """Base class for all lab-specific errors."""


class DomainError(LabError):
    """Arguments violate a documented invariant (bad alpha, t, x, ...)."""


class ConfigError(LabError):
    """Malformed configuration source or unknown key."""


class NumericalError(LabError):
    """Base class for runtime numerical breakdowns (exit code 3)."""


class NonConvergence(NumericalError):
    """Quadrature, iteration or a Newton solve stopped before its tolerance."""


class PrecisionExhausted(NumericalError):
    """Computed quantity lost all significance (e.g. a squared norm <= 0)."""


class DegenerateInput(DomainError):
    """Evaluation point too close to a removable singularity."""


class SingularAux(NumericalError):
    """An auxiliary quantity in a denominator is numerically zero."""


class DegenerateBracket(NumericalError):
    """The linear-solve bracket of a difference step is numerically zero."""


class StencilOutOfDomain(DomainError):
    """A finite-difference node leaves the admissible parameter region."""


class NegativeDiscriminant(NumericalError):
    """Discriminant below the negative noise threshold during reconstruction."""


class BranchAmbiguity(NumericalError):
    """Square-root branch cannot be resolved within finite-difference noise."""


class NonPhysical(NumericalError):
    """Solver converged to a physically invalid configuration."""


class OutOfSupport(DomainError):
    """Density evaluation point outside the support interval."""


class NoPositiveRoot(NumericalError):
    """A root that must be positive came out non-positive."""


class RootSelectionAmbiguous(NumericalError):
    """A root cannot be told apart from its neighbours (a zero derivative)."""
