"""Exception hierarchy shared across the package."""


class VarfracError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(VarfracError):
    """Configuration is malformed (bad keys, missing fields, wrong types)."""


class SchemaMismatch(ConfigError):
    """Result files or configs do not share a compatible schema."""


class OrderBoundViolation(VarfracError):
    """Order-field bounds are inconsistent (product with the base index >= 1,
    or sampled values escape the declared range)."""


class NonPositiveBound(VarfracError):
    """A declared lower bound that must be strictly positive is not."""


class DimensionUnsupported(VarfracError):
    """A model's spatial dimension is not the one supported (dim must be 1)."""


class BoundViolation(VarfracError):
    """A sampled coefficient field escapes its declared range."""


class InvalidTailMass(VarfracError):
    """A tail threshold makes the power tail carry more than unit mass, or
    forces the head density above 1."""


class QuadratureFailure(VarfracError):
    """Adaptive quadrature did not reach the requested accuracy."""


class StepBudgetExceeded(VarfracError):
    """A trajectory exceeded the configured step cap before reaching its
    horizon."""


class SingularityResolutionError(VarfracError):
    """The time grid does not resolve the integrable singularity at the
    horizon."""


class LatticeOverflow(VarfracError):
    """The exhaustive chain recursion would exceed its memory bounds."""


class LinearSolveFailure(VarfracError):
    """The implicit step produced a singular or non-finite linear system."""


class InversionFailure(VarfracError):
    """Numerical transform inversion did not converge."""


class AccuracyLoss(VarfracError):
    """Requested evaluation lies outside the validated accuracy envelope."""


class NonFiniteFunctional(VarfracError):
    """A Monte Carlo functional evaluated to NaN or infinity on some
    trajectory, or a result row's value or uncertainty is not finite."""
