"""Exception hierarchy for the phase integral toolkit.

Every error raised by the library derives from :class:`PhaseIntegralError`,
so callers (notably the CLI) can distinguish our failures from genuine bugs.
"""


class PhaseIntegralError(Exception):
    """Base class for all library errors."""


# --- jet arithmetic ---------------------------------------------------------

class MismatchedJets(PhaseIntegralError):
    """Arithmetic between jets with different centers or orders."""


class DivisionByZeroLeadCoefficient(PhaseIntegralError):
    """Jet division where the divisor's leading coefficient is (near) zero."""


class BranchPointEvaluation(PhaseIntegralError):
    """ln/sqrt/pow of a jet whose value sits on a branch point."""


class OrderExceeded(PhaseIntegralError):
    """Derivative order requested beyond the jet's truncation order."""


class InsufficientJetOrder(PhaseIntegralError):
    """A recurrence needs more surviving derivatives than the jet carries."""


# --- expressions ------------------------------------------------------------

class ExpressionSyntaxError(PhaseIntegralError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None
                         else f"{message} (at position {position})")
        self.position = position


class UnknownFunction(PhaseIntegralError):
    """Function name outside the supported grammar."""


class UnboundParameter(PhaseIntegralError):
    """Expression references a parameter missing from the evaluation context."""


class EvaluationSingularity(PhaseIntegralError):
    """Expression evaluated at a pole or branch point."""


# --- problem reduction ------------------------------------------------------

class SingularCoefficient(PhaseIntegralError):
    """First-derivative coefficient has a pole inside the open domain."""


# --- spectral ---------------------------------------------------------------

class CrossingPoint(PhaseIntegralError):
    """Evaluation inside the guard radius of an eigenvalue crossing."""


class DegenerateParameterization(PhaseIntegralError):
    """Both off-diagonal entries vanish; the closed-form eigenvector fails."""


class BranchSwapDetected(PhaseIntegralError):
    """Nearest-value branch assignment became ambiguous along the grid."""


class DegenerateComplexGauge(PhaseIntegralError):
    """Kato gauge requested for a complex degenerate eigenvalue (unsupported)."""


class GramSchmidtBreakdown(PhaseIntegralError):
    """Complement basis construction hit near-collinear vectors."""


class ZeroAtEvaluationPoint(PhaseIntegralError):
    """q**2 vanishes where a nonzero value is required."""


class TurningPoint(PhaseIntegralError):
    """Q**2 vanishes at the evaluation point."""


class TurningPointOnGrid(PhaseIntegralError):
    """A wave grid contains (or brackets) a turning point."""


# --- correction engine ------------------------------------------------------

class GaugeNotFixed(PhaseIntegralError):
    """Current/Wronskian-conserving theory invoked without the Kato gauge."""


class UnsupportedDegeneracy(PhaseIntegralError):
    """Degenerate eigenvalue outside the supported (real hermitian) cases."""


class CompatibilityViolation(PhaseIntegralError):
    """Order-(m+1) compatibility residual exceeded its tolerance."""


class NonPositiveYWarning(UserWarning):
    """Re Y drops below zero somewhere on the grid (conservation caveat)."""


class ApplicabilityWarning(UserWarning):
    """A correction multiplier exceeds unity; the expansion is suspect."""


# --- quadrature and verification --------------------------------------------

class QuadratureFailure(PhaseIntegralError):
    """Adaptive quadrature could not reach the requested tolerance."""


class GridMismatch(PhaseIntegralError):
    """Two wave sample arrays do not share a grid."""


class StepSizeUnderflow(PhaseIntegralError):
    """Reference integrator step collapsed (singularity on the path)."""


class ModelSingularity(PhaseIntegralError):
    """Singularity-model evaluation at an invalid point."""


# --- CLI --------------------------------------------------------------------

class InputError(PhaseIntegralError):
    """A command line argument or problem source is missing or malformed."""


class InvalidInput(InputError, ValueError):
    """A problem or argument value outside its documented range (also a
    ValueError, as these checks raised before)."""


class UnknownExample(InputError):
    """Requested builtin example does not exist."""
