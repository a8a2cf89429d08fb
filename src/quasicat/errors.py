"""Exception hierarchy. Everything raised on purpose derives from QuasicatError
so callers (and the CLI) can separate validity failures from genuine bugs."""


class QuasicatError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteInput(QuasicatError):
    """An input amplitude or parameter is NaN or infinite."""


class NonFiniteOutput(QuasicatError):
    """A result bound for summary.json is NaN or infinite, which strict JSON
    cannot hold."""


class DimTooSmall(QuasicatError):
    """Truncation dimension cannot hold the requested state within leak_tol."""


class ParameterOutOfRange(QuasicatError):
    """Parameter outside the documented validity range (e.g. squeeze cap)."""


class NonPositiveInput(QuasicatError):
    """Quantity that must be strictly positive is not."""


class BothCouplingsZero(QuasicatError):
    """Mode rotation undefined when g1 = g2 = 0."""


class BasisMismatch(QuasicatError):
    """State or amplitude pair tagged with the wrong basis for this operation."""


class DimensionMismatch(QuasicatError):
    """Array shapes do not agree with the declared dimensions."""


class NonUnitPhase(QuasicatError):
    """Scalar expected on the unit circle is not."""


class ZeroDetuning(QuasicatError):
    """Detuning of zero where a dispersive expression divides by it."""


class DetuningTooSmall(QuasicatError):
    """Detuning-to-coupling ratio too small for the effective model."""


class NormViolation(QuasicatError):
    """State vector or amplitude pair is not normalized."""


class DegenerateCat(QuasicatError):
    """Cat superposition collapsed onto a single ray (norm below threshold)."""


class BadSubsystem(QuasicatError):
    """Unknown or unavailable subsystem label."""


class GridTooSmall(QuasicatError):
    """Phase-space grid does not cover the state support."""


class ConfigInvalid(QuasicatError):
    """Malformed or inconsistent scenario configuration."""


class DetuningRatioWarning(UserWarning):
    """Dispersive ratio between 5 and 10: effective model marginal."""
