"""Exception hierarchy shared by all modules."""


class PertwaveError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(PertwaveError):
    pass


class SingularPoint(PertwaveError):
    """Evaluation attempted on the singular set 1 + x.x = 0."""


class NotAWavePolynomial(PertwaveError):
    pass


class UnsupportedDim(PertwaveError):
    pass


class DivergentIntegral(PertwaveError):
    pass


class NonTerminatingSeries(PertwaveError):
    pass


class HypergeomPole(PertwaveError):
    """Lower parameter c hits a pole before the series terminates."""


class DomainError(PertwaveError):
    pass


class ToleranceNotMet(PertwaveError):
    pass


class SingularRegion(PertwaveError):
    pass


class KernelPole(PertwaveError):
    """Cauchy-kernel denominator 1 - a^2 + w^2 vanishes inside the integration interval."""


class CFLViolation(PertwaveError):
    pass


class GridTooSmall(PertwaveError):
    pass


class FormatError(PertwaveError):
    """Malformed input document or CSV."""
