"""Exception hierarchy shared by all modules: one class per CLI exit code.

cli.main maps FormatError to exit 3 (parse), DomainError to exit 4 (domain)
and ToleranceNotMet to exit 5 (tolerance).  A ValueError is a usage error,
exit 2.  The message of each error names its reason.
"""


class PertwaveError(Exception):
    """Base class for every error raised by this package."""


class FormatError(PertwaveError):
    """Malformed input document or CSV."""


class DomainError(PertwaveError):
    """Input outside the domain of the solutions: a singular point or region, a kernel
    pole, a dimension or degree without a solution, a non-terminating series."""


class ToleranceNotMet(PertwaveError):
    """A numerical result could not meet its requested tolerance."""
