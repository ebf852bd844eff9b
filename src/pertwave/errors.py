"""Exception hierarchy shared by all modules: one class per CLI exit code.

cli.main maps FormatError to exit 3 (parse), DomainError to exit 4 (domain)
and ToleranceNotMet to exit 5 (tolerance).  A ValueError is a usage error,
exit 2.  The message of each error names its reason.  float_guard turns a
float overflow or invalid operation into a DomainError.
"""

import functools

import numpy as np


class PertwaveError(Exception):
    """Base class for every error raised by this package."""


class FormatError(PertwaveError):
    """Malformed input document or CSV."""


class DomainError(PertwaveError):
    """Input outside the domain of the solutions: a singular point or region, a kernel
    pole, a dimension or degree without a solution, a non-terminating series."""


class ToleranceNotMet(PertwaveError):
    """A numerical result could not meet its requested tolerance."""


def float_guard(what):
    """Decorator: run each call under np.errstate(over="raise", invalid="raise"), so that a
    float overflow or an invalid operation (inf - inf, 0 * inf) is a DomainError naming
    `what`, not a warning."""
    def decorate(fn):
        @functools.wraps(fn)
        def guarded(*args, **kwargs):
            with np.errstate(over="raise", invalid="raise"):
                try:
                    return fn(*args, **kwargs)
                except FloatingPointError as err:
                    raise DomainError(f"{what}: {err}") from None

        return guarded

    return decorate
