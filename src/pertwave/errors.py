"""Exception hierarchy shared by all modules: one class per CLI exit code.

Each class carries the exit_code and kind that cli.main reports it with:
FormatError 3 (parse), DomainError 4 (domain), ToleranceNotMet 5 (tolerance).
float_guard is the one place where float trouble becomes a DomainError.
"""

import functools

import numpy as np


class PertwaveError(Exception):
    """Base class for every error raised by this package."""

    exit_code, kind = 4, "domain"


class FormatError(PertwaveError):
    """Malformed input document or CSV."""

    exit_code, kind = 3, "parse"


class DomainError(PertwaveError):
    """Input outside the domain of the solutions: a singular point or region, a kernel
    pole, a dimension or degree without a solution, a non-terminating series."""


class ToleranceNotMet(PertwaveError):
    """A numerical result could not meet its requested tolerance."""

    exit_code, kind = 5, "tolerance"


def float_guard(what):
    """Decorator: a float overflow or invalid operation (inf - inf, 0 * inf) in a call is
    a DomainError naming `what`, not a warning, and so is an OverflowError (an int or
    Fraction too large for a float, as c / den and float(q) raise it)."""
    def decorate(fn):
        @functools.wraps(fn)
        def guarded(*args, **kwargs):
            with np.errstate(over="raise", invalid="raise"):
                try:
                    return fn(*args, **kwargs)
                except (FloatingPointError, OverflowError) as err:
                    raise DomainError(f"{what}: {err}") from None

        return guarded

    return decorate
