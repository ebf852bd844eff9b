"""Homogeneous polynomial solutions of the free wave equation.

wave_basis(n, k) returns an exact basis of the kernel of the D'Alembertian
restricted to homogeneous degree-k polynomials, in closed form.  A wave
polynomial is fixed by its part of t-degree <= 1 (the Cauchy problem for
box(y) = 0 at t = 0), so each degree-k monomial t^e0 x^alpha with e0 <= 1
gives one element, its Cauchy-Kovalevskaya series (Polynomial.wave).
Everything is deterministic: monomials are ordered graded-lex (t most
significant) and elements are scaled to coprime integer coefficients with
positive leading coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .ring import Polynomial

MAX_DEGREE = 12
# Most monomials wave_basis(n, k) may enumerate, C(k + n - 1, n - 1), before it
# refuses: wave_basis(10, 10) (92 378) takes 2.3 s on a 2-vCPU Xeon VM.
MAX_MONOMIALS = 100_000


def monomials(dim, degree):
    """All exponent tuples of the given total degree, descending graded-lex.

    Stars and bars: the dim - 1 bar positions among degree + dim - 1 slots fix
    the exponents (the gaps between bars), and ascending bar positions give
    ascending exponents, so the reversed combinations come out descending.
    """
    if degree < 0:
        return []
    slots = degree + dim - 1
    return [tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))
            for bars in reversed(list(combinations(range(slots), dim - 1)))]


@dataclass(frozen=True)
class WaveBasis:
    dim: int
    degree: int
    elements: tuple


def wave_basis(n, k):
    """Exact basis of homogeneous degree-k solutions of box(y) = 0.

    One element per degree-k monomial of t-degree <= 1, in descending
    graded-lex order: the wave polynomial whose part of t-degree <= 1 is
    a multiple of that monomial.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {k}")
    if k > MAX_DEGREE:
        raise ValueError(f"degree {k} exceeds the supported cap {MAX_DEGREE}")
    if (count := comb(k + n - 1, n - 1)) > MAX_MONOMIALS:
        raise ValueError(f"dim {n}, degree {k} has {count} monomials, "
                         f"above the cap {MAX_MONOMIALS}")
    elements = tuple(Polynomial.wave(n, e) for e in monomials(n, k) if e[0] <= 1)
    return WaveBasis(dim=n, degree=k, elements=elements)


def is_wave_polynomial(p):
    """True iff the D'Alembertian of p is exactly zero."""
    return p.box().is_zero()
