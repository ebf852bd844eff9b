"""Homogeneous polynomial solutions of the free wave equation.

wave_basis(n, k) returns an exact basis of the kernel of the D'Alembertian
restricted to homogeneous degree-k polynomials, in closed form.  A wave
polynomial is fixed by its part of t-degree <= 1 (the Cauchy problem for
box(y) = 0 at t = 0), so each degree-k monomial t^e0 x^alpha with e0 <= 1
gives one element,

    P = sum_j t^(e0+2j) e0!/(e0+2j)! Lap^j x^alpha,

with Lap the spatial Laplacian.  Everything is deterministic: monomials are
ordered graded-lex (t most significant) and elements are scaled to coprime
integer coefficients with positive leading coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import factorial, gcd

from .errors import DomainError
from .ring import Polynomial, box_monomial

MAX_DEGREE = 12


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


def _seed(n, exps):
    """The wave polynomial whose part of t-degree <= 1 is a multiple of t^e0 x^alpha = exps.

    It is the Cauchy-Kovalevskaya series (e0 <= 1)
    P = sum_j t^(e0+2j) e0!/(e0+2j)! Lap^j x^alpha,
    scaled by (e0+2J)!/e0! (J the last nonzero j) to integer coefficients and
    then by their gcd.  Lap^j x^alpha has positive coefficients, so every
    coefficient of P is positive, the graded-lex-largest one included.
    """
    e0 = exps[0]
    layers = [{(0,) + exps[1:]: 1}]  # Lap^j x^alpha on t-free exponents
    while True:
        lap = {}
        for e, c in layers[-1].items():
            for e2, f in box_monomial(e):
                lap[e2] = lap.get(e2, 0) + c * f
        if not lap:
            break
        layers.append(lap)
    top = factorial(e0 + 2 * (len(layers) - 1))
    # Term order is the order every evaluation sums in: the t-degree <= 1
    # monomial first, then the rest descending graded-lex.
    terms = {(e0 + 2 * j,) + e[1:]: top // factorial(e0 + 2 * j) * c
             for j in [0, *range(len(layers) - 1, 0, -1)]
             for e, c in sorted(layers[j].items(), reverse=True)}
    g = gcd(*terms.values())
    return Polynomial(n, {e: c // g for e, c in terms.items()}, _trusted=True)


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
        raise DomainError(f"dimension must be >= 2, got {n}")
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {k}")
    if k > MAX_DEGREE:
        raise ValueError(f"degree {k} exceeds the supported cap {MAX_DEGREE}")
    elements = tuple(_seed(n, e) for e in monomials(n, k) if e[0] <= 1)
    return WaveBasis(dim=n, degree=k, elements=elements)


def is_wave_polynomial(p):
    """True iff the D'Alembertian of p is exactly zero."""
    return p.box().is_zero()
