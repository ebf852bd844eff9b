"""Terminating Gauss hypergeometric series and the separated radial ODE check.

For even n = 2h the separated radial equation

    4u f'' - (2n-8+4k) f' - n(n+2)/(1-u)^2 f = 0

has the terminating solution f_k(u) = N(u) (1-u)^{-h} with the numerator

    N(u) = (-u)^h F[-h, k-1, k+h, 1/u],

a polynomial of degree <= h.  Multiplying the equation by (1-u)^{h+2} makes
"f_k solves it" an identity of polynomials in u, which fk_ode_residual checks
exactly in ring.Polynomial(dim=1) (u is coordinate 0).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .ring import Polynomial


def _nonpos_int(v):
    return v.denominator == 1 and v <= 0


def hyp2f1_terminating(a, b, c):
    """F[a, b, c, z] as an exact dim-1 Polynomial in z, for rationals a, b, c.

    Requires a or b to be a non-positive integer so the series terminates;
    raises DomainError if c hits a pole before the truncation order.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    stops = [int(-v) for v in (a, b) if _nonpos_int(v)]
    if not stops:
        raise DomainError(f"no upper parameter of F[{a},{b},{c},z] is a non-positive integer")
    m = min(stops)
    coeffs = {}
    term = Fraction(1)
    for j in range(m + 1):
        coeffs[(j,)] = term
        if j == m:
            break
        if c + j == 0:
            raise DomainError(f"lower parameter c={c} hits a pole at series index {j + 1}")
        term = term * (a + j) * (b + j) / ((c + j) * (j + 1))
    return Polynomial(1, coeffs)


def radial_numerator(n, k):
    """N(u) = (-u)^{n/2} F[-n/2, k-1, k+n/2, 1/u] as a dim-1 Polynomial in u."""
    if n % 2 or n < 2:
        raise DomainError(f"even n >= 2 required, got {n}")
    half = n // 2
    series = hyp2f1_terminating(-half, k - 1, k + half)
    # series is a polynomial in w = 1/u of degree <= n/2; multiplying by
    # (-u)^{n/2} sends w^j to (-1)^{n/2} u^{n/2-j}
    sign = (-1) ** half
    return Polynomial(1, {(half - j,): sign * c for (j,), c in series.terms.items()})


def fk_ode_residual(n, k):
    """(1-u)^{h+2} [4u f'' - (2n-8+4k) f' - n(n+2)(1-u)^{-2} f] for f = f_k, h = n/2.

    With f = N (1-u)^{-h} the product rule gives

        4u [N''(1-u)^2 + 2h N'(1-u) + h(h+1) N]
          - (2n-8+4k) [N'(1-u)^2 + h N (1-u)] - n(n+2) N,

    a dim-1 Polynomial that is zero iff f_k solves the separated radial equation.
    """
    num = radial_numerator(n, k)
    h = n // 2
    u = Polynomial.coordinate(1, 0)
    w = Polynomial.constant(1, 1) - u
    w2 = w * w
    d1 = num.diff(0)
    d2 = d1.diff(0)
    return (4 * u * (d2 * w2 + 2 * h * d1 * w + h * (h + 1) * num)
            - (2 * n - 8 + 4 * k) * (d1 * w2 + h * num * w)
            - n * (n + 2) * num)
