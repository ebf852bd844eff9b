"""Exact solutions of box(phi) + n(n+2) rho^2 phi = 0 for even n.

The authoritative constructor is the downward recursion

    P_r = 2(r+1) [2H + (n - 2r - 4)] P_{r+1} / ((n - 2r)(n + 2r + 2))

seeded with a wave polynomial P_{n/2}; phi = sum_r P_r rho^r.  The integral
representation enters only through its Beta-coefficient consequence for
homogeneous seeds (beta_coefficients).  The separated radial ODE is checked
in hyp2f1: its terminating solution f_k = N(u) (1-u)^{-n/2} has a polynomial
numerator N built from a terminating 2F1, so the check is an exact identity
of dim-1 Polynomials once the powers of (1-u) are cleared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .basis import is_wave_polynomial
from .errors import DivergentIntegral, DomainError, NotAWavePolynomial, UnsupportedDim
from .ring import Polynomial, RhoExpr, normalize


def recursion_step(p_next, n, r):
    """One step P_r from P_{r+1} of the downward recursion (even n)."""
    if n % 2 or n < 2:
        raise UnsupportedDim(f"recursion defined for even n >= 2, got {n}")
    if not 0 <= r <= n // 2 - 1:
        raise IndexError(f"recursion index r={r} out of range for n={n}")
    factor = Fraction(2 * (r + 1), (n - 2 * r) * (n + 2 * r + 2))
    return p_next._h_affine(2, n - 2 * r - 4).scale(factor)


@dataclass(frozen=True)
class SolutionBundle:
    """phi = sum_r coefficients[r] * rho^r with every coefficient a wave polynomial.

    ``coefficients`` is ordered P_{n/2}, ..., P_0 (seed first).
    """

    dim: int
    seed: Polynomial
    coefficients: tuple
    phi: RhoExpr

    def coefficient(self, r):
        """P_r by rho power."""
        return self.coefficients[self.dim // 2 - r]


def build_phi(seed, n, check=True):
    """Build the exact solution bundle from the seed P_{n/2}.

    phi is one normalize of the pairs (r, P_r): their denominators are
    cleared once, into phi's denominator, and the reduction runs on ints.
    """
    if n % 2 or n < 2:
        raise UnsupportedDim(f"explicit solutions exist for even n >= 2, got {n}")
    if seed.dim != n:
        raise DomainError(f"seed has dim {seed.dim}, expected {n}")
    if check and not is_wave_polynomial(seed):
        raise NotAWavePolynomial(f"box(seed) != 0 for seed {seed}")
    coeffs = [seed]
    for r in range(n // 2 - 1, -1, -1):
        coeffs.append(recursion_step(coeffs[-1], n, r))
    phi = normalize(list(zip(range(n // 2, -1, -1), coeffs)), n)
    bundle = SolutionBundle(dim=n, seed=seed, coefficients=tuple(coeffs), phi=phi)
    if check:
        for p in coeffs[1:]:
            if not is_wave_polynomial(p):
                raise NotAWavePolynomial(f"recursion produced box(P) != 0: {p}")
        if not residual(phi, n).is_zero():
            raise DomainError("constructed phi does not solve the equation")
    return bundle


def residual(phi, n):
    """Normal form of box(phi) + n(n+2) rho^2 phi; zero iff phi solves the PDE.

    Both terms are taken on phi's int layers, as unreduced pairs (the raw
    pairs of box, and each layer times n(n+2) two rho powers up), and
    reduced by one normalize over phi's denominator.
    """
    shifted = [(s + 2, p.scale(n * (n + 2))) for s, p in phi.num.items()]
    return normalize(phi._box_raw() + shifted, phi.dim, phi.den)


def psi0_residual(n):
    """box(rho^{(n-2)/2}) + n(n-2) rho^{(n+2)/2}, exactly, for even n >= 4."""
    if n % 2 or n < 4:
        raise UnsupportedDim(
            f"psi0 = rho^{{(n-2)/2}} is a ring element only for even n >= 4, got {n}")
    r = (n - 2) // 2
    return RhoExpr.rho(n, r).box() + RhoExpr.rho(n, (n + 2) // 2).scale(n * (n - 2))


def check_n2_background(k, a_param, points):
    """Max residual of box(chi0) + 8(k/a) e^{a chi0} at the given (t, x) points.

    chi0 = (-2/a) log(k + x.x) with x.x = -t^2 + x^2; the second derivatives
    of the logarithm are taken in closed form, so this is an analytic oracle
    rather than a ring computation (log is not a ring element).
    """
    if k <= 0:
        raise DomainError(f"k must be positive, got {k}")
    if a_param == 0:
        raise DomainError("a must be nonzero")
    worst = 0.0
    for point in points:
        t, x = float(point[0]), float(point[1])
        s = k - t * t + x * x
        if s <= 0:
            raise DomainError(f"k + x.x = {s} <= 0 at point {point}")
        a = a_param
        d_tt = 4.0 / (a * s) + 8.0 * t * t / (a * s * s)
        d_xx = -4.0 / (a * s) + 8.0 * x * x / (a * s * s)
        chi = (-2.0 / a) * math.log(s)
        res = (-d_tt + d_xx) + 8.0 * (k / a) * math.exp(a * chi)
        worst = max(worst, abs(res))
    return worst


def _beta_int(p, q):
    """Beta function on positive integers: (p-1)!(q-1)!/(p+q-1)!."""
    return Fraction(math.factorial(p - 1) * math.factorial(q - 1),
                    math.factorial(p + q - 1))


def beta_coefficients(n, k):
    """Scalars c_{n/2}, ..., c_0 of the integral-representation solution.

    For a homogeneous wave-polynomial seed p of degree k the integral
    construction collapses to sum_r c_r p(x) rho^r with

        c_r = binom(n/2, r) * B(k + n/2 - 1 - r, n/2 + r + 1).

    Returned in descending r order (c_{n/2} first).  Requires k >= 2 so that
    the t ~ 0 endpoint of every Beta integral is integrable.
    """
    if n % 2 or n < 2:
        raise UnsupportedDim(f"even n >= 2 required, got {n}")
    half = n // 2
    out = []
    for r in range(half, -1, -1):
        p = k + half - 1 - r
        if p <= 0:
            raise DivergentIntegral(
                f"integral diverges at t=0 for n={n}, k={k}, r={r}")
        q = half + r + 1
        out.append(Fraction(math.comb(half, r)) * _beta_int(p, q))
    return out
