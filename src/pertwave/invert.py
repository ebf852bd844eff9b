"""Inverse homogeneity operators (H+m)^-1 as ray integrals; coefficient recovery.

H = x . grad is the Euler operator, and (H+k+1)^-1 f at x is the ray integral
int_0^1 v^k f(vx) dv.  recover_n2 / recover_n4 invert phi = sum_r P_r rho^r
pointwise for n = 2, 4, with rho = 1/(1 + x.x).  Both only sample phi along
the ray from the origin to x: the operators of the construction are
polynomial in H, so each P_r is phi plus ray integrals of phi times a
polynomial in rho and rho^-1, all taken by one rho-weighted ray integral.
Every ray integral first checks that its whole ray keeps the singular-set
margin 1 + x.x (ring.margin) at or above DEFAULT_DELTA, else DomainError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .quadrature import QuadratureSpec, adaptive_gauss
from .ring import RhoExpr, margin

# Ray-inversion guard: every point of the ray from the origin to x keeps
# 1 + x.x >= DEFAULT_DELTA, so rho <= 1/DEFAULT_DELTA = 4 along it and the
# rho-weighted integrands of the recovery formulas stay bounded.
DEFAULT_DELTA = 0.25


@dataclass(frozen=True)
class RayField:
    """Scalar field sampled along rays from the origin.

    ``evaluate`` maps an (m, dim) array of points to an (m,) array and must be
    re-entrant.  A target x is admissible when its whole ray {sx : s in [0, 1]}
    keeps 1 + (sx).(sx) >= DEFAULT_DELTA; h_shift_inverse rejects any other x
    with DomainError before sampling.  ``expr`` optionally records the exact
    ring element behind the samples; nothing in this module reads it, so
    recovery is the same with or without it.
    """

    dim: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    expr: Optional[RhoExpr] = field(default=None, compare=False)

    @classmethod
    def from_rho_expr(cls, expr):
        return cls(dim=expr.dim, evaluate=expr.eval_points, expr=expr)


def _check_ray(x):
    """The whole ray segment {sx : s in [0,1]} must stay in the domain."""
    # 1 + s^2 (x.x) is monotone in s: its minimum is at s = 0 or s = 1
    worst = min(margin(np.reshape(x, (1, -1)))[0], 1.0)
    if worst < DEFAULT_DELTA:
        raise DomainError(
            f"ray to {tuple(map(float, x))} leaves the domain margin delta={DEFAULT_DELTA}")


def h_shift_inverse(f, k, x, q=QuadratureSpec()):
    """(H + k + 1)^-1 f at x, as the adaptive ray integral int_0^1 t^k f(tx) dt."""
    if k < 0:
        raise ValueError(f"shift k must be non-negative, got {k}")
    _check_ray(x)
    base = np.asarray(x, dtype=float)

    def integrand(tvals):
        pts = tvals[:, None] * base[None, :]
        return tvals ** k * f.evaluate(pts)

    return adaptive_gauss(integrand, 0.0, 1.0, q)


def _rho_ray_integral(phi, x, k, weight, q):
    """(H+k+1)^-1 [weight(rho) phi] at x, with rho = 1/(1 + x.x) at each ray point."""
    def evaluate(points):
        return weight(1.0 / margin(points)) * phi.evaluate(points)

    return h_shift_inverse(RayField(dim=phi.dim, evaluate=evaluate), k, x, q)


def recover_n2(phi, x, q=QuadratureSpec()):
    """Pointwise (P0, P1) from a solution field for n = 2.

    P0 = phi + (H+1)^-1(-2 rho phi); P1 = rho^-1 (H+1)^-1(2 rho phi), with
    rho^-1 applied as multiplication by 1 + x.x outside the integral.
    """
    if phi.dim != 2:
        raise DomainError(f"recover_n2 needs a dim-2 field, got dim {phi.dim}")
    base = np.asarray(x, dtype=float)
    shifted = _rho_ray_integral(phi, base, 0, lambda rho: 2.0 * rho, q)
    p0 = float(phi.evaluate(base[None, :])[0]) - shifted
    p1 = margin(base[None, :])[0] * shifted
    return p0, p1


def recover_n4(phi, x, q=QuadratureSpec()):
    """Pointwise (P0, P1, P2) from a solution field for n = 4.

    With s = x.x at the target point, and rho = 1/(1 + v^2 s) inside the ray
    integrals (the value of rho at vx):

        P0 = phi + A - 12 J
        P1 = B + 24 J + 2 s C
        P2 = rho^-2 (phi - P0) - rho^-1 P1   (phi = P0 + P1 rho + P2 rho^2)

        A = (H+2)^-1 [(12 rho^2 - 6 rho) phi]
        J = (H+3)^-1 [rho^2 phi]
        B = (H+2)^-1 [((12 + 6s) rho - (24 + 12s) rho^2 - 2 rho^-1 - 4) phi]
        C = (H+4)^-1 [(1 + 3 rho + 6 rho^2) phi]

    These follow from rho (H+c) g = (H+c+2)(rho g) - 2 rho^2 g,
    rho^-1 (H+c) g = (H+c-2)(rho^-1 g) + 2 g and (H+2)^-1 (s g) = s (H+4)^-1 g,
    with products of resolvents split by partial fractions, e.g.
    (H+2)^-1 (H+3)^-1 = (H+2)^-1 - (H+3)^-1.
    """
    if phi.dim != 4:
        raise DomainError(f"recover_n4 needs a dim-4 field, got dim {phi.dim}")
    base = np.asarray(x, dtype=float)
    rho_inv = margin(base[None, :])[0]
    s = rho_inv - 1.0  # x.x at the target point
    a = _rho_ray_integral(phi, base, 1, lambda rho: 12.0 * rho * rho - 6.0 * rho, q)
    j = _rho_ray_integral(phi, base, 2, lambda rho: rho * rho, q)
    b = _rho_ray_integral(phi, base, 1, lambda rho: ((12.0 + 6.0 * s) * rho
                                                     - (24.0 + 12.0 * s) * rho * rho
                                                     - 2.0 / rho - 4.0), q)
    c = _rho_ray_integral(phi, base, 3, lambda rho: 1.0 + 3.0 * rho + 6.0 * rho * rho, q)
    phi_val = float(phi.evaluate(base[None, :])[0])
    p0 = phi_val + a - 12.0 * j
    p1 = b + 24.0 * j + 2.0 * s * c
    p2 = rho_inv * rho_inv * (phi_val - p0) - rho_inv * p1
    return p0, p1, p2
