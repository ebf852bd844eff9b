"""Inverse homogeneity operators (H+m)^-1 as ray integrals; coefficient recovery.

H = x . grad is the Euler operator, and (H+k+1)^-1 f at x is the ray integral
int_0^1 v^k f(vx) dv.  recover_n2 / recover_n4 invert phi = sum_r P_r rho^r
pointwise for n = 2, 4, with rho = 1/(1 + x.x), sampling phi only along the
ray from the origin to x: the construction is polynomial in H, so each P_r
below the top is phi(x) [r = 0] plus one ray integral of phi times a kernel
in v, rho and s = x.x, and P_{n/2} follows by back-substitution.  Each
recovery or h_shift_inverse first checks that the whole ray keeps the margin
1 + x.x (ring.margin) at or above DEFAULT_DELTA, else DomainError.
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
    keeps 1 + (sx).(sx) >= DEFAULT_DELTA; h_shift_inverse and the recoveries
    reject any other x with DomainError before sampling.  ``expr`` optionally
    records the exact ring element behind the samples; nothing in this module
    reads it, so recovery is the same with or without it.
    """

    dim: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    expr: Optional[RhoExpr] = field(default=None, compare=False)

    @classmethod
    def from_rho_expr(cls, expr):
        return cls(dim=expr.dim, evaluate=expr.eval_points, expr=expr)


def _check_ray(x):
    """1 + x.x, once the whole ray segment {sx : s in [0,1]} is in the domain and x finite."""
    # 1 + s^2 (x.x) is monotone in s: its minimum is at s = 0 or s = 1
    rho_inv = margin(np.reshape(x, (1, -1)))[0]
    if not (min(rho_inv, 1.0) >= DEFAULT_DELTA and np.isfinite(x).all()):
        raise DomainError(
            f"ray to {tuple(map(float, x))} leaves the domain margin delta={DEFAULT_DELTA}")
    return rho_inv


def _ray_integral(f, x, s, kernel, q):
    """int_0^1 kernel(v, rho, s) f(vx) dv on a checked ray, rho its value at vx and s = x.x."""
    def integrand(v):
        pts = v[:, None] * x[None, :]
        return kernel(v, 1.0 / margin(pts), s) * f.evaluate(pts)

    return adaptive_gauss(integrand, 0.0, 1.0, q)


def h_shift_inverse(f, k, x, q=QuadratureSpec()):
    """(H + k + 1)^-1 f at x, as the adaptive ray integral int_0^1 v^k f(vx) dv."""
    if k < 0:
        raise ValueError(f"shift k must be non-negative, got {k}")
    s = _check_ray(x) - 1.0
    return _ray_integral(f, np.asarray(x, dtype=float), s, lambda v, rho, s: v ** k, q)


def _recover(phi, x, q, kernels):
    """(P_0, ..., P_{n/2}) at x for n = 2 len(kernels), from phi = sum_r P_r rho^r.

    P_r = [r = 0] phi(x) + int_0^1 kernels[r](v, rho, s) phi(vx) dv for r < n/2, and
    P_{n/2} = rho^-1 (... (rho^-1 (phi - P_0) - P_1) ... - P_{n/2-1}) at x.
    """
    n = 2 * len(kernels)
    if phi.dim != n:
        raise DomainError(f"recover_n{n} needs a dim-{n} field, got dim {phi.dim}")
    base = np.asarray(x, dtype=float)
    rho_inv = _check_ray(base)
    top = float(phi.evaluate(base[None, :])[0])
    coeffs = [_ray_integral(phi, base, rho_inv - 1.0, kernel, q) for kernel in kernels]
    coeffs[0] += top
    for p in coeffs:
        top = (top - p) * rho_inv
    return (*coeffs, top)


def recover_n2(phi, x, q=QuadratureSpec()):
    """Pointwise (P0, P1) from a solution field for n = 2.

    P0 = phi + (H+1)^-1(-2 rho phi), so its kernel is -2 rho; P1 = rho^-1 (phi - P0).
    """
    return _recover(phi, x, q, (lambda v, rho, s: -2.0 * rho,))


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
    (H+2)^-1 (H+3)^-1 = (H+2)^-1 - (H+3)^-1.  With each (H+k+1)^-1 the weight
    v^k, and s v^2 = rho^-1 - 1 on the ray (so 2 s C cancels B's -2 rho^-1 - 4),
    P0 = phi + int_0^1 K0 phi dv and P1 = int_0^1 K1 phi dv with kernels
        K0 = -6 v rho (1 - 2 rho) - 12 v^2 rho^2
        K1 = 6 (3 + s) v rho (1 - 2 rho) + 24 v^2 rho^2
    """
    return _recover(phi, x, q, (
        lambda v, rho, s: -6.0 * v * rho * (1.0 - 2.0 * rho) - 12.0 * v * v * rho * rho,
        lambda v, rho, s: 6.0 * (3.0 + s) * v * rho * (1.0 - 2.0 * rho) + 24.0 * v * v * rho * rho))
