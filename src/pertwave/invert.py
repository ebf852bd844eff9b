"""Inverse homogeneity operators (H+m)^-1 as ray integrals; coefficient recovery.

H = x . grad is the Euler operator, and (H+k+1)^-1 f at x is the ray integral
int_0^1 v^k f(vx) dv.  recover(phi, points, q) inverts phi = sum_r P_r rho^r, rho =
1/(1 + x.x), at each row x of an (m, n) points array whose rays keep 1 + x.x >=
DEFAULT_DELTA (ring.check_margin), with one adaptive_gauss batch whose row block r
holds the rays of kernel r of KERNELS[n]; its evaluate calls take phi at the rows x
too, as a field's evaluate treats each row on its own (one point a row).  recover_n2,
recover_n4 and h_shift_inverse run the same code on the one-row array x[None].  A float
overflow or invalid operation on the way is a DomainError (errors.float_guard).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, float_guard
from .quadrature import QuadratureSpec, adaptive_gauss
from .ring import RhoExpr, check_margin, margin

# Ray-inversion guard: every point of the ray from the origin to x keeps
# 1 + x.x >= DEFAULT_DELTA, so rho <= 1/DEFAULT_DELTA = 4 along it and the
# rho-weighted integrands of the recovery formulas stay bounded.
DEFAULT_DELTA = 0.25

# The kernels K_r(v, rho, s) of P_r, r < n/2, for each n that has them; rho is
# its value at vx inside the ray integral and s = x.x at the target point.
# n = 2: P0 = phi + (H+1)^-1 (-2 rho phi).  n = 4: P0 = phi + A - 12 J and
# P1 = B + 24 J + 2 s C, with
#     A = (H+2)^-1 [(12 rho^2 - 6 rho) phi]      J = (H+3)^-1 [rho^2 phi]
#     B = (H+2)^-1 [((12 + 6s) rho - (24 + 12s) rho^2 - 2 rho^-1 - 4) phi]
#     C = (H+4)^-1 [(1 + 3 rho + 6 rho^2) phi]
# These follow from rho (H+c) g = (H+c+2)(rho g) - 2 rho^2 g,
# rho^-1 (H+c) g = (H+c-2)(rho^-1 g) + 2 g and (H+2)^-1 (s g) = s (H+4)^-1 g,
# with products of resolvents split by partial fractions, e.g.
# (H+2)^-1 (H+3)^-1 = (H+2)^-1 - (H+3)^-1.  Each (H+k+1)^-1 is the weight v^k,
# and s v^2 = rho^-1 - 1 on the ray (so 2 s C cancels B's -2 rho^-1 - 4).
KERNELS = {
    2: (lambda v, rho, s: -2.0 * rho,),
    4: (lambda v, rho, s: -6.0 * v * rho * (1.0 - 2.0 * rho) - 12.0 * v * v * rho * rho,
        lambda v, rho, s: 6.0 * (3.0 + s) * v * rho * (1.0 - 2.0 * rho) + 24.0 * v * v * rho * rho),
}


@dataclass(frozen=True)
class RayField:
    """Scalar field sampled along rays from the origin.

    ``evaluate`` maps an (m, dim) array of points to an (m,) array, treating each row on
    its own (one point a row), and must be re-entrant.  A target x is admissible when its
    whole ray {sx : s in [0, 1]} keeps 1 + (sx).(sx) >= DEFAULT_DELTA; h_shift_inverse
    and the recoveries reject any other x with DomainError before sampling.  ``expr``
    optionally records the exact ring element behind the samples; nothing in this module
    reads it, so recovery is the same with or without it.
    """

    dim: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    expr: Optional[RhoExpr] = field(default=None, compare=False)

    @classmethod
    def from_rho_expr(cls, expr):
        return cls(dim=expr.dim, evaluate=expr.eval_points, expr=expr)


def _check_rays(f, points):
    """(points, 1 + x.x per row), once points is (m, f.dim) and every ray is admissible."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != f.dim:
        raise DomainError(f"points of shape {points.shape}, expected (m, {f.dim})")
    # 1 + s^2 x.x is monotone in s, so its minimum on a ray is 1 or rho_inv (finite iff x.x is)
    return points, check_margin(points, DEFAULT_DELTA, lambda x: f"ray to {tuple(map(float, x))}")


def _ray_integrals(f, points, s, kernels, q):
    """The (len(kernels), m) array of int_0^1 K(v, rho, s) f(vx) dv, rho its value at vx,
    for each K of kernels and each checked row x of the (m, dim) points, and the (m,) f(x).

    One adaptive_gauss batch whose row block j holds kernel j's rays; each row keeps
    its own panels, so every value is that of one call per kernel, bit for bit.
    """
    m, rays = len(points), points.T[:, None, :, None]
    targets = np.empty(m)  # f(x), evaluated with vx in every integrand call (none if m = 0)

    def integrand(v):
        # the coordinate columns of vx, block by block, then of x (contiguous: faster to evaluate)
        cols = np.hstack([(rays * v.reshape(len(kernels), m, -1)).reshape(len(rays), -1), points.T])
        values = f.evaluate(cols.T)
        targets[:], values = values[v.size:], values[:v.size].reshape(v.shape)
        out = 1.0 / margin(cols.T[:v.size]).reshape(v.shape)  # rho, overwritten block by block
        for j, K in enumerate(kernels):
            block = slice(j * m, (j + 1) * m)
            np.multiply(K(v[block], out[block], s), values[block], out=out[block])
        return out

    lo = np.zeros(len(kernels) * m)
    return adaptive_gauss(integrand, lo, lo + 1.0, q).reshape(len(kernels), m), targets


@float_guard("ray recovery")
def h_shift_inverse(f, k, x, q=QuadratureSpec()):
    """(H + k + 1)^-1 f at x, as the adaptive ray integral int_0^1 v^k f(vx) dv."""
    if k < 0:
        raise ValueError(f"shift k must be non-negative, got {k}")
    points, _ = _check_rays(f, np.asarray(x, dtype=float)[None])
    return float(_ray_integrals(f, points, None, (lambda v, rho, s: v ** k,), q)[0][0, 0])


@float_guard("ray recovery")
def _recover(phi, points, q, n):
    """The (m, n/2 + 1) array of P_0, ..., P_{n/2} at the rows x of the (m, n) points:
    P_r = [r = 0] phi + int_0^1 K_r(v, rho, s) phi(vx) dv for r < n/2, K_r of KERNELS[n],
    and P_{n/2} = rho^-1 (... (rho^-1 (phi - P_0) - P_1) ... - P_{n/2-1})."""
    if phi.dim != n or n not in KERNELS:
        raise DomainError(f"no KERNELS[{n}] for a dim-{phi.dim} field; KERNELS has {list(KERNELS)}")
    points, rho_inv = _check_rays(phi, points)
    integrals, top = _ray_integrals(phi, points, rho_inv[:, None] - 1.0, KERNELS[n], q)
    coeffs = [integrals[0] + top, *integrals[1:]]
    for p in coeffs:
        top = (top - p) * rho_inv
    return np.column_stack(coeffs + [top])


def recover(phi, points, q=QuadratureSpec()):
    """The (m, n/2 + 1) array of P_0, ..., P_{n/2} at the rows of the (m, n = phi.dim) points."""
    return _recover(phi, points, q, phi.dim)


def recover_n2(phi, x, q=QuadratureSpec()):
    """Pointwise (P0, P1) from a solution field for n = 2."""
    return tuple(map(float, _recover(phi, np.asarray(x, dtype=float)[None], q, 2)[0]))


def recover_n4(phi, x, q=QuadratureSpec()):
    """Pointwise (P0, P1, P2) from a solution field for n = 4."""
    return tuple(map(float, _recover(phi, np.asarray(x, dtype=float)[None], q, 4)[0]))
