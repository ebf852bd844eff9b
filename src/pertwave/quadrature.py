"""Adaptive Gauss-Kronrod quadrature over a batch of intervals, as in QUADPACK's QAG: a
panel's value is its Kronrod estimate K, |K - G| its error estimate, G its Gauss estimate."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ToleranceNotMet

# kronrod_rule takes O(N^2) Python steps and an N x N eigenproblem, so the Gauss order is capped
MAX_ORDER = 1024
# bisections each interval may take before adaptive_gauss gives up
MAX_SUBDIVISIONS = 200


@dataclass(frozen=True)
class QuadratureSpec:
    order: int = 64
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not isinstance(self.order, numbers.Integral):
            raise ValueError(f"order must be an integer, got {self.order!r}")
        if not 2 <= self.order <= MAX_ORDER:
            raise ValueError(f"order must be in [2, {MAX_ORDER}], got {self.order}")
        if not 0 < self.abs_tol < np.inf:  # written so that NaN fails it too
            raise ValueError(f"abs_tol must be positive and finite, got {self.abs_tol}")


@lru_cache(maxsize=32)
def kronrod_rule(n):
    """The 2n+1 ascending Gauss-Kronrod nodes on [-1, 1] and the (2, 2n+1) weights: the
    Kronrod row, and the null row, Kronrod less the n-point Gauss weights of the odd nodes.

    Laurie's algorithm (Math. Comp. 66, 1997) extends the Legendre recurrence b to the
    Jacobi-Kronrod matrix J, whose eigenvalues are the nodes, on 2x over [-2, 2], where the
    mixed moments s, t stay near 1 (on [-1, 1] they overflow by n = 1024)."""
    b = [4.0 * k * k / (4.0 * k * k - 1.0) if 0 < k <= (3 * n + 1) // 2 else 0.0
         for k in range(2 * n + 1)]
    s, t = [0.0] * (n // 2 + 2), [0.0, b[n + 1]] + [0.0] * (n // 2)  # stored from index -1
    for m in range(n - 1):
        u = 0.0
        for k in range((m + 1) // 2, -1, -1):
            s[k + 1] = u = u + b[k + n + 1] * s[k] - b[m - k] * s[k + 1]
        s, t = t, s
    s[1:] = s[:-1]
    for m in range(n - 1, 2 * n - 2):
        u = 0.0
        for k in range(m + 1 - n, (m - 1) // 2 + 1):
            s[k + n - m] = u = u + b[m - k] * s[k + n - m + 1] - b[k + n + 1] * s[k + n - m]
        if m % 2:  # a symmetric weight has a zero diagonal, so only b is new
            b[k + n + 2] = s[k + n - m] / s[k + n - m + 1]
        s, t = t, s
    # J's diagonal is 0: its eigenvalues are 0 and +-sqrt eig(C^T C), C its even-odd block
    mu = np.linalg.eigvalsh(np.diag(np.add(b[1::2], b[2::2]))
                            + np.diag(np.sqrt(np.multiply(b[2:-1:2], b[3::2])), -1))
    x = np.concatenate([-np.sqrt(mu[::-1]), [0.0], np.sqrt(mu)])
    # monic pi_k at x: weights 1 / sum pi_k^2 / |pi_k|^2 (Gauss: k < n), Newton on pi_{2n+1}
    p0, p1, d0, d1, acc, norm = 0.0, 1.0, 0.0, 0.0, 0.0, 1.0
    for k in range(2 * n + 1):
        norm *= b[k] or 1.0  # |pi_k|^2 = b_1 ... b_k, times the total weight
        acc += p1 * p1 / norm
        if k == n - 1:
            gauss = 1.0 / acc[1::2]
        p0, p1, d0, d1 = p1, x * p1 - b[k] * p0, d1, p1 + x * d1 - b[k] * d0
    weights = np.array([2.0 / (acc * (1.0 / acc).sum())] * 2)
    weights[1, 1::2] -= 2.0 * gauss / gauss.sum()
    weights[1, n] -= math.fsum(weights[1])  # so rounded weights read no error on a constant
    x = 0.5 * (x - p1 / d1)  # back to [-1, 1]
    x.flags.writeable = weights.flags.writeable = False  # shared by every caller of the cache
    return x, weights


def adaptive_gauss(f, a, b, spec):
    """The (..., m) array of integrals of f over each [a[i], b[i]], for length-m arrays a, b.

    f maps an (m, P) array, row i holding abscissae in [a[i], b[i]], to (..., m, P) values,
    any leading axes being components of one integral that share the row's panels.  A panel
    takes 2N+1 evaluations, N = spec.order, and is accepted once every component has
    |K - G| <= tol, the absolute tolerance halved per bisection; never on a NaN.  Each
    interval keeps the panels, tree-order sums and MAX_SUBDIVISIONS bisections it would
    have alone (ToleranceNotMet past them), so batching changes no result.  a[i] > b[i]
    gives the signed integral, a[i] == b[i] 0.0; if all are, f is not called: (m,) zeros.
    """
    a, b = (np.asarray(v, dtype=float).reshape(-1, 1) for v in (a, b))
    live = a != b
    if not live.any():
        return np.zeros(len(a))
    nodes, weights = kronrod_rule(spec.order)

    def settle(lo, hi, tol, used, live):
        """(..., m, p) integrals over the (m, p) panels [lo, hi] of one level, from one f call."""
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        points = mid[..., None] + half[..., None] * nodes
        values = f(points.reshape(len(lo), -1))
        values = values.reshape(values.shape[:-1] + points.shape[1:])
        # numpy's pairwise sums: a row gets the same bits in any batch, and |K - G| stays accurate
        kronrod, error = (half * (values * w).sum(axis=-1) for w in weights)
        bisect = live & ~(np.abs(error) <= tol).reshape(-1, *lo.shape).all(axis=0)
        if not bisect.any():
            return kronrod
        count = bisect.sum(axis=1)
        if (used := used + count).max() > MAX_SUBDIVISIONS:
            i = np.argmax(used)
            raise ToleranceNotMet(
                f"quadrature subdivision budget exhausted on [{a[i, 0]}, {b[i, 0]}]")
        # per row, the left then the right halves of the bisected panels, padded with dead ones
        pick = np.argsort(~bisect, axis=1, kind="stable")[:, :count.max()]
        kept = np.arange(pick.shape[1]) < count[:, None]
        lo, hi = np.take_along_axis(lo, pick, axis=1), np.take_along_axis(hi, pick, axis=1)
        mid = 0.5 * (lo + hi)
        value = settle(np.concatenate([lo, mid], axis=1), np.concatenate([mid, hi], axis=1),
                       0.5 * tol, used, np.tile(kept, 2))
        kronrod[..., bisect] = np.add(*np.split(value, 2, axis=-1))[..., kept]
        return kronrod

    return np.where(live, settle(a, b, spec.abs_tol, 0, live), 0.0)[..., 0]
