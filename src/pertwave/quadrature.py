"""Adaptive composite Gauss-Legendre quadrature over a batch of intervals."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ToleranceNotMet

# leggauss builds an order x order matrix, so the node count is capped
MAX_ORDER = 1024
# bisections each interval may take before adaptive_gauss gives up
MAX_SUBDIVISIONS = 200


@dataclass(frozen=True)
class QuadratureSpec:
    order: int = 64
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not 2 <= self.order <= MAX_ORDER:
            raise ValueError(f"order must be in [2, {MAX_ORDER}], got {self.order}")
        if not 0 < self.abs_tol < np.inf:  # written so that NaN fails it too
            raise ValueError(f"abs_tol must be positive and finite, got {self.abs_tol}")


@lru_cache(maxsize=32)
def gauss_nodes(order):
    """Gauss-Legendre abscissae and weights of the given order on [-1, 1]."""
    return np.polynomial.legendre.leggauss(order)


def adaptive_gauss(f, a, b, spec):
    """The (m,) array of integrals of f over each [a[i], b[i]], for length-m arrays a, b.

    f maps an (m, N) array, row i holding abscissae in [a[i], b[i]], to its
    (m, N) values.  A panel is accepted once its one-panel and two-panel
    estimates agree to the (halved per bisection) absolute tolerance, never
    when that is NaN.  Each interval keeps the panels, tree-order sums and
    budget of MAX_SUBDIVISIONS bisections it would have alone
    (ToleranceNotMet when that runs out), so batching changes no result.
    a[i] > b[i] gives the signed integral; a[i] == b[i] gives 0.0.
    """
    a, b = (np.asarray(v, dtype=float).reshape(-1, 1) for v in (a, b))
    live = a != b
    if not live.any():
        return np.zeros(len(a))
    nodes, weights = gauss_nodes(spec.order)

    def estimates(lo, hi):
        """Gauss estimates on the (m, p) panels [lo, hi], from one call of f."""
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        points = mid[..., None] + half[..., None] * nodes
        values = f(points.reshape(len(lo), -1))
        return half * (np.reshape(values, points.shape) * weights).sum(axis=-1)

    def settle(lo, hi, whole, est, tol, used, live):
        """Integrals over the (m, p) panels [lo, hi] of one level, given est on their halves."""
        p = lo.shape[1]
        halves = est[:, :p] + est[:, p:]
        bisect = live & ~(np.abs(halves - whole) <= tol)
        if not bisect.any():
            return halves
        count = bisect.sum(axis=1)
        used = used + count
        if used.max() > MAX_SUBDIVISIONS:
            i = np.argmax(used)
            raise ToleranceNotMet(
                f"quadrature subdivision budget exhausted on [{a[i, 0]}, {b[i, 0]}]")
        # per row, the left then the right halves of the bisected panels, padded with dead ones
        pick = np.argsort(~bisect, axis=1, kind="stable")[:, :count.max()]
        kept = np.arange(pick.shape[1]) < count[:, None]
        lo, hi = np.take_along_axis(lo, pick, axis=1), np.take_along_axis(hi, pick, axis=1)
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid], axis=1), np.concatenate([mid, hi], axis=1)
        mid = 0.5 * (lo + hi)
        whole = np.take_along_axis(est, np.concatenate([pick, pick + p], axis=1), axis=1)
        value = settle(lo, hi, whole, estimates(np.concatenate([lo, mid], axis=1),
                                                np.concatenate([mid, hi], axis=1)),
                       0.5 * tol, used, np.tile(kept, 2))
        halves[bisect] = np.add(*np.hsplit(value, 2))[kept]
        return halves

    # the opening step takes each whole interval together with its two halves
    mid = 0.5 * (a + b)
    est = estimates(np.concatenate([a, a, mid], axis=1), np.concatenate([b, mid, b], axis=1))
    out = settle(a, b, est[:, :1], est[:, 1:], spec.abs_tol, 0, live)
    if not live.all():
        out = np.where(live, out, 0.0)
    return out[:, 0]
