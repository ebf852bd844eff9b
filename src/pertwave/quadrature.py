"""Adaptive composite Gauss-Legendre quadrature over one interval or a batch."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ToleranceNotMet

# leggauss builds an order x order matrix, so the node count is capped
MAX_ORDER = 1024


@dataclass(frozen=True)
class QuadratureSpec:
    order: int = 64
    max_subdivisions: int = 200
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
    """Integrate the vectorized integrand f over [a, b], or over each [a[i], b[i]].

    For arrays a and b of length m, f maps an (m, N) array, row i holding
    abscissae in [a[i], b[i]], to its values.  A panel is accepted once its
    one-panel and two-panel estimates agree to the (halved per bisection)
    absolute tolerance, never when that is NaN.  Each interval keeps the
    panels, tree-order sums and budget of spec.max_subdivisions bisections
    it would have alone (ToleranceNotMet when that runs out), so batching
    changes no result.  a > b gives the signed integral; a == b gives 0.0.
    """
    batched = np.ndim(a) > 0
    a, b = (np.asarray(v, dtype=float).reshape(-1, 1) for v in (a, b))
    live = a != b
    if not live.any():
        return np.zeros(len(a)) if batched else 0.0
    nodes, weights = gauss_nodes(spec.order)

    def estimates(lo, hi):
        """Gauss estimates on the (m, p) panels [lo, hi], from one call of f."""
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        points = mid[..., None] + half[..., None] * nodes
        values = f(points.reshape(len(lo), -1) if batched else points.ravel())
        return half * (np.reshape(values, points.shape) * weights).sum(axis=-1)

    def settle(lo, hi, whole, est, tol, used, live):
        """Integrals over the (m, p) panels [lo, hi] of one level, given est on their halves."""
        p = lo.shape[1]
        halves = est[:, :p] + est[:, p:]
        bisect = live & ~(np.abs(halves - whole) <= tol)
        count = bisect.sum(axis=1)
        if not count.any():
            return halves
        used = used + count
        if used.max() > spec.max_subdivisions:
            i = np.argmax(used)
            raise ToleranceNotMet(
                f"quadrature subdivision budget exhausted on [{a[i, 0]}, {b[i, 0]}]")
        # per row, the left then the right halves of the bisected panels, padded with dead ones
        pick = np.argsort(~bisect, axis=1, kind="stable")[:, :count.max()]
        kept = np.arange(pick.shape[1]) < count[:, None]
        lo, hi = np.take_along_axis(lo, pick, axis=1), np.take_along_axis(hi, pick, axis=1)
        mid = 0.5 * (lo + hi)
        lo, hi = np.hstack([lo, mid]), np.hstack([mid, hi])
        mid = 0.5 * (lo + hi)
        value = settle(lo, hi, np.take_along_axis(est, np.hstack([pick, pick + p]), axis=1),
                       estimates(np.hstack([lo, mid]), np.hstack([mid, hi])),
                       0.5 * tol, used, np.tile(kept, 2))
        halves[bisect] = np.add(*np.hsplit(value, 2))[kept]
        return halves

    # the opening step takes each whole interval together with its two halves
    mid = 0.5 * (a + b)
    est = estimates(np.hstack([a, a, mid]), np.hstack([b, mid, b]))
    out = np.where(live, settle(a, b, est[:, :1], est[:, 1:], spec.abs_tol, 0, live), 0.0)[:, 0]
    return out if batched else float(out[0])
