"""Adaptive composite Gauss-Legendre quadrature, vectorized over nodes."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ToleranceNotMet


@dataclass(frozen=True)
class QuadratureSpec:
    order: int = 64
    max_subdivisions: int = 200
    abs_tol: float = 1e-12

    def __post_init__(self):
        if self.order < 2:
            raise ValueError(f"order must be >= 2, got {self.order}")
        if not self.abs_tol > 0:  # written so that NaN fails it too
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")


@lru_cache(maxsize=32)
def gauss_nodes(order):
    """Gauss-Legendre abscissae and weights of the given order on [-1, 1]."""
    return np.polynomial.legendre.leggauss(order)


def _panel(f, a, b, order):
    x, w = gauss_nodes(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.dot(w, f(mid + half * x)))


def adaptive_gauss(f, a, b, spec):
    """Integrate the vectorized scalar integrand f over [a, b].

    Interval bisection: a panel is accepted once the one-panel and two-panel
    estimates agree to the (subdivided) absolute tolerance.  Orientation is
    respected (a > b yields the signed integral).  Raises ToleranceNotMet
    when the subdivision budget runs out.
    """
    if a == b:
        return 0.0
    budget = [spec.max_subdivisions]

    def recurse(lo, hi, tol, whole):
        mid = 0.5 * (lo + hi)
        left = _panel(f, lo, mid, spec.order)
        right = _panel(f, mid, hi, spec.order)
        if abs(left + right - whole) <= tol:
            return left + right
        if budget[0] <= 0:
            raise ToleranceNotMet(
                f"quadrature subdivision budget exhausted on [{lo}, {hi}]")
        budget[0] -= 1
        return (recurse(lo, mid, 0.5 * tol, left)
                + recurse(mid, hi, 0.5 * tol, right))

    return recurse(a, b, spec.abs_tol, _panel(f, a, b, spec.order))
