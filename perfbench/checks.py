"""Correctness checks for benchmark items.

Every check either returns the measured error (or None when there is no
number to report) or raises CheckFailed.  The checks evaluate exact ring
elements and JSON documents with their own float evaluator, so a result is
never judged by the code that produced it.  Only the finite-difference
oracle is taken from pertwave, as in the acceptance suite.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


class CheckFailed(Exception):
    """An item produced a wrong result."""


class ExitMismatch(CheckFailed):
    """A CLI invocation ended with another exit code than documented."""


# -- independent evaluation ---------------------------------------------------


def layers_of_expr(expr):
    """{rho_power: {exponents: Fraction}} from a pertwave RhoExpr."""
    return {s: dict(p.terms) for s, p in expr.layers.items()}


def layers_of_doc(doc):
    """{rho_power: {exponents: Fraction}} from a serialized rho-expression document."""
    out = {}
    for layer in doc["layers"]:
        terms = out.setdefault(int(layer["rho_power"]), {})
        for term in layer["terms"]:
            exps = tuple(int(e) for e in term["exponents"])
            terms[exps] = terms.get(exps, Fraction(0)) + Fraction(term["coeff"])
    return out


def eval_terms(terms, points):
    """A polynomial {exponents: coeff} at an (m, dim) float array."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros(points.shape[0])
    for exps, coeff in terms.items():
        out += float(coeff) * np.prod(points ** np.asarray(exps), axis=1)
    return out


def eval_layers(layers, points):
    """sum_s P_s rho^s with rho = 1 / (1 - t^2 + sum xi^2)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    rho = 1.0 / (1.0 - points[:, 0] ** 2 + np.sum(points[:, 1:] ** 2, axis=1))
    out = np.zeros(points.shape[0])
    for s, terms in layers.items():
        out += eval_terms(terms, points) * rho ** s
    return out


def box_terms(terms, dim):
    """Exact D'Alembertian -d2/dt2 + sum d2/dxi2 of a polynomial {exponents: coeff}."""
    out = {}
    for exps, coeff in terms.items():
        for axis in range(dim):
            k = exps[axis]
            if k < 2:
                continue
            de = list(exps)
            de[axis] -= 2
            de = tuple(de)
            sign = -1 if axis == 0 else 1
            out[de] = out.get(de, Fraction(0)) + sign * k * (k - 1) * coeff
    return {e: c for e, c in out.items() if c}


def basis_size(n, k):
    """Dimension of the degree-k homogeneous solutions of box(y) = 0 in n variables."""
    below = math.comb(k + n - 3, n - 1) if k >= 2 else 0
    return math.comb(k + n - 1, n - 1) - below


# -- checks -------------------------------------------------------------------


def structural_zero(expr, what):
    """An exact ring element must have no layers at all."""
    if expr.layers:
        terms = sum(len(p.terms) for p in expr.layers.values())
        raise CheckFailed(f"{what}: residual has {terms} terms, expected none")


def basis_elements(layer_terms, n, k):
    """Wave-basis elements: the expected count, each homogeneous of degree k with box 0."""
    if len(layer_terms) != basis_size(n, k):
        raise CheckFailed(
            f"basis({n},{k}) has {len(layer_terms)} elements, expected {basis_size(n, k)}")
    for terms in layer_terms:
        if not terms or any(len(e) != n or sum(e) != k for e in terms):
            raise CheckFailed(f"basis({n},{k}) element is not homogeneous of degree {k}")
        if box_terms(terms, n):
            raise CheckFailed(f"basis({n},{k}) element has nonzero box")


def relative_error(got, expected, tol):
    """max |got - expected| / max(1, |expected|) must not exceed tol."""
    got = np.asarray(got, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if got.shape != expected.shape:
        raise CheckFailed(f"shape {got.shape}, expected {expected.shape}")
    err = float(np.max(np.abs(got - expected) / np.maximum(1.0, np.abs(expected))))
    if not err <= tol:
        raise CheckFailed(f"relative error {err:.3e} > {tol:.0e}")
    return err


def absolute_error(got, expected, tol):
    """max |got - expected| must not exceed tol."""
    got = np.asarray(got, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if got.shape != expected.shape:
        raise CheckFailed(f"shape {got.shape}, expected {expected.shape}")
    err = float(np.max(np.abs(got - expected)))
    if not err <= tol:
        raise CheckFailed(f"max error {err:.3e} > {tol:.0e}")
    return err


def convergence_ratios(errors, lo=3.5, hi=4.5):
    """Successive error ratios of a second-order method must lie in [lo, hi]."""
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    if not all(lo <= r <= hi for r in ratios):
        raise CheckFailed(f"convergence ratios {ratios} outside [{lo}, {hi}]")
    return ratios


def exit_status(code, expected, stderr):
    """The CLI exit code must be one of `expected`; failures print one error line.

    A zero exit must print no error line; a nonzero exit must print exactly one
    line starting with "error:" and no traceback.
    """
    if code not in expected:
        raise ExitMismatch(f"exit code {code}, expected one of {sorted(expected)}")
    lines = [line for line in stderr.splitlines() if line.strip()]
    errors = [line for line in lines if line.startswith("error:")]
    if code == 0:
        if errors:
            raise CheckFailed(f"exit 0 with error output {errors[0]!r}")
    elif len(errors) != 1 or "Traceback" in stderr:
        raise CheckFailed(f"exit {code} printed {len(errors)} error lines: {lines[:3]!r}")
