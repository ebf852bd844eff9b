"""Homogeneous polynomial solutions of the free wave equation.

wave_basis(n, k) returns an exact rational basis of the kernel of the
D'Alembertian restricted to homogeneous degree-k polynomials, computed by
row-reducing the matrix of the operator from the degree-k monomial basis to
the degree-(k-2) monomial basis.  Everything is deterministic: monomials are
ordered graded-lex (t most significant) and basis vectors are scaled to
coprime integer coefficients with positive leading coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DimensionMismatch, UnsupportedDim
from .ring import Polynomial, box_monomial, grlex_key

MAX_DEGREE = 12


def monomials(dim, degree):
    """All exponent tuples of the given total degree, descending graded-lex."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    if degree < 0:
        return []
    rec((), degree, dim)
    out.sort(key=grlex_key, reverse=True)
    return out


def _rref(rows, ncols):
    """In-place reduced row echelon form of sparse Fraction rows.

    Returns a list of (pivot_col, row_dict) pairs, pivot columns increasing.
    """
    pivots = []
    rows = [dict(r) for r in rows if r]
    for col in range(ncols):
        pivot_row = None
        for i, r in enumerate(rows):
            if r.get(col):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        row = rows.pop(pivot_row)
        inv = Fraction(1) / row[col]
        row = {c: v * inv for c, v in row.items()}
        for r in rows + [prow for _, prow in pivots]:
            f = r.get(col)
            if f:
                for c, v in row.items():
                    acc = r.get(c, Fraction(0)) - f * v
                    if acc:
                        r[c] = acc
                    elif c in r:
                        del r[c]
        pivots.append((col, row))
        rows = [r for r in rows if r]
    pivots.sort(key=lambda item: item[0])
    return pivots


def nullspace(columns, ncols):
    """Exact nullspace basis of a sparse column-indexed linear map.

    `columns[j]` maps row index -> coefficient.  Returns vectors as dicts
    column -> Fraction, one per free column, in column order.
    """
    rows = {}
    for j, col in enumerate(columns):
        for i, v in col.items():
            rows.setdefault(i, {})[j] = Fraction(v)
    pivots = _rref(list(rows.values()), ncols)
    pivot_cols = {c for c, _ in pivots}
    vectors = []
    for j in range(ncols):
        if j in pivot_cols:
            continue
        vec = {j: Fraction(1)}
        for c, row in pivots:
            v = row.get(j)
            if v:
                vec[c] = -v
        vectors.append(vec)
    return vectors


def _integerize(vec):
    """Scale to coprime integers with positive coefficient on the lead column."""
    denom_lcm = 1
    for v in vec.values():
        denom_lcm = denom_lcm * v.denominator // gcd(denom_lcm, v.denominator)
    ints = {c: v * denom_lcm for c, v in vec.items()}
    g = 0
    for v in ints.values():
        g = gcd(g, int(v))
    if g > 1:
        ints = {c: v / g for c, v in ints.items()}
    return ints


@dataclass(frozen=True)
class WaveBasis:
    dim: int
    degree: int
    elements: tuple


def wave_basis(n, k, monomial_order=None):
    """Exact basis of homogeneous degree-k solutions of box(y) = 0.

    `monomial_order` optionally overrides the domain monomial ordering (used
    by the span-stability tests); the default is descending graded-lex.
    """
    if n < 2:
        raise DimensionMismatch(f"dimension must be >= 2, got {n}")
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {k}")
    if k > MAX_DEGREE:
        raise UnsupportedDim(
            f"degree {k} exceeds the supported cap {MAX_DEGREE}")
    domain = list(monomial_order) if monomial_order is not None else monomials(n, k)
    if sorted(domain) != sorted(monomials(n, k)):
        raise ValueError("monomial_order must be a permutation of the degree-k monomials")
    codomain = monomials(n, k - 2)
    codomain_index = {e: i for i, e in enumerate(codomain)}
    cols = [{codomain_index[e]: f for e, f in box_monomial(exps)} for exps in domain]
    elements = []
    for vec in nullspace(cols, len(domain)):
        ints = _integerize(vec)
        # sign convention: positive coefficient on the graded-lex-largest monomial
        lead = max(ints, key=lambda c: grlex_key(domain[c]))
        sign = 1 if ints[lead] > 0 else -1
        poly = Polynomial(n, {domain[c]: sign * v for c, v in ints.items()})
        elements.append(poly)
    return WaveBasis(dim=n, degree=k, elements=tuple(elements))


def is_wave_polynomial(p):
    """True iff the D'Alembertian of p is exactly zero."""
    return p.box().is_zero()
