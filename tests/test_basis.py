from fractions import Fraction
from math import comb, gcd

import pytest

from pertwave.basis import MAX_MONOMIALS, is_wave_polynomial, monomials, wave_basis
from pertwave.ring import Polynomial


def grlex_key(exponents):
    """Graded lexicographic sort key (t is the most significant variable)."""
    return (sum(exponents), exponents)


def span_matrix_rref(elements, order):
    """Row-reduce the coefficient matrix of polynomials over a monomial order."""
    index = {m: i for i, m in enumerate(order)}
    rows = [{index[e]: c for e, c in p.terms.items()} for p in elements]
    pivots = []
    for col in range(len(order)):
        pivot = next((r for r in rows if r.get(col)), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        inv = Fraction(1) / pivot[col]
        pivot = {c: v * inv for c, v in pivot.items()}
        for r in rows:
            f = r.get(col)
            if f:
                for c, v in pivot.items():
                    acc = r.get(c, Fraction(0)) - f * v
                    if acc:
                        r[c] = acc
                    elif c in r:
                        del r[c]
        rows = [r for r in rows if r]
        pivots.append((col, pivot))
    return pivots


def in_span(poly, pivots, order):
    index = {m: i for i, m in enumerate(order)}
    r = {index[e]: c for e, c in poly.terms.items()}
    for col, pivot in pivots:
        f = r.get(col)
        if f:
            for c, v in pivot.items():
                acc = r.get(c, Fraction(0)) - f * v
                if acc:
                    r[c] = acc
                elif c in r:
                    del r[c]
    return not r


def test_n2_degree1():
    wb = wave_basis(2, 1)
    assert {str(p) for p in wb.elements} == {"t", "x"}


def test_n2_degree2_span():
    wb = wave_basis(2, 2)
    expected = [Polynomial(2, {(1, 1): 1}),
                Polynomial(2, {(2, 0): 1, (0, 2): 1})]
    order = monomials(2, 2)
    pivots = span_matrix_rref(expected, order)
    assert len(wb.elements) == 2
    assert all(in_span(p, pivots, order) for p in wb.elements)


def test_n4_degree2_size():
    assert len(wave_basis(4, 2).elements) == 9


def test_degree_zero_constant():
    wb = wave_basis(3, 0)
    assert len(wb.elements) == 1
    assert wb.elements[0].degree() == 0


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("k", range(7))
def test_elements_are_wave_polynomials(n, k):
    wb = wave_basis(n, k)
    for p in wb.elements:
        assert p.euler_h() == p.scale(k)  # Euler: homogeneous of degree k
        assert p.degree() in (k, -1) or k == 0
        assert is_wave_polynomial(p)


def brute_force_rank(n, k):
    """Rank of the box operator on degree-k monomials, built densely."""
    domain = monomials(n, k)
    codomain = monomials(n, k - 2)
    codomain_index = {m: i for i, m in enumerate(codomain)}
    rows = [[Fraction(0)] * len(domain) for _ in codomain]
    for j, m in enumerate(domain):
        image = Polynomial(n, {m: 1}).box()
        for e, c in image.terms.items():
            rows[codomain_index[e]][j] = c
    rank = 0
    for col in range(len(domain)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / pr[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        rank += 1
    return rank


@pytest.mark.parametrize("n,k", [(2, 4), (3, 3), (4, 3), (4, 4), (6, 2)])
def test_size_matches_brute_force_rank(n, k):
    wb = wave_basis(n, k)
    expected = len(monomials(n, k)) - brute_force_rank(n, k)
    assert len(wb.elements) == expected


@pytest.mark.parametrize("n,k,expected", [
    (2, 2, [{(1, 1): 1}, {(2, 0): 1, (0, 2): 1}]),
    (2, 3, [{(3, 0): 1, (1, 2): 3}, {(2, 1): 3, (0, 3): 1}]),
    (3, 2, [{(1, 1, 0): 1}, {(1, 0, 1): 1}, {(2, 0, 0): 1, (0, 2, 0): 1},
            {(0, 1, 1): 1}, {(2, 0, 0): 1, (0, 0, 2): 1}]),
    (2, 4, [{(3, 1): 1, (1, 3): 1}, {(4, 0): 1, (2, 2): 6, (0, 4): 1}]),
], ids=["n2k2", "n2k3", "n3k2", "n2k4"])
def test_exact_small_bases(n, k, expected):
    assert wave_basis(n, k).elements == tuple(Polynomial(n, e) for e in expected)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
@pytest.mark.parametrize("k", range(7))
def test_basis_characterisation(n, k):
    """With box = 0 these properties pin the basis uniquely.

    Each element's part of t-degree <= 1 is one monomial; those monomials are
    the t-degree <= 1 monomials of degree k in descending graded-lex order;
    coefficients are coprime integers, positive on the graded-lex-largest term.
    """
    elements = wave_basis(n, k).elements
    free = []
    for p in elements:
        low = [e for e in p.terms if e[0] <= 1]
        assert len(low) == 1
        free.append(low[0])
        assert all(c.denominator == 1 for c in p.terms.values())
        assert gcd(*(c.numerator for c in p.terms.values())) == 1
        assert p.terms[max(p.terms, key=grlex_key)] > 0
    assert free == [e for e in monomials(n, k) if e[0] <= 1]


def recursive_monomials(dim, degree):
    """The recursive enumeration monomials replaced, sorted descending graded-lex."""
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


@pytest.mark.parametrize("dim", range(1, 7))
def test_monomials_match_recursive_order(dim):
    for degree in range(-1, 7):
        assert monomials(dim, degree) == recursive_monomials(dim, degree)


def test_large_dimension_basis():
    """One coordinate per slot used to cost one recursion level: dim 1200 overflowed."""
    assert len(wave_basis(1200, 0).elements) == 1
    assert len(wave_basis(1200, 1).elements) == 1200


def test_is_wave_polynomial_examples():
    assert is_wave_polynomial(Polynomial(2, {(1, 1): 1, (1, 0): 1}))
    assert not is_wave_polynomial(Polynomial(2, {(2, 0): 1}))
    assert is_wave_polynomial(Polynomial(2, {(2, 0): 1, (0, 2): 1}))


def test_degree_cap_and_bad_dim():
    with pytest.raises(ValueError, match="degree 13 exceeds the supported cap 12"):
        wave_basis(2, 13)
    for n in (1, 0):
        with pytest.raises(ValueError, match=f"dimension must be >= 2, got {n}"):
            wave_basis(n, 2)


def test_monomial_cap():
    """A count C(k + n - 1, n - 1) above the cap is refused before any enumeration:
    dim 9 is the first above it at degree 12, and (10, 10) is under it."""
    assert comb(10 + 10 - 1, 10 - 1) <= MAX_MONOMIALS < comb(12 + 9 - 1, 9 - 1)
    for n, k in [(9, 12), (13, 8)]:
        with pytest.raises(ValueError, match=f"dim {n}, degree {k} has 125970 monomials, above"):
            wave_basis(n, k)
