import ast
import copy
import math
import pickle
from fractions import Fraction
from operator import add
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import nonsingular_points, polynomials, rho_exprs
from pertwave import ring
from pertwave.basis import wave_basis
from pertwave.cauchy import InitialData
from pertwave.errors import DomainError
from pertwave.hyp2f1 import radial_numerator
from pertwave.ring import MAX_TOTAL_DEGREE, Polynomial, RhoExpr, margin, normalize
from pertwave.serialize import doc_to_expr, expr_to_doc
from pertwave.solutions import build_phi, recursion_step, residual


def one_plus_xx(dim):
    """The polynomial 1 + x.x = 1 - t^2 + sum(xi^2)."""
    terms = {(0,) * dim: Fraction(1), (2,) + (0,) * (dim - 1): Fraction(-1)}
    for axis in range(1, dim):
        e = [0] * dim
        e[axis] = 2
        terms[tuple(e)] = Fraction(1)
    return Polynomial(dim, terms)


class TestNormalize:
    def test_defining_relation(self):
        got = normalize([(1, one_plus_xx(2))], 2)
        assert got == RhoExpr.rho(2, 0)

    def test_layer_zero_unconstrained(self):
        p = Polynomial(2, {(0, 2): 1})
        got = normalize([(0, p)], 2)
        assert got.layers == {0: p}

    def test_double_reduction(self):
        d = one_plus_xx(2)
        t = Polynomial.coordinate(2, 0)
        got = normalize([(2, d * d * t)], 2)
        assert got == RhoExpr.from_polynomial(t)

    def test_normal_form_t_degree(self):
        expr = normalize([(3, Polynomial(3, {(4, 1, 0): 7, (1, 2, 2): -3}))], 3)
        for s, p in expr.layers.items():
            if s >= 1:
                assert all(e[0] <= 1 for e in p.terms)

    @settings(max_examples=60, deadline=None)
    @given(rho_exprs(3))
    def test_soundness_numeric(self, expr):
        """Normal form and raw expansion agree when rho -> 1/(1+x.x)."""
        raw = [(s + 1, p * one_plus_xx(3)) for s, p in expr.layers.items()]
        renorm = normalize(raw, 3)
        assert renorm == expr
        rng = np.random.default_rng(0)
        pts = nonsingular_points(rng, 3, 10)
        a = expr.eval_points(pts)
        b = renorm.eval_points(pts)
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


def work_list_reduce(poly):
    """Reference division by 1 + x.x: rewrite t^2 -> 1 + sum xi^2 one term at a time."""
    dim = poly.dim
    quot = {}
    rem = {}
    work = list(poly.terms.items())
    while work:
        e, c = work.pop()
        if not c:
            continue
        if e[0] < 2:
            rem[e] = rem.get(e, 0) + c
            continue
        f = (e[0] - 2,) + e[1:]
        quot[f] = quot.get(f, 0) - c
        work.append((f, c))
        for axis in range(1, dim):
            fe = list(f)
            fe[axis] += 2
            work.append((tuple(fe), c))
    return Polynomial(dim, quot), Polynomial(dim, rem)


@st.composite
def t_heavy_polynomials(draw):
    """Polynomials in dims 1-5 with t-degree up to 8 and spatial degrees up to 3."""
    dim = draw(st.integers(min_value=1, max_value=5))
    exps = st.tuples(st.integers(0, 8), *[st.integers(0, 3)] * (dim - 1))
    coeffs = st.one_of(st.integers(-6, 6), st.fractions(-4, 4, max_denominator=6))
    return Polynomial(dim, draw(st.dictionaries(exps, coeffs, max_size=6)))


def reduce_layer(poly):
    """(quotient, remainder) of poly by 1 + x.x, read off normalize of poly * rho:
    the remainder stays in layer 1 and the quotient moves down to layer 0."""
    layers, zero = normalize([(1, poly)], poly.dim).layers, Polynomial.zero(poly.dim)
    return layers.get(0, zero), layers.get(1, zero)


class TestReduceLayer:
    @settings(max_examples=150, deadline=None)
    @given(t_heavy_polynomials())
    def test_matches_work_list_reference(self, poly):
        quot, rem = reduce_layer(poly)
        assert (quot, rem) == work_list_reduce(poly)
        assert poly == quot * one_plus_xx(poly.dim) + rem
        assert all(e[0] <= 1 for e in rem.terms)
        assert_canonical(quot, rem)

    def test_slices_merge(self):
        """t^4 reduces through t^2: quotient -(t^2 + 1 + x^2), remainder (1 + x^2)^2."""
        t4 = Polynomial(2, {(4, 0): 1})
        quot, rem = reduce_layer(t4)
        assert quot == Polynomial(2, {(2, 0): -1, (0, 0): -1, (0, 2): -1})
        assert rem == Polynomial(2, {(0, 0): 1, (0, 2): 2, (0, 4): 1})


def assert_canonical(*items):
    """Every stored coefficient is an int exactly when it is integral."""
    for x in items:
        for p in x.layers.values() if isinstance(x, RhoExpr) else [x]:
            for c in p.terms.values():
                assert type(c) is (int if c.denominator == 1 else Fraction), (c, type(c))


class TestCanonicalCoefficients:
    def test_integral_fraction_is_int(self):
        a = Polynomial(2, {(1, 0): Fraction(6, 3), (0, 1): Fraction(1, 2)})
        b = Polynomial(2, {(1, 0): 2, (0, 1): Fraction(1, 2)})
        assert a == b and hash(a) == hash(b)
        assert type(a.terms[(1, 0)]) is int
        assert_canonical(a, Polynomial.constant(3, Fraction(4, 2)), RhoExpr.rho(2, 0).scale(1.0),
                         Polynomial.coordinate(2, 1), Polynomial(2, {(1, 1): Fraction(3)}),
                         b.scale(2), b.scale(Fraction(1, 2)), b.euler_h(), b.diff(1))
        assert str(a) == "2*t + 1/2*x"

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_basis_and_bundles(self, n):
        for k in range(5):
            for seed in wave_basis(n, k).elements:
                assert all(type(c) is int for c in seed.terms.values())
                for s in (seed, seed.scale(Fraction(3, 7))):
                    bundle = build_phi(s, n, check=False)
                    assert_canonical(bundle.seed, bundle.phi, *bundle.coefficients)
                    truncated = normalize([(r, p) for r, p in bundle.phi.layers.items() if r], n)
                    assert_canonical(residual(truncated, n))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(rho_exprs))
    def test_operators_and_documents(self, expr):
        assert_canonical(expr, expr.box(), expr.euler_h(), residual(expr, 4),
                         expr.scale(Fraction(2, 3)), expr * expr,
                         doc_to_expr(expr_to_doc(expr)))

    def test_document_coefficients(self):
        doc = {"format_version": 1, "dim": 2, "layers": [
            {"rho_power": 0, "terms": [{"coeff": "6/3", "exponents": [1, 0]},
                                       {"coeff": "1/2", "exponents": [1, 0]},
                                       {"coeff": "4/8", "exponents": [0, 1]}]}]}
        expr = doc_to_expr(doc)
        assert expr.layers[0].terms == {(1, 0): Fraction(5, 2), (0, 1): Fraction(1, 2)}
        doc["layers"][0]["terms"][1]["coeff"] = "1/1"
        assert_canonical(doc_to_expr(doc))
        assert doc_to_expr(doc).layers[0].terms[(1, 0)] == 3


def rational_normalize(raw, dim):
    """Reference normal form on Fractions, as {rho power: Polynomial}: the pairs summed,
    then from the top layer down each layer s >= 1 divided by 1 + x.x (work_list_reduce),
    the quotient merged into layer s-1."""
    layers = {}
    for s, poly in raw:
        acc = layers.setdefault(s, {})
        for e, c in poly.terms.items():
            acc[e] = acc.get(e, 0) + Fraction(c)
    for s in range(max(layers, default=0), 0, -1):
        terms = layers.get(s)
        if terms and max(e[0] for e in terms) >= 2:
            quot, rem = work_list_reduce(Polynomial(dim, terms))
            layers[s] = dict(rem.terms)
            below = layers.setdefault(s - 1, {})
            for e, c in quot.terms.items():
                below[e] = below.get(e, 0) + c
    polys = {s: Polynomial(dim, terms) for s, terms in layers.items()}
    return {s: p for s, p in polys.items() if not p.is_zero()}


def rational_box_raw(x):
    """box(x) as unreduced pairs of x's rational layers (closed form of RhoExpr.box)."""
    raw = []
    for s, p in x.layers.items():
        raw.append((s, p.box()))
        if s:
            a = 4 * s * (s + 1)
            raw += [(s + 1, p.euler_h().scale(-4 * s) + p.scale(a - 2 * s * x.dim)),
                    (s + 2, p.scale(-a))]
    return raw


def rational_reference(x, y, q):
    """{operation: reference layers} for the operators of RhoExpr, on rational layers."""
    dim, xl, yl = x.dim, list(x.layers.items()), list(y.layers.items())
    ops = {
        "add": xl + yl,
        "neg": [(s, -p) for s, p in xl],
        "sub": xl + [(s, -p) for s, p in yl],
        "mul": [(s1 + s2, p1 * p2) for s1, p1 in xl for s2, p2 in yl],
        "scale": [(s, p.scale(q)) for s, p in xl],
        "box": rational_box_raw(x),
        "euler_h": [pair for s, p in xl
                    for pair in ((s, p.euler_h() - p.scale(2 * s)), (s + 1, p.scale(2 * s)))],
        "residual": rational_box_raw(x) + [(s + 2, p.scale(dim * (dim + 2))) for s, p in xl],
    }
    for axis in range(dim):
        coord = Polynomial.coordinate(dim, axis)
        ops[f"diff{axis}"] = [pair for s, p in xl for pair in (
            (s, p.diff(axis)), (s + 1, (coord * p).scale(2 * s if axis == 0 else -2 * s)))]
    return {name: rational_normalize(raw, dim) for name, raw in ops.items()}


def operations(x, y, q):
    dim = x.dim
    ops = {"add": x + y, "neg": -x, "sub": x - y, "mul": x * y, "scale": x.scale(q),
           "box": x.box(), "euler_h": x.euler_h(), "residual": residual(x, dim)}
    ops.update({f"diff{axis}": x.diff(axis) for axis in range(dim)})
    return ops


def assert_representation(x):
    """den >= 1 and int layers with no factor common to den and every coefficient."""
    coeffs = [c for p in x.num.values() for c in p.terms.values()]
    assert type(x.den) is int and x.den >= 1
    assert all(type(c) is int for c in coeffs)
    assert math.gcd(x.den, *coeffs) == 1
    assert all(not p.is_zero() for p in x.num.values())


HALF_T = Polynomial(2, {(1, 0): Fraction(1, 2)})


@st.composite
def raw_pairs(draw):
    """(dim, [(rho power <= 3, polynomial)]) in dims 1-4, t-degree up to 5, unreduced."""
    dim = draw(st.integers(min_value=1, max_value=4))
    exps = st.tuples(st.integers(0, 5), *[st.integers(0, 2)] * (dim - 1))
    coeffs = st.one_of(st.integers(-6, 6), st.fractions(-4, 4, max_denominator=6))
    polys = st.dictionaries(exps, coeffs, max_size=4).map(lambda terms: Polynomial(dim, terms))
    return dim, draw(st.lists(st.tuples(st.integers(0, 3), polys), max_size=4))


class TestIntegerLayers:
    """A RhoExpr is int layers over one denominator; its operators agree with the
    same operations on the rational layers."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(
        lambda dim: st.tuples(rho_exprs(dim), rho_exprs(dim))),
        st.fractions(-5, 5, max_denominator=7).filter(bool))
    def test_operators_match_rational_reference(self, pair, q):
        x, y = pair
        assert_representation(x)
        reference = rational_reference(x, y, q)
        for name, got in operations(x, y, q).items():
            assert_representation(got)
            assert got.layers == reference[name], name

    @settings(max_examples=60, deadline=None)
    @given(raw_pairs())
    @example((2, [(0, HALF_T), (0, HALF_T), (1, HALF_T), (1, -HALF_T)]))  # sums are integers
    def test_normalize_matches_rational_reference(self, case):
        dim, raw = case
        got = normalize(raw, dim)
        assert_representation(got)
        assert got.layers == rational_normalize(raw, dim)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(
        lambda dim: st.tuples(rho_exprs(dim), rho_exprs(dim))),
        st.fractions(-5, 5, max_denominator=7).filter(bool))
    def test_equality_is_equality_of_layers(self, pair, q):
        x, y = pair
        assert (x == y) == (x.layers == y.layers)
        same = x.scale(q).scale(1 / q)
        assert same == x and same.layers == x.layers and hash(same) == hash(x)
        rebuilt = normalize(list(x.layers.items()), x.dim)
        assert rebuilt == x and hash(rebuilt) == hash(x)
        assert x + y - y == x and hash(x + y - y) == hash(x)

    def test_layers_view(self):
        """With den 1 the view equals the int layers; otherwise it is num over den.  Either
        way it is a new dict on each read."""
        t = Polynomial.coordinate(2, 0)
        ints = (RhoExpr.rho(2) * RhoExpr.from_polynomial(t)).scale(3)
        assert ints.den == 1 and ints.layers == ints.num and ints.layers is not ints.num
        half = ints.scale(Fraction(1, 6))
        assert half.den == 2 and half.num == ints.scale(Fraction(1, 3)).num
        assert half.layers == {1: Polynomial(2, {(1, 0): Fraction(1, 2)})}
        assert {s: p.scale(half.den) for s, p in half.layers.items()} == half.num
        assert RhoExpr.rho(2, 0).scale(Fraction(-3, 4)).den == 4
        assert ints.scale(Fraction(1, 6)) - half == normalize([], 2) == normalize([], 2).scale(5)
        assert (half - half).den == 1
        assert half != ints.scale(Fraction(1, 3)) and hash(half) != hash(ints.scale(Fraction(1, 3)))

    def test_writing_to_the_layers_view_changes_nothing(self):
        """x.layers[1] = t^2 once made x = rho print t^2*rho: the den-1 view was num itself."""
        for c in (1, Fraction(1, 3)):
            x = RhoExpr.rho(2).scale(c)
            before = str(x), hash(x)
            x.layers[1] = Polynomial(2, {(2, 0): 1})
            assert (str(x), hash(x)) == before and x == RhoExpr.rho(2).scale(c)
            assert x.layers == {1: Polynomial.constant(2, c)}

    def test_eval_rounds_each_coefficient_once(self):
        """An int coefficient over den is rounded once, as c / den, which is
        float(Fraction(c, den)); float(c) / den would give 6004799503160661.0."""
        q = Fraction(2 ** 54 + 1, 3)
        value = RhoExpr.rho(2, 0).scale(q).eval_points([[0.0, 0.0]])[0]
        assert value == float(q) == 6004799503160662.0



def oracle_sum(*dicts):
    """{exponents: Fraction} sum of term dicts, zeros dropped."""
    out = {}
    for terms in dicts:
        for e, c in terms.items():
            out[e] = out.get(e, 0) + Fraction(c)
    return {e: c for e, c in out.items() if c}


def oracle_map(terms, f):
    """{exponents: Fraction} of f(e, c) -> (new exponents, value) over terms, summed."""
    return oracle_sum(*(dict([f(e, Fraction(c))]) for e, c in terms.items()))


def oracle_box(terms):
    out = []
    for e, c in terms.items():
        for axis, k in enumerate(e):
            if k >= 2:
                de = e[:axis] + (k - 2,) + e[axis + 1:]
                out.append({de: (-1 if axis == 0 else 1) * k * (k - 1) * Fraction(c)})
    return oracle_sum(*out)


class TestOneRepresentation:
    """Every Polynomial is nonzero ints over one den >= 1 coprime to them, whatever made
    it, and its rational terms are those of the same operation on Fraction dicts."""

    @staticmethod
    def assert_form(p, expected):
        assert type(p.den) is int and p.den >= 1
        assert all(type(c) is int and c for c in p.packed.values())
        assert math.gcd(p.den, *p.packed.values()) == 1
        assert p.terms == expected
        assert_canonical(p)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(
        lambda dim: st.tuples(polynomials(dim), polynomials(dim), st.integers(0, dim - 1))),
        st.integers(-6, 6), st.fractions(-5, 5, max_denominator=9))
    def test_operators(self, case, k, q):
        a, b, axis = case
        ta, tb, dim = a.terms, b.terms, a.dim
        product = [{tuple(map(add, e1, e2)): Fraction(c1) * c2} for e1, c1 in ta.items()
                   for e2, c2 in tb.items()]
        unit = tuple(int(i == axis) for i in range(dim))
        results = [
            (a + b, oracle_sum(ta, tb)),
            (a - b, oracle_sum(ta, {e: -c for e, c in tb.items()})),
            (-a, oracle_sum({e: -c for e, c in ta.items()})),
            (a * b, oracle_sum(*product)),
            (a.scale(k), oracle_map(ta, lambda e, c: (e, c * k))),
            (a.scale(q), oracle_map(ta, lambda e, c: (e, c * q))),
            (q * a, oracle_map(ta, lambda e, c: (e, c * q))),
            (a.diff(axis), oracle_sum(*({tuple(map(lambda x, u: x - u, e, unit)): c * e[axis]}
                                        for e, c in ta.items() if e[axis]))),
            (a.box(), oracle_box(ta)),
            (a.euler_h(), oracle_map(ta, lambda e, c: (e, c * sum(e)))),
            (Polynomial.constant(dim, q), oracle_sum({(0,) * dim: q})),
            (Polynomial(dim, {unit: q}), oracle_sum({unit: q})),
        ]
        for got, expected in results:
            self.assert_form(got, expected)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 4, 6]).flatmap(
        lambda n: st.tuples(polynomials(n), st.integers(0, n // 2 - 1), st.just(n))))
    def test_recursion_step(self, case):
        p, r, n = case
        factor = Fraction(2 * (r + 1), (n - 2 * r) * (n + 2 * r + 2))
        self.assert_form(recursion_step(p, n, r), oracle_map(
            p.terms, lambda e, c: (e, c * factor * (2 * sum(e) + n - 2 * r - 4))))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(rho_exprs),
           st.fractions(-5, 5, max_denominator=9) | st.integers(-6, 6))
    def test_rho_expr_scale(self, expr, q):
        """RhoExpr.scale equals scaling each layer over den and normalizing the pairs."""
        got = expr.scale(q)
        assert got == normalize([(s, p.scale(q)) for s, p in expr.layers.items()], expr.dim)
        for s, p in got.layers.items():
            self.assert_form(p, oracle_map(got.num[s].terms, lambda e, c: (e, c / got.den)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(rho_exprs),
           st.fractions(-5, 5, max_denominator=9))
    def test_layers(self, expr, q):
        for x in (expr, expr.scale(q)):
            for s, p in x.layers.items():
                self.assert_form(p, oracle_map(x.num[s].terms,
                                               lambda e, c: (e, c / x.den)))


class TestArithmetic:
    def test_rho_times_relation(self):
        assert RhoExpr.rho(2) * RhoExpr.from_polynomial(one_plus_xx(2)) == RhoExpr.rho(2, 0)

    def test_additive_inverse(self):
        rho = RhoExpr.rho(2)
        assert (rho + (-rho)).is_zero()

    def test_rho_squared(self):
        assert RhoExpr.rho(2) * RhoExpr.rho(2) == RhoExpr.rho(2, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError, match="dim 2 vs 3"):
            RhoExpr.rho(2) + RhoExpr.rho(3)

    @settings(max_examples=50, deadline=None)
    @given(rho_exprs(2), rho_exprs(2), rho_exprs(2))
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestDerivatives:
    def test_dt_rho(self):
        expected = normalize([(2, Polynomial.coordinate(2, 0).scale(2))], 2)
        assert RhoExpr.rho(2).diff(0) == expected

    def test_polynomial_power_rule(self):
        x3 = RhoExpr.from_polynomial(Polynomial(2, {(0, 3): 1}))
        assert x3.diff(1) == RhoExpr.from_polynomial(Polynomial(2, {(0, 2): 3}))

    def test_constant(self):
        assert RhoExpr.rho(2, 0).scale(5).diff(0).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(rho_exprs(3, max_power=2, max_degree=2))
    def test_partials_commute(self, expr):
        for a in range(3):
            for b in range(a + 1, 3):
                assert expr.diff(a).diff(b) == expr.diff(b).diff(a)

    @settings(max_examples=40, deadline=None)
    @given(rho_exprs(2, max_power=2, max_degree=2),
           rho_exprs(2, max_power=2, max_degree=2))
    def test_leibniz(self, a, b):
        for axis in range(2):
            assert (a * b).diff(axis) == a.diff(axis) * b + a * b.diff(axis)


class TestOperators:
    def test_box_rho_n2(self):
        expected = RhoExpr.rho(2, 2).scale(4) + RhoExpr.rho(2, 3).scale(-8)
        assert RhoExpr.rho(2).box() == expected

    def test_box_t_squared(self):
        t2 = RhoExpr.from_polynomial(Polynomial(2, {(2, 0): 1}))
        assert t2.box() == RhoExpr.rho(2, 0).scale(-2)

    def test_box_mixed_monomial(self):
        tx = RhoExpr.from_polynomial(Polynomial(2, {(1, 1): 1}))
        assert tx.box().is_zero()

    def test_euler_eigenvalue(self):
        tx = RhoExpr.from_polynomial(Polynomial(2, {(1, 1): 1}))
        assert tx.euler_h() == tx.scale(2)

    def test_euler_rho(self):
        expected = RhoExpr.rho(2).scale(-2) + RhoExpr.rho(2, 2).scale(2)
        assert RhoExpr.rho(2).euler_h() == expected

    def test_euler_constant(self):
        assert RhoExpr.rho(2, 0).euler_h().is_zero()

    def test_euler_rho_crosscheck_numeric(self):
        """H(rho) * (1+x.x)^2 should equal -2 x.x pointwise."""
        rng = np.random.default_rng(3)
        pts = nonsingular_points(rng, 2, 25)
        h_rho = RhoExpr.rho(2).euler_h().eval_points(pts)
        norm_sq = -pts[:, 0] ** 2 + pts[:, 1] ** 2
        assert np.allclose(h_rho * (1 + norm_sq) ** 2, -2 * norm_sq, rtol=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_lemma1_closed_form(self, n):
        for r in range(1, 6):
            lhs = RhoExpr.rho(n, r).box()
            rhs = (RhoExpr.rho(n, r + 1).scale(-2 * n * r + 4 * r * (r + 1))
                   + RhoExpr.rho(n, r + 2).scale(-4 * r * (r + 1)))
            assert lhs == rhs

    @settings(max_examples=30, deadline=None)
    @given(rho_exprs(3, max_power=2, max_degree=3))
    def test_box_euler_commutator(self, expr):
        lhs = expr.euler_h().box() - expr.box().euler_h()
        assert lhs == expr.box().scale(2)


def diff_chain_box(x):
    """Reference box: -d0 d0 + sum_i di di, one diff at a time."""
    out = -x.diff(0).diff(0)
    for axis in range(1, x.dim):
        out = out + x.diff(axis).diff(axis)
    return out


def diff_chain_euler_h(x):
    """Reference H: sum_mu x_mu d_mu, one diff at a time."""
    out = x.scale(0)
    lift = RhoExpr.from_polynomial if isinstance(x, RhoExpr) else (lambda p: p)
    for axis in range(x.dim):
        out = out + lift(Polynomial.coordinate(x.dim, axis)) * x.diff(axis)
    return out


class TestClosedFormOperators:
    """box and euler_h equal their diff-chain definitions, structurally.

    The commutator law checks box and H only against each other, so a wrong
    closed-form coefficient can pass it; these compare each with diff.
    """

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=4).flatmap(rho_exprs))
    def test_rho_expr(self, expr):
        assert expr.box() == diff_chain_box(expr)
        assert expr.euler_h() == diff_chain_euler_h(expr)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(polynomials))
    def test_polynomial(self, poly):
        assert poly.box() == diff_chain_box(poly)
        assert poly.euler_h() == diff_chain_euler_h(poly)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_solution_bundles(self, n):
        for k in range(4):
            for seed in wave_basis(n, k).elements:
                bundle = build_phi(seed, n, check=False)
                for x in (bundle.phi,) + bundle.coefficients:
                    assert x.box() == diff_chain_box(x)
                    assert x.euler_h() == diff_chain_euler_h(x)


class TestEval:
    def test_rho_at_origin(self):
        assert RhoExpr.rho(2).eval_points([(0.0, 0.0)])[0] == 1.0

    def test_x_rho(self):
        x_rho = RhoExpr.from_polynomial(Polynomial.coordinate(2, 1)) * RhoExpr.rho(2)
        assert x_rho.eval_points([(0.0, 1.0)])[0] == pytest.approx(0.5, abs=1e-15)

    def test_scalar_point(self):
        assert RhoExpr.rho(1).eval_points([[0.5]])[0] == pytest.approx(4 / 3)
        with pytest.raises(DomainError, match="points have 1 coords, expected 2"):
            RhoExpr.rho(2).eval_points([[0.5]])
        with pytest.raises(DomainError, match="points have 1 coords, expected 3"):
            Polynomial.coordinate(3, 1).eval_points([[0.5]])

    def test_singular_point(self):
        with pytest.raises(DomainError, match="evaluation on the singular set"):
            RhoExpr.rho(2).eval_points([(2 ** 0.5, 1.0)])

    def test_singular_tolerance_boundary(self):
        """|1 + x.x| = 1e-12 exactly still evaluates; one ulp closer is singular."""
        assert RhoExpr.rho(2).eval_points([(1.0, 1e-6)])[0] == pytest.approx(1e12)
        with pytest.raises(DomainError, match="evaluation on the singular set"):
            RhoExpr.rho(2).eval_points([(1.0, np.nextafter(1e-6, 0.0))])

    def test_margin(self):
        points = np.array([[2.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.5, 0.0, 1.0]])
        assert margin(points).tolist() == [-1.0, 1.0, 1.75]

    def test_margin_overflow(self):
        """Squares that overflow give an infinite or NaN margin, which every guard refuses;
        the guards compute it under np.errstate, so no RuntimeWarning escapes them."""
        with np.errstate(over="ignore", invalid="ignore"):
            m = margin(np.array([[0.2, 1e200], [1e200, 0.0], [1e200, 1e200], [np.inf, np.inf]]))
        assert m[0] == np.inf and m[1] == -np.inf and np.isnan(m[2:]).all()

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_margin_bitwise_row_reduction(self, dim):
        """Column sums give the row-wise reduction's doubles, at dim 1 (no spatial axes) too."""
        rng = np.random.default_rng(dim)
        points = rng.uniform(-3.0, 3.0, (257, dim)) * rng.choice([1e-9, 1.0, 1e6], (257, dim))
        sq = points ** 2
        row_wise = 1.0 - sq[:, 0] + np.add.reduce(sq[:, 1:], axis=1)
        assert np.array_equal(margin(points), row_wise)
        assert margin(np.empty((0, dim))).shape == (0,)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_reference_evaluator(self, dim, data):
        expr = data.draw(rho_exprs(dim, max_power=4))
        poly = data.draw(polynomials(dim, max_degree=6))
        pts = nonsingular_points(np.random.default_rng(dim), dim, 12)
        assert_matches_reference(expr, expr.layers, pts)
        assert_matches_reference(poly, {0: poly}, pts)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_special_elements_and_empty_points(self, dim):
        pts = nonsingular_points(np.random.default_rng(dim), dim, 12)
        cases = [normalize([], dim), RhoExpr.rho(dim, 0).scale(Fraction(-3, 7)), RhoExpr.rho(dim),
                 RhoExpr.rho(dim, 5), Polynomial.zero(dim), Polynomial.constant(dim, 5)]
        for x in cases:
            layers = x.layers if isinstance(x, RhoExpr) else {0: x}
            assert_matches_reference(x, layers, pts)
            assert x.eval_points(np.empty((0, dim))).shape == (0,)
            with pytest.raises(DomainError, match=f"points have {dim + 1} coords, expected {dim}"):
                x.eval_points(np.zeros((3, dim + 1)))

    def test_polynomial_has_no_singular_set(self):
        assert Polynomial.coordinate(2, 0).eval_points([(1.0, 0.0)])[0] == 1.0  # 1 + x.x = 0 here

    def test_radial_polynomials_in_u(self):
        u = np.linspace(-0.9, 0.9, 19)[:, None]
        for n, k in [(2, 2), (4, 3), (6, 1), (8, 4)]:
            p = radial_numerator(n, k)
            assert_matches_reference(p, {0: p}, u)


def reference_eval(layers, points):
    """Term-by-term sum of float(c) * prod(points ** exps) * rho^s, rho = 1/(1 - t^2 + sum xi^2).

    Also returns the sum of the terms' magnitudes, the scale of a relative tolerance.
    """
    rho = 1.0 / (1.0 - points[:, 0] ** 2 + np.sum(points[:, 1:] ** 2, axis=1))
    value, scale = np.zeros(len(points)), np.zeros(len(points))
    for s, p in layers.items():
        for exps, c in p.terms.items():
            term = float(c) * np.prod(points ** np.array(exps), axis=1) * rho ** s
            value += term
            scale += np.abs(term)
    return value, scale


def assert_matches_reference(x, layers, points):
    value, scale = reference_eval(layers, points)
    assert np.all(np.abs(x.eval_points(points) - value) <= 1e-14 * scale)


@settings(max_examples=40, deadline=None)
@given(polynomials(3), polynomials(3))
def test_polynomial_ring_laws(a, b):
    assert a * b == b * a
    assert a + b == b + a
    assert (a - b) + b == a


@st.composite
def bound_terms(draw, dim, max_degree=MAX_TOTAL_DEGREE):
    """{exponent tuple: coefficient} of total degrees up to max_degree: each tuple is a
    composition of a drawn degree into dim parts."""
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        degree = draw(st.integers(min_value=0, max_value=max_degree))
        cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=degree),
                                    min_size=dim - 1, max_size=dim - 1)))
        exps = tuple(b - a for a, b in zip([0, *cuts], [*cuts, degree]))
        terms[exps] = draw(st.fractions(min_value=-4, max_value=4, max_denominator=3))
    return dim, terms


DIMS = st.integers(min_value=1, max_value=8)


@settings(max_examples=80, deadline=None)
@given(DIMS.flatmap(bound_terms))
@example((1, {(MAX_TOTAL_DEGREE,): 1}))
@example((8, {(0,) * 7 + (MAX_TOTAL_DEGREE,): 2, (MAX_TOTAL_DEGREE,) + (0,) * 7: -1,
              (1,) * 8: Fraction(1, 2)}))
def test_packed_keys_round_trip(case):
    """The tuple view of the packed keys gives back the polynomial, in its term order,
    and the keys sort as descending graded-lex (degree, then t, x1, ... lexically)."""
    dim, terms = case
    p = Polynomial(dim, terms)
    assert Polynomial(dim, p.terms) == p
    assert list(p.terms) == [e for e in terms if terms[e]]
    assert p.sorted_terms() == sorted(p.terms.items(), key=lambda item: (sum(item[0]), item[0]),
                                      reverse=True)
    assert p.degree() == max((sum(e) for e in p.terms), default=-1)


@settings(max_examples=40, deadline=None)
@given(DIMS.flatmap(lambda dim: st.tuples(bound_terms(dim, MAX_TOTAL_DEGREE // 2),
                                          bound_terms(dim, MAX_TOTAL_DEGREE // 2))))
def test_packed_product_matches_tuples(pair):
    """A product of packed keys is the product on exponent tuples, term order included,
    up to the degree bound."""
    (dim, a), (_, b) = pair
    p, q = Polynomial(dim, a), Polynomial(dim, b)
    ref = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(map(add, e1, e2))
            ref[e] = ref.get(e, 0) + c1 * c2
    assert list((p * q).terms.items()) == [(e, c) for e, c in ref.items() if c]


# Input checks and display branches that no other test reaches, as (call, the error
# it raises and a pattern of its message) or (call, None, the value it returns).
EDGE_CASES = {
    "polynomial-dim-below-one": (lambda: Polynomial(0), DomainError, "dim must be >= 1"),
    "exponents-of-wrong-length": (lambda: Polynomial(2, {(1,): 1}), DomainError,
                                  r"exponent tuple \(1,\) does not match dim 2"),
    "negative-exponent": (lambda: Polynomial(2, {(1, -1): 1}), ValueError,
                          "negative exponent"),
    # exponents and rho powers are integers of any integral type, never truncated or parsed
    "float-exponent": (lambda: Polynomial(2, {(1.9, 0): 1}), ValueError,
                       r"non-integer or negative exponent in \(1\.9, 0\)"),
    "string-exponent": (lambda: Polynomial(2, {("2", 0): 1}), ValueError,
                        r"non-integer or negative exponent in \('2', 0\)"),
    # a coefficient or scalar is a number; text is refused by name, never parsed
    "string-coefficient": (lambda: Polynomial(2, {(1, 0): "1/3"}), ValueError,
                           "coefficients must be numbers, got the string '1/3'"),
    "string-coefficient-among-ints": (lambda: Polynomial(2, {(1, 0): 1, (0, 1): " 2 "}),
                                      ValueError, "got the string ' 2 '"),
    "string-constant": (lambda: Polynomial.constant(2, "3"), ValueError, "got the string '3'"),
    "polynomial-scale-by-string": (lambda: Polynomial(2, {(1, 0): 1}).scale(" 2 "), ValueError,
                                   "coefficients must be numbers, got the string ' 2 '"),
    "rho-expr-scale-by-string": (lambda: RhoExpr.rho(2).scale("1/3"), ValueError,
                                 "got the string '1/3'"),
    "zero-rho-expr-scale-by-string": (lambda: normalize([], 2).scale("2"), ValueError,
                                      "got the string '2'"),
    "numbers-still-scale": (
        lambda: (Polynomial(2, {(1, 0): 1}).scale(2).terms,
                 Polynomial(2, {(1, 0): 0.5, (0, 1): Fraction(1, 3)}).terms,
                 RhoExpr.rho(2).scale(Fraction(2, 5))
                 == normalize([(1, Polynomial.constant(2, Fraction(2, 5)))], 2),
                 RhoExpr.rho(2).scale(0.25) == normalize([(1, Polynomial.constant(2, 0.25))], 2),
                 normalize([], 2).scale(Fraction(7, 3)).is_zero()),
        None, ({(1, 0): 2}, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)}, True, True, True)),
    "float-rho-power": (lambda: RhoExpr.rho(2, 2.5), ValueError,
                        "rho powers must be non-negative integers, got 2.5"),
    "normalize-float-rho-power": (lambda: normalize([(1.5, Polynomial.coordinate(2, 1))], 2),
                                  ValueError, "rho powers must be non-negative integers, got 1.5"),
    "numpy-ints-read-as-ints": (
        lambda: ([type(s) for s in normalize([(np.int32(3), Polynomial.constant(2, 1))], 2).num],
                 RhoExpr.rho(2, np.int64(2)) == RhoExpr.rho(2, 2),
                 Polynomial(4, {(np.int64(2), np.uint8(1), np.int32(1), 0): 3})
                 == Polynomial(4, {(2, 1, 1, 0): 3})),
        None, ([int], True, True)),
    # one checked way in: normalize for a RhoExpr, from_polynomial to multiply by a Polynomial
    "rho-expr-from-rational-layers": (lambda: RhoExpr(2, {0: Polynomial.constant(2, 1)}),
                                      TypeError, "RhoExpr has no public constructor"),
    # no public call stores a key that is not an exponent tuple, or a RhoExpr not in normal form
    "polynomial-terms-over-den": (
        lambda: (str(Polynomial(2, {(1, 0): 3}, 2)),
                 Polynomial(2, {(1, 0): 3}, 2) == Polynomial(2, {(1, 0): Fraction(3, 2)}),
                 Polynomial(2, {(1, 0): Fraction(3, 2), (0, 1): 1}, np.int64(3)).terms),
        None, ("3/2*t", True, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)})),
    "polynomial-int-key": (lambda: Polynomial(2, {5: 1}, 1), ValueError,
                           "non-integer or negative exponent in 5"),
    "rho-expr-of-a-layer-not-in-normal-form": (
        lambda: RhoExpr(2, {1: Polynomial(2, {(2, 0): 1})}, 1), TypeError,
        "RhoExpr has no public constructor"),
    "normalize-of-int-layers": (lambda: normalize({1: {5: 1}}, 2), TypeError, "cannot unpack"),
    "normalize-of-a-dict-layer": (lambda: normalize([(1, {5: 1})], 2), TypeError,
                                  r"\(rho power, Polynomial\) pairs, got \{5: 1\}"),
    "polynomial-den-below-one": (lambda: Polynomial(2, {(1, 0): 1}, 0), DomainError,
                                 "den must be >= 1, got 0"),
    "polynomial-fraction-den": (lambda: Polynomial(2, {(1, 0): 1}, Fraction(1, 2)), ValueError,
                                "den must be an integer >= 1, got Fraction"),
    # dims are integers of any integral type, read as ints; nothing else is one
    "float-dim": (lambda: Polynomial(2.5, {(1, 0): 1}), ValueError,
                  "dim must be an integer >= 1, got 2.5"),
    "string-dim": (lambda: Polynomial("2", {}), ValueError, "dim must be an integer >= 1, got '2'"),
    "normalize-float-dim": (lambda: normalize([], 2.5), ValueError,
                            "dim must be an integer >= 1, got 2.5"),
    "coordinate-float-dim": (lambda: Polynomial.coordinate(2.0, 0), ValueError,
                             "dim must be an integer >= 1, got 2.0"),
    "numpy-dims-and-axes-read-as-ints": (
        lambda: (type(Polynomial(np.int64(2)).dim), type(normalize([], np.int32(2)).dim),
                 [type(k) for k in Polynomial.coordinate(np.int64(2), np.int64(1)).packed],
                 Polynomial.coordinate(2, np.int64(1)).diff(np.int64(1))
                 == Polynomial.constant(2, 1)),
        None, (int, int, [int], True)),
    "copy-and-pickle": (
        lambda: [pickle.loads(pickle.dumps(x)) == x == copy.deepcopy(x) for x in
                 (Polynomial(3, {(1, 2, 0): Fraction(1, 3)}),
                  RhoExpr.rho(2).scale(Fraction(2, 5)))],
        None, [True, True]),
    # the public faces of what the wave basis and the recursion compute on keys
    "wave-needs-t-degree-at-most-one": (lambda: Polynomial.wave(2, (2, 0)), ValueError,
                                        r"exponents \(2, 0\): t-degree 2 > 1"),
    "wave-of-a-monomial": (lambda: str(Polynomial.wave(3, (1, 2, 0))), None, "t^3 + 3*t*x1^2"),
    "polynomial-h-affine": (lambda: Polynomial(2, {(1, 1): 1, (0, 0): 5}).euler_h(2, -1).terms,
                            None, {(1, 1): 3, (0, 0): -5}),
    "polynomial-h-affine-needs-integers": (lambda: Polynomial.constant(2, 1).euler_h(0.5),
                                           TypeError, "'float' object cannot be interpreted"),
    "box-with-rho-squared": (lambda: RhoExpr.rho(2).box(8) == RhoExpr.rho(2).box()
                             + RhoExpr.rho(2, 3).scale(8), None, True),
    "rho-expr-times-polynomial": (lambda: RhoExpr.rho(2) * Polynomial.coordinate(2, 1),
                                  TypeError, "unsupported operand"),
    "polynomial-times-rho-expr": (lambda: Polynomial.coordinate(2, 1) * RhoExpr.rho(2),
                                  TypeError, "unsupported operand"),
    # points are an (m, dim) array, one point a row; any other shape is refused by name
    "eval-points-of-one-point": (lambda: RhoExpr.rho(2).eval_points(np.array([0.1, 0.2])),
                                 DomainError, r"points of shape \(2,\), expected \(m, 2\)"),
    "polynomial-eval-points-of-a-scalar": (lambda: Polynomial.coordinate(2, 1).eval_points(0.5),
                                           DomainError, r"points of shape \(\), expected \(m, 2\)"),
    "on-slice-needs-dim-2": (lambda: RhoExpr.rho(3).on_slice(0.0), DomainError, "dim 3 vs 2"),
    "on-slice-of-a-string": (lambda: RhoExpr.rho(2).on_slice("0.1"), ValueError,
                             "coefficients must be numbers, got the string '0.1'"),
    "removed-constructors": (lambda: (hasattr(Polynomial, "monomial"), hasattr(RhoExpr, "zero")),
                             None, (False, False)),
    "zero-constant-has-no-terms": (lambda: Polynomial.constant(2, 0).terms, None, {}),
    "coordinate-axis-out-of-range": (lambda: Polynomial.coordinate(2, -1), DomainError,
                                     "axis -1 out of range for dim 2"),
    "polynomial-diff-axis-out-of-range": (lambda: Polynomial.coordinate(2, 0).diff(-1),
                                          DomainError, "axis -1 out of range for dim 2"),
    "rho-expr-diff-axis-out-of-range": (lambda: RhoExpr.rho(2).diff(2), DomainError,
                                        "axis 2 out of range for dim 2"),
    "negative-rho-power": (lambda: RhoExpr.rho(2, -1), ValueError,
                           "rho powers must be non-negative"),
    "constructor-above-degree-bound": (
        lambda: Polynomial(2, {(MAX_TOTAL_DEGREE, 1): 1}), DomainError,
        rf"exponents \({MAX_TOTAL_DEGREE}, 1\): total degree > {MAX_TOTAL_DEGREE}"),
    "product-above-degree-bound": (
        lambda: Polynomial(2, {(0, MAX_TOTAL_DEGREE): 1}) * Polynomial.coordinate(2, 0),
        DomainError, f"product of total degree {MAX_TOTAL_DEGREE + 1} > {MAX_TOTAL_DEGREE}"),
    "product-at-degree-bound": (
        lambda: (Polynomial(2, {(0, MAX_TOTAL_DEGREE - 1): 1}) * Polynomial.coordinate(2, 0)).terms,
        None, {(1, MAX_TOTAL_DEGREE - 1): 1}),
    "normalize-negative-rho-power": (lambda: normalize([(-1, Polynomial.constant(2, 1))], 2),
                                     ValueError, "rho powers must be non-negative"),
    "rho-expr-times-int": (lambda: RhoExpr.rho(2) * 3, None, RhoExpr.rho(2).scale(3)),
    "minus-rho-display": (lambda: str(-RhoExpr.rho(2)), None, "-rho"),
    "initial-data-nan-slice": (lambda: InitialData(a=math.nan, u0=np.cos, v0=np.sin),
                               DomainError, "data slice t = a must be finite, got nan"),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_input_checks_and_display_edges(case):
    call, error, expected = EDGE_CASES[case]
    if error is None:
        assert call() == expected
    else:
        with pytest.raises(error, match=expected):
            call()


def test_only_ring_knows_the_packed_keys():
    """No module of the package but ring imports an underscored name from ring, reads
    ring._name, or reads .packed: the key layout and the trusted constructors stay in ring."""
    offences = []
    for path in sorted(Path(ring.__file__).parent.glob("*.py")):
        if path.name == "ring.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "ring":
                offences += [f"{path.name}:{node.lineno}: imports {alias.name}"
                             for alias in node.names if alias.name.startswith("_")]
            elif isinstance(node, ast.Attribute) and (
                    node.attr == "packed" or node.attr.startswith("_")
                    and isinstance(node.value, ast.Name) and node.value.id == "ring"):
                offences.append(f"{path.name}:{node.lineno}: reads .{node.attr}")
    assert offences == []
