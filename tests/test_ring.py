import math
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import nonsingular_points, polynomials, rho_exprs
from pertwave.basis import wave_basis
from pertwave.errors import DimensionMismatch, SingularPoint
from pertwave.hyp2f1 import radial_numerator
from pertwave.ring import Polynomial, RhoExpr, margin, normalize
from pertwave.serialize import doc_to_expr, expr_to_doc
from pertwave.solutions import build_phi, residual


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
        assert got == RhoExpr.constant(2, 1)

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
                assert p.t_degree() <= 1

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
        assert rem.t_degree() <= 1
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
        assert_canonical(a, Polynomial.constant(3, Fraction(4, 2)), RhoExpr.constant(2, 1.0),
                         Polynomial.coordinate(2, 1), Polynomial.monomial(2, (1, 1), Fraction(3)),
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
                    truncated = RhoExpr(n, {r: p for r, p in bundle.phi.layers.items() if r})
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
        rebuilt = RhoExpr(x.dim, x.layers)
        assert rebuilt == x and hash(rebuilt) == hash(x)
        assert x + y - y == x and hash(x + y - y) == hash(x)

    def test_layers_view(self):
        """With den 1 the view is the int layers; otherwise it is built once, on first read."""
        t = Polynomial.coordinate(2, 0)
        ints = RhoExpr.from_polynomial(t, 1).scale(3)
        assert ints.den == 1 and ints.layers is ints.num
        half = ints.scale(Fraction(1, 6))
        assert half.den == 2 and half.num == ints.scale(Fraction(1, 3)).num
        assert half.layers == {1: Polynomial(2, {(1, 0): Fraction(1, 2)})}
        assert half.layers is half.layers
        assert RhoExpr.constant(2, Fraction(-3, 4)).den == 4
        assert ints.scale(Fraction(1, 6)) - half == RhoExpr.zero(2) == RhoExpr.zero(2).scale(5)
        assert (half - half).den == 1
        assert half != ints.scale(Fraction(1, 3)) and hash(half) != hash(ints.scale(Fraction(1, 3)))


class TestArithmetic:
    def test_rho_times_relation(self):
        assert RhoExpr.rho(2) * RhoExpr.from_polynomial(one_plus_xx(2)) \
            == RhoExpr.constant(2, 1)

    def test_additive_inverse(self):
        rho = RhoExpr.rho(2)
        assert (rho + (-rho)).is_zero()

    def test_rho_squared(self):
        assert RhoExpr.rho(2) * RhoExpr.rho(2) == RhoExpr.rho(2, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
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
        assert RhoExpr.constant(2, 5).diff(0).is_zero()

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
        assert t2.box() == RhoExpr.constant(2, -2)

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
        assert RhoExpr.constant(2, 1).euler_h().is_zero()

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
    for axis in range(x.dim):
        out = out + Polynomial.coordinate(x.dim, axis) * x.diff(axis)
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
        assert RhoExpr.rho(2)((0.0, 0.0)) == 1.0

    def test_x_rho(self):
        x_rho = RhoExpr.from_polynomial(Polynomial.coordinate(2, 1)) * RhoExpr.rho(2)
        assert x_rho((0.0, 1.0)) == pytest.approx(0.5, abs=1e-15)

    def test_scalar_point(self):
        assert RhoExpr.rho(1)(0.5) == pytest.approx(4 / 3)
        with pytest.raises(DimensionMismatch):
            RhoExpr.rho(2)(0.5)
        with pytest.raises(DimensionMismatch):
            Polynomial.coordinate(3, 1)(0.5)

    def test_singular_point(self):
        with pytest.raises(SingularPoint):
            RhoExpr.rho(2)((2 ** 0.5, 1.0))

    def test_singular_tolerance_boundary(self):
        """|1 + x.x| = 1e-12 exactly still evaluates; one ulp closer is singular."""
        assert RhoExpr.rho(2)((1.0, 1e-6)) == pytest.approx(1e12)
        with pytest.raises(SingularPoint):
            RhoExpr.rho(2)((1.0, np.nextafter(1e-6, 0.0)))

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
        cases = [RhoExpr.zero(dim), RhoExpr.constant(dim, Fraction(-3, 7)), RhoExpr.rho(dim),
                 RhoExpr.rho(dim, 5), Polynomial.zero(dim), Polynomial.constant(dim, 5)]
        for x in cases:
            layers = x.layers if isinstance(x, RhoExpr) else {0: x}
            assert_matches_reference(x, layers, pts)
            assert x.eval_points(np.empty((0, dim))).shape == (0,)
            with pytest.raises(DimensionMismatch):
                x.eval_points(np.zeros((3, dim + 1)))

    def test_polynomial_has_no_singular_set(self):
        assert Polynomial.coordinate(2, 0)((1.0, 0.0)) == 1.0  # 1 + x.x = 0 here

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
