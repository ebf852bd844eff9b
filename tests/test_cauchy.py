import json
import math
import re
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from pertwave import cauchy, quadrature, ring
from pertwave.basis import wave_basis
from pertwave.cauchy import (Field2D, Grid2D, InitialData, evolve_grid,
                             evolve_point, fd_reference,
                             initial_condition_check, pde_residual_fd)
from pertwave.errors import DomainError, ToleranceNotMet
from pertwave.quadrature import QuadratureSpec, adaptive_gauss
from pertwave.ring import Polynomial, RhoExpr
from pertwave.serialize import doc_to_expr
from pertwave.solutions import build_phi

# a warning (say a divide on a row on t = a) fails the test
pytestmark = pytest.mark.filterwarnings("error")

Q = QuadratureSpec()


def exact_x_rho():
    """The solution x/(1 + x^2 - t^2), built from the seed x."""
    return build_phi(Polynomial(2, {(0, 1): Fraction(1)}), 2).phi


def exact_tx():
    """The solution t x (1/2 + rho), built from the seed t x."""
    return build_phi(Polynomial(2, {(1, 1): Fraction(1)}), 2).phi


def degree_three_phi():
    """The degree-3 datum of tests/golden/evolve_n2_deg3.json."""
    return (build_phi(Polynomial(2, {(3, 0): 1, (1, 2): 3}), 2).phi
            + build_phi(Polynomial(2, {(2, 1): 3, (0, 3): 1}), 2).phi.scale(Fraction(2, 3)))


def phi_eval(expr, x, t):
    return float(expr.eval_points(np.array([[t, x]]))[0])


def reference_point(d, x, t, q):
    """The closed form node by node: two one-row adaptive_gauss batches."""
    a, delta = d.a, t - d.a
    margin = 1.0 + x * x - t * t
    boundary = 0.5 * float(d.u0(np.array([x - delta]))[0]
                           + d.u0(np.array([x + delta]))[0])
    if delta == 0.0:
        return boundary

    def k1(w):
        den = 1.0 - a * a + w * w
        num = t * (1.0 + a * a + w * w) + a * (x * x - 2.0 * w * x - t * t - 1.0)
        return num / (margin * den * den) * d.u0(w)

    def k2(w):
        den = 1.0 - a * a + w * w
        num = (1.0 - x * x + t * t) * (1.0 + a * a - w * w) - 4.0 * a * t + 4.0 * w * x
        return num / (margin * den) * d.v0(w)

    i1 = adaptive_gauss(k1, [x + delta], [x - delta], q)
    i2 = adaptive_gauss(k2, [x + delta], [x - delta], q)
    assert i1.shape == i2.shape == (1,)
    return boundary - 2.0 * i1[0] - 0.5 * i2[0]


def row_by_row_reference(d, x, t, q):
    """Reference closed form at the nodes (x[k], t[k]) of one row, with every
    check, the boundary terms and the quadrature taken for this row alone."""
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    ring.check_margin(cauchy._tx_rows(t, x), cauchy.EPS_SING,
                      lambda p: f"point (x={p[1]}, t={p[0]})")
    delta = t - d.a
    ends = d.u0(np.concatenate([x - delta, x + delta]))
    out = 0.5 * (ends[:x.size] + ends[x.size:])
    if not delta.any():  # all nodes on the data slice t = a
        return out
    w_lo, w_hi = x + delta, x - delta
    cauchy._check_data_intervals(d.a, w_lo[None], w_hi[None])
    a, xk, tk, scale = d.a, x[:, None], t[:, None], (1.0 + x * x - t * t)[:, None]

    def kernel(w):
        w2 = w * w
        den = 1.0 - a * a + w2
        k1 = tk * (1.0 + a * a + w2) + a * (xk * xk - 2.0 * w * xk - tk * tk - 1.0)
        k1 *= d.u0(w.ravel()).reshape(w.shape) / (0.5 * scale * den * den)
        k2 = np.subtract(1.0 + a * a, w2, out=w2)
        k2 *= 1.0 - xk * xk + tk * tk
        k2 -= 4.0 * a * tk
        k2 += 4.0 * w * xk
        k2 *= d.v0(w.ravel()).reshape(w.shape) / (2.0 * scale * den)
        return np.add(k1, k2, out=k1)

    return out - adaptive_gauss(kernel, w_lo, w_hi, q)


def reference_grid(d, g, q):
    """evolve_grid one time row at a time through row_by_row_reference."""
    g.check_singularity()
    return np.column_stack([row_by_row_reference(d, g.xs(), t, q) for t in g.ts()])


class TestEvolvePoint:
    @pytest.mark.parametrize("a", [0.0, 0.2, -0.3])
    def test_reproduces_exact_solution(self, a):
        expr = exact_x_rho()
        d = InitialData.from_rho_expr(expr, a=a)
        for x, t in [(0.3, a + 0.2), (-0.5, a + 0.4), (0.0, a + 0.35), (0.7, a)]:
            got = evolve_point(d, x, t, Q)
            assert got == pytest.approx(phi_eval(expr, x, t), abs=1e-12)

    def test_second_solution(self):
        expr = exact_tx()
        d = InitialData.from_rho_expr(expr, a=0.1)
        got = evolve_point(d, 0.4, 0.45, Q)
        assert got == pytest.approx(phi_eval(expr, 0.4, 0.45), abs=1e-12)

    def test_backwards_in_time(self):
        expr = exact_x_rho()
        d = InitialData.from_rho_expr(expr, a=0.3)
        got = evolve_point(d, 0.2, 0.05, Q)
        assert got == pytest.approx(phi_eval(expr, 0.2, 0.05), abs=1e-12)

    def test_causality_bitwise(self):
        """Data changed outside the dependence interval leaves the value
        bit-for-bit identical."""
        expr = exact_x_rho()
        d = InitialData.from_rho_expr(expr)
        x, t = 0.1, 0.3
        lo, hi = x - t, x + t

        def tampered_u0(w):
            w = np.atleast_1d(np.asarray(w, dtype=float))
            out = d.u0(w).copy()
            outside = (w < lo - 1e-9) | (w > hi + 1e-9)
            out[outside] += 100.0
            return out

        d2 = InitialData(a=0.0, u0=tampered_u0, v0=d.v0)
        assert evolve_point(d2, x, t, Q) == evolve_point(d, x, t, Q)

    def test_singular_point_rejected(self):
        d = InitialData.from_rho_expr(exact_x_rho())
        message = "point (x=0.0, t=1.0): margin 1 + x.x = 0.0, not in [0.001, inf)"
        with pytest.raises(DomainError, match=re.escape(message)):
            evolve_point(d, 0.0, 1.0, Q)

    def test_singular_margin_boundary(self):
        """At x = 0, the last double t with 1 - t^2 >= 1e-3 evolves; the next is singular."""
        phi = build_phi(Polynomial.constant(2, 1), 2).phi
        d = InitialData.from_rho_expr(phi)
        inside, outside = 0.9994998749374608, 0.999499874937461
        assert 1.0 - inside ** 2 >= 1e-3 > 1.0 - outside ** 2
        assert evolve_point(d, 0.0, inside, Q) == pytest.approx(phi_eval(phi, 0.0, inside))
        with pytest.raises(DomainError, match=re.escape("point (x=0.0, t=0.999499874937461):")):
            evolve_point(d, 0.0, outside, Q)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e200, -1e200])
    @pytest.mark.parametrize("axis", ["x", "t"])
    def test_non_finite_node_rejected(self, bad, axis):
        """NaN, an infinite x or t, or one whose square overflows, fails the node
        guard before the data are sampled."""
        def never(w):
            raise AssertionError("sampled the data at a non-finite node")

        d = InitialData(a=0.0, u0=never, v0=never)
        x, t = (bad, 0.3) if axis == "x" else (0.2, bad)
        with pytest.raises(DomainError, match=re.escape(f"point (x={x}, t={t}): margin")):
            evolve_point(d, x, t, Q)

    def test_overflow_is_a_domain_error(self):
        """Every guard passes, but w^2 on the data intervals (|w| near 2e154) overflows:
        the grid and the point raise DomainError, with no RuntimeWarning (which fails
        this module) and no quadrature left to exhaust its budget."""
        d = InitialData.from_rho_expr(build_phi(Polynomial(2, {(1, 0): 1}), 2).phi)
        message = "closed-form evolution: overflow encountered"
        with pytest.raises(DomainError, match=message):
            evolve_grid(d, Grid2D(1e154, 1.3e154, 3, 0.0, 9e153, 3), Q)
        with pytest.raises(DomainError, match=message):
            evolve_point(d, 1.15e154, 4.5e153, Q)

    def test_kernel_pole_rejected(self):
        d = InitialData(a=1.5, u0=lambda w: np.zeros_like(w),
                        v0=lambda w: np.zeros_like(w))
        # evolving back from a = 1.5, the dependence interval [0.8, 1.4] straddles the
        # kernel pole at w = sqrt(a^2 - 1) ~ 1.118, so 1 - a^2 + w^2 < 0 at w = 0.8
        with pytest.raises(DomainError, match=re.escape("data slice t = 1.5 at w = 0.8: margin")):
            evolve_point(d, 1.1, 1.2, Q)

    def test_interval_beside_a_rounded_pole_is_admitted(self):
        """The float sqrt(a^2 - 1) rounds up to a = 83997152.98349816, though the real
        zero of 1 - a^2 + w^2 lies 6e-9 below it: the data interval [a, a + 2 ulp] of the
        node (a + 1 ulp, a - 1 ulp) holds no zero, its exact margin at w = a is 1, and the
        kernel's float denominator there clears the floor."""
        a = 83997152.98349816
        assert math.sqrt(a * a - 1.0) == a
        d = InitialData(a=a, u0=np.cos, v0=np.sin)
        x, t = math.nextafter(a, math.inf), math.nextafter(a, 0.0)
        assert math.isfinite(evolve_point(d, x, t, Q))


class TestInitialData:
    def test_from_samples_roundtrip(self):
        w = np.linspace(-2.0, 2.0, 201)
        expr = exact_x_rho()
        d_exact = InitialData.from_rho_expr(expr)
        d = InitialData.from_samples(w, d_exact.u0(w), d_exact.v0(w))
        got = evolve_point(d, 0.1, 0.2, Q)
        assert got == pytest.approx(phi_eval(expr, 0.1, 0.2), abs=1e-8)

    def test_no_extrapolation(self):
        w = np.linspace(-1.0, 1.0, 11)
        d = InitialData.from_samples(w, np.sin(w), np.cos(w))
        with pytest.raises(DomainError):
            d.u0(np.array([1.5]))

    def test_too_few_samples(self):
        with pytest.raises(DomainError):
            InitialData.from_samples([0, 1], [0, 1], [0, 0])

    def test_wrong_dim(self):
        with pytest.raises(DomainError):
            InitialData.from_rho_expr(RhoExpr.rho(4))

    @pytest.mark.parametrize("coeff, exponents, a", [("9" * 400, [0, 1], 0.0),
                                                     ("1", [4, 0], 1e100)],
                             ids=["400-digit-coefficient", "huge-slice"])
    def test_coefficient_too_large_for_a_float(self, coeff, exponents, a):
        """Data whose exact coefficients on t = a overflow float(c), from a document holding
        a 400-digit coefficient or from t^4 on the slice a = 1e100: a DomainError, not an
        OverflowError."""
        term = {"coeff": coeff, "exponents": exponents}
        doc = {"format_version": 1, "dim": 2, "layers": [{"rho_power": 0, "terms": [term]}]}
        with pytest.raises(DomainError, match="exact Cauchy data"):
            InitialData.from_rho_expr(doc_to_expr(doc), a=a)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, bad):
        w = np.linspace(-1.0, 1.0, 11)
        d = InitialData.from_samples(w, np.sin(w), np.cos(w))
        with pytest.raises(DomainError, match="outside tabulated range"):
            d.u0(np.array([0.1, bad]))

    @pytest.mark.parametrize("column, index, bad", [
        ("w", 3, -4.5), ("w", 3, -3.0), ("w", 2, math.nan), ("w", 4, math.inf),
        ("u", 5, math.nan), ("v", 0, -math.inf)],
        ids=["w-decreasing", "w-repeated", "w-nan", "w-inf", "u-nan", "v-inf"])
    def test_bad_table_rejected(self, column, index, bad):
        """A table no natural spline can pass through is a DomainError."""
        w = np.arange(-5.0, 6.0)  # w[2] = -3: w[3] = -3 repeats it, w[3] = -4.5 steps back
        table = {"w": w, "u": np.sin(w), "v": np.cos(w)}
        table[column][index] = bad
        with pytest.raises(DomainError, match="finite samples, with w strictly increasing"):
            InitialData.from_samples(table["w"], table["u"], table["v"])

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_number_abscissa_is_a_one_element_array(self, k):
        """u0(w) and v0(w) at a Python float w are u0([w]) and v0([w]), bit for bit, for
        exact data and for tabulated data of every n = 2 basis seed of degree k."""
        table = np.linspace(-2.0, 2.0, 41)
        for seed in wave_basis(2, k).elements:
            exact = InitialData.from_rho_expr(build_phi(seed, 2).phi, a=0.1)
            tabulated = InitialData.from_samples(table, exact.u0(table), exact.v0(table), a=0.1)
            for data in (exact.u0, exact.v0, tabulated.u0, tabulated.v0):
                for w in (-1.3, 0.0, 0.25, 1.9):
                    got = data(w)
                    assert got.shape == (1,) and got.tobytes() == data([w]).tobytes()


def exact_samples(expr_fn):
    """w -> (u0(w), v0(w)) for the exact data of expr_fn() on t = 0."""
    def values(w):
        d = InitialData.from_rho_expr(expr_fn())
        return d.u0(w), d.v0(w)

    return values


# the from_samples tables of this module and of tests/test_cli.py: w, and w -> (u, v)
SPLINE_TABLES = {
    "x-rho-201": (np.linspace(-2.0, 2.0, 201), exact_samples(exact_x_rho)),
    "sin-cos-11": (np.linspace(-1.0, 1.0, 11), lambda w: (np.sin(w), np.cos(w))),
    "row-batch-81": (np.linspace(-2.0, 2.0, 81),
                     lambda w: (np.sin(w) * np.exp(-w * w), np.cos(3.0 * w))),
    "bump-801": (np.linspace(-4.0, 4.0, 801), lambda w: (np.exp(-8.0 * w * w), 0.0 * w)),
    "bump-401": (np.linspace(-2.0, 2.0, 401), lambda w: (np.exp(-8.0 * w * w), 0.0 * w)),
    "tx-301": (np.linspace(-3.0, 3.0, 301), exact_samples(exact_tx)),
}


def assert_matches_scipy(w, u, v, q):
    """from_samples within 1e-13 max(1, max|y|) of scipy's natural CubicSpline at q,
    for each of y = u, v: the error a spline through y makes scales with y."""
    from scipy.interpolate import CubicSpline

    d = InitialData.from_samples(w, u, v)
    for data, y in ((d.u0, u), (d.v0, v)):
        expect = CubicSpline(w, y, bc_type="natural")(q)
        assert np.max(np.abs(data(q) - expect)) <= 1e-13 * max(1.0, np.max(np.abs(y)))


def probes(w, rng):
    """The knots, the interval midpoints and 500 uniform points of a table."""
    return np.concatenate([w, 0.5 * (w[1:] + w[:-1]), rng.uniform(w[0], w[-1], 500)])


class TestNaturalSpline:
    """from_samples against scipy's CubicSpline(bc_type="natural") as an oracle, and
    the two properties that define a natural spline."""

    @pytest.mark.parametrize("name", sorted(SPLINE_TABLES))
    def test_matches_scipy_on_the_test_tables(self, name):
        w, values = SPLINE_TABLES[name]
        assert_matches_scipy(w, *values(w), probes(w, np.random.default_rng(5)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=4, max_value=800), st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_scipy_on_random_tables(self, size, seed):
        """Knot spacings within a ratio of 10, values from 1e-3 to 1e6 in size."""
        rng = np.random.default_rng(seed)
        gaps = rng.uniform(1.0, 10.0, size - 1) * 10.0 ** rng.uniform(-3.0, 3.0)
        w = rng.uniform(-100.0, 100.0) + np.concatenate([[0.0], np.cumsum(gaps)])
        u, v = rng.uniform(-1.0, 1.0, (2, size)) * 10.0 ** rng.uniform(-3.0, 6.0, (2, 1))
        assert_matches_scipy(w, u, v, probes(w, rng))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=-1000, max_value=1000),
           st.lists(st.integers(min_value=1, max_value=1000), min_size=3, max_size=60),
           st.integers(min_value=-12, max_value=8), st.data())
    def test_interpolates_with_zero_end_curvature(self, start, gaps, scale, data):
        """Through every knot value, with s'' = 0 at both ends.

        The knots are multiples of 4 * 2^scale, so that the quarter points used below
        are exact, with spacings within a ratio of 1000: the last knot's value and the
        end tests lose digits as that ratio grows, for scipy's spline as for this one.
        On an end interval of width h the spline is a cubic, so with e = +-h/4
        2 s(w_0) - 5 s(w_0 + e) + 4 s(w_0 + 2e) - s(w_0 + 3e) = e^2 s''(w_0) exactly.
        """
        w = 4.0 * 2.0 ** scale * (start + np.concatenate([[0], np.cumsum(gaps)]))
        values = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
        u, v = (np.array(data.draw(st.lists(values, min_size=w.size, max_size=w.size)))
                for _ in range(2))
        d = InitialData.from_samples(w, u, v)
        for data_fn, y in ((d.u0, u), (d.v0, v)):
            tol = 1e-11 * max(1.0, np.max(np.abs(y)))
            got = data_fn(w)
            assert np.array_equal(got[:-1], y[:-1])  # q - w[i] = 0 leaves y[i] alone
            assert abs(got[-1] - y[-1]) <= tol
            for end, inner in ((w[0], w[1]), (w[-1], w[-2])):
                s = data_fn(end + (inner - end) / 4.0 * np.arange(4))
                assert abs(2.0 * s[0] - 5.0 * s[1] + 4.0 * s[2] - s[3]) <= tol


def slice_reference(expr, a, w):
    """expr at the points (a, w) through the ring's point evaluator."""
    return expr.eval_points(np.column_stack([np.full_like(w, a), w]))


def plain_slice_data(expr, a):
    """(u0, v0) of expr on t = a, each a Horner pass that starts from np.full, with the
    singular-set scan always on: the form from_rho_expr must match bit for bit."""
    ta, zero = Fraction(a), Polynomial.zero(1)
    m = Polynomial(1, {(0,): 1 - ta * ta, (2,): 1})
    m0 = ring.margin([(a, 0.0)])[0]

    def on_slice(phi):
        top, num = max(phi.num, default=0), zero
        for s in range(top + 1):
            terms = phi.num.get(s, zero).terms.items()
            num = num * m + sum((Polynomial(1, {e[1:]: c * ta ** e[0]})
                                 for e, c in terms), zero)
        num = num.scale(Fraction(1, phi.den))
        coeffs = [float(num.terms.get((k,), 0)) for k in range(num.degree(), -1, -1)] or [0.0]

        def data(w):
            out = np.full(w.shape, coeffs[0])
            for c in coeffs[1:]:
                out *= w
                out += c
            den = w * w
            den += m0
            if (np.abs(den) < ring._SING_TOL).any():
                raise DomainError(f"data slice t = {a} meets the singular set 1 + x.x = 0")
            rho = np.divide(1.0, den, out=den)
            for _ in range(top):
                out *= rho
            return out

        return data

    return on_slice(expr), on_slice(expr.diff(0))


class TestSliceData:
    """u0 and v0 of exact data: one rational function of w on the slice t = a."""

    W = np.linspace(-1.6, 1.6, 161)

    @pytest.mark.parametrize("a", [0.0, 0.1, -0.37, 0.999, 2.5])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_bitwise_equal_to_plain_horner(self, k, a):
        """Same bits as plain_slice_data, signed zeros, NaN and overflow included, for the
        data of from_rho_expr and for RhoExpr.on_slice of expr and of its t-derivative."""
        w = np.concatenate([np.linspace(-3.0, 3.0, 601),
                            [0.0, -0.0, 5e-324, 1e200, -1e200, np.inf, -np.inf, np.nan]])
        for seed in wave_basis(2, k).elements:
            expr = build_phi(seed, 2).phi
            d = InitialData.from_rho_expr(expr, a=a)
            on_slice = (expr.on_slice(a), expr.diff(0).on_slice(a))
            for got, want in zip((d.u0, d.v0, *on_slice), 2 * plain_slice_data(expr, a)):
                with np.errstate(all="ignore"):
                    assert got(w).tobytes() == want(w).tobytes()

    @pytest.mark.parametrize("a", [0.0, 0.1, -0.3, 0.5])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_matches_ring_evaluation(self, k, a):
        for seed in wave_basis(2, k).elements:
            expr = build_phi(seed, 2).phi
            d = InitialData.from_rho_expr(expr, a=a)
            for got, ref in ((d.u0(self.W), slice_reference(expr, a, self.W)),
                             (d.v0(self.W), slice_reference(expr.diff(0), a, self.W))):
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_singular_set_of_the_slice(self):
        """On t = 1.25 the set 1 + x.x = 0 is w = +-0.75, both exact doubles."""
        d = InitialData.from_rho_expr(exact_x_rho(), a=1.25)
        assert np.isfinite(d.u0(np.array([0.0, 0.7, 0.8]))).all()
        for w in (0.75, -0.75):
            for data in (d.u0, d.v0):
                with pytest.raises(DomainError, match="meets the singular set"):
                    data(np.array([0.0, w]))

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_non_finite_slice_rejected(self, a):
        with pytest.raises(DomainError, match="must be finite"):
            InitialData.from_rho_expr(exact_x_rho(), a=a)

    def test_velocity_of_x_rho_vanishes_exactly(self):
        """d/dt (x rho) = 2 t x rho^2 is zero on t = 0, exactly."""
        d = InitialData.from_rho_expr(exact_x_rho(), a=0.0)
        v = d.v0(self.W)
        assert v.shape == self.W.shape
        assert np.array_equal(v, np.zeros_like(self.W))
        assert not np.signbit(v).any()

    def test_shape_follows_the_abscissae(self):
        d = InitialData.from_rho_expr(exact_tx(), a=0.1)
        w = self.W[:160].reshape(8, 20)
        assert d.u0(w).shape == w.shape
        assert np.array_equal(d.u0(w).ravel(), d.u0(w.ravel()))


class TestGrids:
    def test_spacing(self):
        g = Grid2D(-1.0, 1.0, 5, 0.0, 1.0, 3)
        assert g.dx == pytest.approx(0.5)
        assert g.dt == pytest.approx(0.5)
        assert np.allclose(g.xs(), [-1, -0.5, 0, 0.5, 1])

    def test_validation(self):
        with pytest.raises(DomainError, match="grid needs nx, nt >= 2, got 1x3"):
            Grid2D(0.0, 1.0, 1, 0.0, 1.0, 3)
        with pytest.raises(DomainError, match="finite and increasing"):
            Grid2D(1.0, 0.0, 3, 0.0, 1.0, 3)

    @pytest.mark.parametrize("bounds", [(-math.inf, 1.0, 0.0, 0.5), (-1.0, math.inf, 0.0, 0.5),
                                        (-1.0, 1.0, -math.inf, 0.5), (-1.0, 1.0, 0.0, math.inf),
                                        (math.nan, 1.0, 0.0, 0.5),
                                        # finite bounds whose span overflows: dx or dt is inf
                                        (-1e308, 1e308, 0.0, 0.5), (-1.0, 1.0, -1e308, 1e308)])
    def test_non_finite_bounds_rejected(self, bounds):
        x0, x1, t0, t1 = bounds
        with pytest.raises(DomainError, match="finite and increasing"):
            Grid2D(x0, x1, 5, t0, t1, 3)

    def test_singularity_check(self):
        with pytest.raises(DomainError, match=re.escape("grid reaches (x=0.0, t=1.2): margin")):
            Grid2D(-1.0, 1.0, 5, 0.0, 1.2, 5).check_singularity()

    def test_field_shape_guard(self):
        g = Grid2D(-1.0, 1.0, 5, 0.0, 0.5, 3)
        with pytest.raises(DomainError):
            Field2D(grid=g, values=np.zeros((3, 5)))
        with pytest.raises(DomainError):
            Field2D(grid=g, values=np.full((5, 3), np.nan))


class TestEvolveGrid:
    def test_exactness(self):
        expr = exact_x_rho()
        d = InitialData.from_rho_expr(expr)
        g = Grid2D(-1.0, 1.0, 21, 0.0, 0.5, 11)
        f = evolve_grid(d, g, Q)
        expect = np.array([[phi_eval(expr, x, t) for t in g.ts()] for x in g.xs()])
        assert np.max(np.abs(f.values - expect)) < 1e-10

    def test_initial_conditions(self):
        d = InitialData.from_rho_expr(exact_tx())
        pos_err, vel_err = initial_condition_check(d, Q)
        assert pos_err < 1e-12
        assert vel_err < 1e-6

    def test_point_is_the_one_node_grid(self):
        """evolve_point and evolve_grid share one code path, bit for bit."""
        d = InitialData.from_rho_expr(exact_tx(), a=0.1)
        g = Grid2D(-0.7, 0.6, 6, 0.1, 0.45, 4)
        f = evolve_grid(d, g, Q)
        for i, x in enumerate(g.xs()):
            for j, t in enumerate(g.ts()):
                assert evolve_point(d, x, t, Q) == f.values[i, j]

    def test_sharp_data_refines_in_the_row_batch(self, monkeypatch):
        """Integrals that miss abs_tol after one bisection refine on their own
        trees inside the row's adaptive_gauss call and agree with the
        node-by-node closed form."""
        d = InitialData(a=0.0, u0=lambda w: np.exp(-3000.0 * (w - 0.1) ** 2),
                        v0=lambda w: np.exp(-3000.0 * (w + 0.2) ** 2))
        g = Grid2D(-1.0, 1.0, 41, 0.0, 0.5, 21)
        calls = []

        def counting(*args):
            calls.append(args)
            return adaptive_gauss(*args)

        monkeypatch.setattr(cauchy, "adaptive_gauss", counting)
        f = evolve_grid(d, g, Q)
        assert calls
        expect = np.array([[reference_point(d, x, t, Q) for t in g.ts()] for x in g.xs()])
        assert np.max(np.abs(f.values - expect)) <= 1e-14

    def test_golden_degree_three_grid(self):
        """A degree-3 datum on t = 0.1 holds the values pinned in tests/golden to
        2e-15 max(1, |phi|), so kernel and data changes cannot drift unnoticed."""
        doc = json.loads((Path(__file__).parent / "golden" / "evolve_n2_deg3.json").read_text())
        d = InitialData.from_rho_expr(degree_three_phi(), a=doc["a"])
        f = evolve_grid(d, Grid2D(**doc["grid"]), Q)
        pinned = np.array(doc["values"])
        assert np.all(np.abs(f.values - pinned) <= 2e-15 * np.maximum(1.0, np.abs(pinned)))

    def test_grid_kernel_pole_rejected(self):
        d = InitialData(a=1.5, u0=lambda w: np.zeros_like(w),
                        v0=lambda w: np.zeros_like(w))
        # the node (1.2, 1.2) depends on [0.9, 1.5], which holds w = 1.118...
        g = Grid2D(1.2, 1.6, 5, 1.2, 1.5, 3)
        with pytest.raises(DomainError, match=re.escape("data slice t = 1.5 at w = 0.899")):
            evolve_grid(d, g, Q)

    def test_singular_data_interval_rejected(self):
        """Every node passes, but the last row's data reach 1 - a^2 + w^2 < 1e-3."""
        a = -0.9995
        d = InitialData(a=a, u0=lambda w: np.exp(-8.0 * np.asarray(w) ** 2),
                        v0=lambda w: np.zeros_like(np.asarray(w, dtype=float)))
        # node (0.5, -0.5) depends on [0.0005, 0.9995]; at w = 0.0005 the
        # margin 1 - a^2 + w^2 evaluates to 0.000999999999999855
        message = ("data slice t = -0.9995 at w = 0.0004999999999999449: "
                   "margin 1 + x.x = 0.000999999999999855, not in [0.001, inf)")
        with pytest.raises(DomainError, match=re.escape(message)):
            evolve_grid(d, Grid2D(0.5, 1.0, 11, a, -0.5, 6), Q)

    def test_singular_grid_rejected(self):
        d = InitialData.from_rho_expr(exact_x_rho())
        with pytest.raises(DomainError, match=re.escape("grid reaches (x=0.0, t=1.2): margin")):
            evolve_grid(d, Grid2D(-1.0, 1.0, 5, 0.0, 1.2, 5), Q)

    def test_out_of_table_rejected(self):
        w = np.linspace(-1.0, 1.0, 41)
        d = InitialData.from_samples(w, np.sin(w), np.cos(w))
        with pytest.raises(DomainError, match=re.escape("outside tabulated range [-1.0, 1.0]")):
            evolve_grid(d, Grid2D(-0.9, 0.9, 7, 0.0, 0.3, 3), Q)


def bump(c, w0):
    return InitialData(a=0.0, u0=lambda w: np.exp(-c * (w - w0) ** 2),
                       v0=lambda w: np.zeros_like(w))


class TestOneCallPerGrid:
    """The whole grid in one _evolve_nodes call gives, bit for bit, the values of
    one call per time row, and checks every row before the first quadrature."""

    @pytest.mark.parametrize("case", [
        "criterion-7", "criterion-8-bumps", "criterion-8-ring", "golden-degree-3",
        "backwards", "straddles-a", "samples", "ring-a-negative", "ring-a-above-one"])
    def test_grid_matches_row_by_row_reference(self, case):
        x_rho = InitialData.from_rho_expr(exact_x_rho())
        golden = json.loads((Path(__file__).parent / "golden" / "evolve_n2_deg3.json").read_text())
        deg3 = InitialData.from_rho_expr(degree_three_phi(), a=golden["a"])
        w = np.linspace(-2.0, 2.0, 81)
        samples = InitialData.from_samples(w, np.sin(w) * np.exp(-w * w), np.cos(3.0 * w), a=0.1)
        jobs = {
            "criterion-7": [(x_rho, Grid2D(-1.0, 1.0, 101, 0.0, 0.5, 51))],
            "criterion-8-bumps": [(bump(c, w0), Grid2D(-1.0, 1.0, 41, 0.0, 0.5, 21))
                                  for c, w0 in ((8.0, 0.0), (10.0, 0.2), (6.0, -0.25))],
            "criterion-8-ring": [(x_rho, Grid2D(-1.0, 1.0, nx, 0.0, 0.5, nt))
                                 for nx, nt in ((41, 21), (81, 41), (161, 81))],
            "golden-degree-3": [(deg3, Grid2D(**golden["grid"]))],
            "backwards": [(deg3, Grid2D(-0.8, 0.8, 21, -0.4, 0.05, 10))],
            "straddles-a": [(InitialData.from_rho_expr(degree_three_phi()),
                             Grid2D(-0.8, 0.8, 21, -0.2, 0.2, 5))],
            "samples": [(samples, Grid2D(-0.7, 0.7, 21, 0.1, 0.6, 11))],
            # off a = 0 the kernel keeps every a-term; rows both ways from t = a
            "ring-a-negative": [(InitialData.from_rho_expr(degree_three_phi(), a=-0.37),
                                 Grid2D(-0.8, 0.8, 17, -0.6, 0.1, 8))],
            # 1 - a^2 + w^2 vanishes at |w| = 1.118, left of every data interval
            "ring-a-above-one": [(InitialData.from_rho_expr(degree_three_phi(), a=1.5),
                                  Grid2D(2.0, 2.6, 13, 1.5, 1.8, 7))],
        }[case]
        for d, g in jobs:
            if case == "straddles-a":
                assert list(g.ts()).count(d.a) == 1
            assert np.array_equal(evolve_grid(d, g, Q).values, reference_grid(d, g, Q))

    def test_points_match_row_by_row_reference(self):
        d = InitialData.from_rho_expr(degree_three_phi(), a=0.1)
        g = Grid2D(-0.7, 0.6, 6, -0.2, 0.45, 5)
        for x in g.xs():
            for t in g.ts():
                assert evolve_point(d, x, t, Q) == row_by_row_reference(d, [x], [t], Q)[0]

    def test_initial_condition_samples_match_reference(self, monkeypatch):
        d = InitialData.from_rho_expr(degree_three_phi(), a=0.1)
        seen = []

        def spy(d, x, t, q):
            seen.append((x, t, evolve_nodes(d, x, t, q)))
            return seen[-1][2]

        evolve_nodes = cauchy._evolve_nodes
        monkeypatch.setattr(cauchy, "_evolve_nodes", spy)
        initial_condition_check(d, Q)
        [(x, t, values)] = seen
        assert x.shape == (1, 105)
        assert np.array_equal(values[0], row_by_row_reference(d, x[0], t[0], Q))

    # (data, grid, message): the last row alone fails its check, earlier rows integrate
    LAST_ROW_FAILS = {
        # rows t = -1.5, -1.45, -1.4; only t = -1.4 has an interval holding w = 1.118...
        "kernel-pole": (-1.5, Grid2D(1.2, 1.6, 5, -1.5, -1.4, 3), "data slice t = "),
        # rows t = a ... -0.5; only t = -0.5 reaches w = 0.0005, where 1 - a^2 + w^2 < 1e-3
        "data-margin": (-0.9995, Grid2D(0.5, 1.0, 11, -0.9995, -0.5, 6), "data slice t = "),
    }

    @pytest.mark.parametrize("case", sorted(LAST_ROW_FAILS))
    def test_every_row_is_checked_before_quadrature(self, monkeypatch, case):
        a, g, message = self.LAST_ROW_FAILS[case]
        d = InitialData(a=a, u0=np.cos, v0=np.sin)
        with pytest.raises(DomainError, match=message) as expected:
            reference_grid(d, g, Q)  # integrates the earlier rows, then fails
        calls = []
        monkeypatch.setattr(cauchy, "adaptive_gauss", lambda *args: calls.append(args))
        with pytest.raises(DomainError, match=message) as got:
            evolve_grid(d, g, Q)
        assert str(got.value) == str(expected.value)
        assert calls == []

    def test_a_later_check_wins_over_an_earlier_budget(self, monkeypatch):
        """An early row that would exhaust the quadrature budget no longer
        hides a later row's failed check."""
        a, g, _ = self.LAST_ROW_FAILS["kernel-pole"]
        d = InitialData(a=a, u0=np.cos, v0=np.sin)
        monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 0)
        q = QuadratureSpec(order=2)
        first_rows = Grid2D(g.x_min, g.x_max, g.nx, g.t_min, g.ts()[1], 2)
        with pytest.raises(ToleranceNotMet):
            evolve_grid(d, first_rows, q)
        with pytest.raises(ToleranceNotMet):
            reference_grid(d, g, q)
        with pytest.raises(DomainError, match="data slice t = "):
            evolve_grid(d, g, q)


class TestFdReference:
    def test_converges_to_exact(self):
        expr = exact_x_rho()
        d = InitialData.from_rho_expr(expr)
        g = Grid2D(-1.0, 1.0, 41, 0.0, 0.5, 21)
        expect = np.array([[phi_eval(expr, x, t) for t in g.ts()] for x in g.xs()])
        errs = []
        for refine in (1, 2, 4):
            f = fd_reference(d, g, refine=refine)
            errs.append(np.max(np.abs(f.values - expect)))
        # second-order scheme: halving the step cuts the error by about 4
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        assert all(3.2 <= r <= 5.6 for r in ratios)

    def test_matches_kernel_solution(self):
        """Independent oracle agrees with the closed form on smooth bump data."""
        w0 = np.linspace(-4.0, 4.0, 801)
        u = np.exp(-8.0 * w0 ** 2)
        v = np.zeros_like(w0)
        d = InitialData.from_samples(w0, u, v)
        g = Grid2D(-0.8, 0.8, 33, 0.0, 0.4, 9)
        kernel = evolve_grid(d, g, Q)
        fd = fd_reference(d, g, refine=8)
        assert np.max(np.abs(kernel.values - fd.values)) < 5e-4

    @pytest.mark.parametrize("refine", [0, -1, 1.5, 2.0, float("nan")])
    def test_refine_guard(self, refine):
        d = InitialData.from_rho_expr(exact_x_rho())
        g = Grid2D(-1.0, 1.0, 11, 0.0, 0.5, 6)
        with pytest.raises(ValueError, match="refine must be an integer >= 1"):
            fd_reference(d, g, refine=refine)

    def test_widened_domain_guard_covers_the_data_slice(self):
        """The widened domain reaches x = 0 on the slice t = a = -0.9995, where 1 - a^2 < 1e-3."""
        a = -0.9995
        d = InitialData(a=a, u0=lambda w: np.exp(-8.0 * w ** 2), v0=lambda w: np.zeros_like(w))
        g = Grid2D(0.5, 1.0, 11, a, -0.5, 11)
        g.check_singularity()
        with pytest.raises(DomainError, match=re.escape("widened FD domain reaches")):
            fd_reference(d, g)

    def test_start_slice_guard(self):
        d = InitialData.from_rho_expr(exact_x_rho(), a=0.0)
        g = Grid2D(-1.0, 1.0, 11, 0.1, 0.5, 6)
        with pytest.raises(DomainError):
            fd_reference(d, g)


class TestResidual:
    def test_residual_second_order(self):
        expr = exact_x_rho()
        errs = []
        for nx, nt in [(41, 21), (81, 41), (161, 81)]:
            g = Grid2D(-1.0, 1.0, nx, 0.0, 0.5, nt)
            vals = np.array([[phi_eval(expr, x, t) for t in g.ts()] for x in g.xs()])
            res = pde_residual_fd(Field2D(grid=g, values=vals))
            errs.append(np.max(np.abs(res.values)))
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        assert all(3.5 <= r <= 4.5 for r in ratios)

    def test_small_grid_rejected(self):
        g = Grid2D(-1.0, 1.0, 4, 0.0, 0.5, 4)
        with pytest.raises(DomainError, match="residual stencil needs nx, nt >= 5"):
            pde_residual_fd(Field2D(grid=g, values=np.zeros((4, 4))))
