import math
from fractions import Fraction

import numpy as np
import pytest

from pertwave.basis import wave_basis
from pertwave.errors import DomainError, ToleranceNotMet
from pertwave.invert import RayField, h_shift_inverse, recover_n2, recover_n4
from pertwave.quadrature import QuadratureSpec, adaptive_gauss
from pertwave.ring import Polynomial, RhoExpr
from pertwave.solutions import build_phi

Q = QuadratureSpec()


def safe_points(rng, dim, count, delta=0.3):
    """Points whose whole ray from the origin stays delta inside the domain."""
    out = []
    while len(out) < count:
        p = rng.uniform(-0.6, 0.6, dim)
        norm_sq = -p[0] ** 2 + np.sum(p[1:] ** 2)
        if 1.0 + min(norm_sq, 0.0) >= delta:
            out.append(p)
    return np.array(out)


class TestQuadrature:
    def test_polynomial_exact(self):
        got = adaptive_gauss(lambda t: t ** 5, 0.0, 1.0, Q)
        assert got == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_orientation(self):
        fwd = adaptive_gauss(lambda t: t ** 2, 0.0, 2.0, Q)
        rev = adaptive_gauss(lambda t: t ** 2, 2.0, 0.0, Q)
        assert rev == pytest.approx(-fwd, abs=1e-14)

    def test_empty_interval(self):
        assert adaptive_gauss(lambda t: t, 1.0, 1.0, Q) == 0.0

    def test_adaptive_refines(self):
        # sharply peaked but smooth integrand
        got = adaptive_gauss(lambda t: 1.0 / (1e-4 + t * t), -1.0, 1.0,
                             QuadratureSpec(order=16))
        expect = 2.0 / 1e-2 * math.atan(1.0 / 1e-2)
        assert got == pytest.approx(expect, rel=1e-10)

    def test_budget_exhaustion(self):
        spec = QuadratureSpec(order=2, max_subdivisions=3, abs_tol=1e-15)
        with pytest.raises(ToleranceNotMet):
            adaptive_gauss(lambda t: np.abs(t - 1 / 3) ** 0.1, 0.0, 1.0, spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(order=1)
        for abs_tol in (0.0, -1e-12, float("nan")):
            with pytest.raises(ValueError):
                QuadratureSpec(abs_tol=abs_tol)


class TestShiftInverse:
    def test_homogeneous_eigenvalue(self):
        """(H + k + 1)^-1 acts as 1/(d + k + 1) on a degree-d homogeneous field."""
        p = Polynomial(2, {(1, 2): Fraction(3)})  # degree 3
        f = RayField.from_rho_expr(RhoExpr.from_polynomial(p))
        x = np.array([0.3, 0.5])
        for k in (0, 1, 2, 3):
            got = h_shift_inverse(f, k, x, Q)
            assert got == pytest.approx(p.eval_points(x[None, :])[0] / (3 + k + 1),
                                        rel=1e-12)

    def test_left_inverse_of_shift(self):
        """(H + 1)^-1 (H + 1) f == f on an exact expression field."""
        expr = RhoExpr.from_polynomial(Polynomial(2, {(1, 1): Fraction(1), (0, 0): Fraction(2)}))
        shifted = expr.euler_h() + expr
        f = RayField.from_rho_expr(shifted)
        x = np.array([0.4, 0.1])
        got = h_shift_inverse(f, 0, x, Q)
        assert got == pytest.approx(expr.eval_points(x[None, :])[0], rel=1e-12)

    def test_negative_shift_rejected(self):
        f = RayField.from_rho_expr(RhoExpr.constant(2, 1))
        with pytest.raises(ValueError):
            h_shift_inverse(f, -1, np.array([0.1, 0.1]), Q)

    def test_ray_domain_guard(self):
        f = RayField.from_rho_expr(RhoExpr.rho(2))
        with pytest.raises(DomainError):
            h_shift_inverse(f, 0, np.array([0.999, 0.0]), Q)


class TestRecoverN2:
    def test_round_trip_exact_field(self):
        seed = Polynomial(2, {(1, 1): Fraction(1)})
        bundle = build_phi(seed, 2)
        f = RayField.from_rho_expr(bundle.phi)
        rng = np.random.default_rng(4)
        for x in safe_points(rng, 2, 10):
            p0, p1 = recover_n2(f, x, Q)
            x_row = x[None, :]
            assert p0 == pytest.approx(
                bundle.coefficient(0).eval_points(x_row)[0], abs=1e-10)
            assert p1 == pytest.approx(
                bundle.coefficient(1).eval_points(x_row)[0], abs=1e-10)

    def test_round_trip_blind_field(self):
        seed = Polynomial(2, {(3, 0): Fraction(1), (1, 2): Fraction(3)})
        bundle = build_phi(seed, 2)
        blind = RayField(dim=2, evaluate=bundle.phi.eval_points)
        rng = np.random.default_rng(5)
        for x in safe_points(rng, 2, 6):
            p0, p1 = recover_n2(blind, x, Q)
            x_row = x[None, :]
            assert p0 == pytest.approx(
                bundle.coefficient(0).eval_points(x_row)[0], abs=1e-9)
            assert p1 == pytest.approx(
                bundle.coefficient(1).eval_points(x_row)[0], abs=1e-9)

    def test_dim_guard(self):
        f = RayField.from_rho_expr(RhoExpr.rho(4))
        with pytest.raises(DomainError):
            recover_n2(f, np.zeros(4), Q)


class TestRecoverN4:
    def test_round_trip_exact_field(self):
        seed = next(p for p in wave_basis(4, 2).elements if p.degree() == 2)
        bundle = build_phi(seed, 4)
        f = RayField.from_rho_expr(bundle.phi)
        rng = np.random.default_rng(6)
        for x in safe_points(rng, 4, 6):
            values = recover_n4(f, x, Q)
            x_row = x[None, :]
            for r, v in enumerate(values):
                assert v == pytest.approx(
                    bundle.coefficient(r).eval_points(x_row)[0], abs=1e-9)

    def test_round_trip_blind_field(self):
        seed = next(p for p in wave_basis(4, 2).elements if p.degree() == 2)
        bundle = build_phi(seed, 4)
        blind = RayField(dim=4, evaluate=bundle.phi.eval_points)
        rng = np.random.default_rng(9)
        for x in safe_points(rng, 4, 3):
            values = recover_n4(blind, x, Q)
            x_row = x[None, :]
            for r, v in enumerate(values):
                assert v == pytest.approx(
                    bundle.coefficient(r).eval_points(x_row)[0], abs=1e-9)

    def test_expr_is_not_read(self):
        """The same samples give bitwise-equal coefficients with or without expr."""
        seed = next(p for p in wave_basis(4, 3).elements if p.degree() == 3)
        phi = build_phi(seed, 4).phi
        exact = RayField.from_rho_expr(phi)
        blind = RayField(dim=4, evaluate=phi.eval_points)
        rng = np.random.default_rng(11)
        for x in safe_points(rng, 4, 3):
            assert recover_n4(exact, x, Q) == recover_n4(blind, x, Q)

    def test_origin_blind_field(self):
        """The constant seed's coefficients do not vanish at the origin."""
        bundle = build_phi(Polynomial(4, {(0, 0, 0, 0): Fraction(1)}), 4)
        blind = RayField(dim=4, evaluate=bundle.phi.eval_points)
        origin = np.zeros(4)
        values = recover_n4(blind, origin, Q)
        for r, v in enumerate(values):
            assert v == pytest.approx(
                bundle.coefficient(r).eval_points(origin[None, :])[0], abs=1e-12)

    def test_dim_guard(self):
        f = RayField.from_rho_expr(RhoExpr.rho(2))
        with pytest.raises(DomainError):
            recover_n4(f, np.zeros(2), Q)

    def test_linearity(self):
        """Recovery is linear in phi: recovering 2*phi doubles every P_r."""
        seed = next(p for p in wave_basis(4, 3).elements if p.degree() == 3)
        bundle = build_phi(seed, 4)
        f1 = RayField.from_rho_expr(bundle.phi)
        f2 = RayField.from_rho_expr(bundle.phi.scale(2))
        x = np.array([0.1, 0.3, -0.2, 0.4])
        a = recover_n4(f1, x, Q)
        b = recover_n4(f2, x, Q)
        assert np.allclose(2 * np.asarray(a), np.asarray(b), rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("n, recover", [(2, recover_n2), (4, recover_n4)])
def test_domain_margin_boundary(n, recover):
    """1 + x.x = 0.25 exactly at t = 1, x1 = 0.5 recovers; one ulp further in t is rejected."""
    bundle = build_phi(Polynomial.monomial(n, (1, 1) + (0,) * (n - 2)), n)
    f = RayField.from_rho_expr(bundle.phi)
    x = np.zeros(n)
    x[:2] = 1.0, 0.5
    values = recover(f, x, Q)
    for r, v in enumerate(values):
        assert v == pytest.approx(bundle.coefficient(r).eval_points(x[None, :])[0], abs=1e-10)
    x[0] = np.nextafter(1.0, 2.0)
    with pytest.raises(DomainError):
        recover(f, x, Q)
