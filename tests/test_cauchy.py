import re
from fractions import Fraction

import numpy as np
import pytest

from pertwave import cauchy
from pertwave.cauchy import (Field2D, Grid2D, InitialData, evolve_grid,
                             evolve_point, fd_reference,
                             initial_condition_check, pde_residual_fd)
from pertwave.errors import (CFLViolation, DomainError, GridTooSmall,
                             KernelPole, SingularRegion)
from pertwave.quadrature import QuadratureSpec, adaptive_gauss
from pertwave.ring import Polynomial, RhoExpr
from pertwave.solutions import build_phi

Q = QuadratureSpec()


def exact_x_rho():
    """The solution x/(1 + x^2 - t^2), built from the seed x."""
    return build_phi(Polynomial(2, {(0, 1): Fraction(1)}), 2).phi


def exact_tx():
    """The solution t x (1/2 + rho), built from the seed t x."""
    return build_phi(Polynomial(2, {(1, 1): Fraction(1)}), 2).phi


def phi_eval(expr, x, t):
    return float(expr.eval_points(np.array([[t, x]]))[0])


def scalar_reference(d, x, t, q):
    """The closed form node by node: two scalar adaptive_gauss integrals."""
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

    i1 = adaptive_gauss(k1, x + delta, x - delta, q)
    i2 = adaptive_gauss(k2, x + delta, x - delta, q)
    return boundary - 2.0 * i1 - 0.5 * i2


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
        message = "point (x=0.0, t=1.0) has 1 + x^2 - t^2 = 0.0 < 0.001"
        with pytest.raises(SingularRegion, match=re.escape(message)):
            evolve_point(d, 0.0, 1.0, Q)

    def test_singular_margin_boundary(self):
        """At x = 0, the last double t with 1 - t^2 >= 1e-3 evolves; the next is singular."""
        phi = build_phi(Polynomial.constant(2, 1), 2).phi
        d = InitialData.from_rho_expr(phi)
        inside, outside = 0.9994998749374608, 0.999499874937461
        assert 1.0 - inside ** 2 >= 1e-3 > 1.0 - outside ** 2
        assert evolve_point(d, 0.0, inside, Q) == pytest.approx(phi_eval(phi, 0.0, inside))
        with pytest.raises(SingularRegion):
            evolve_point(d, 0.0, outside, Q)

    def test_kernel_pole_rejected(self):
        d = InitialData(a=1.5, u0=lambda w: np.zeros_like(w),
                        v0=lambda w: np.zeros_like(w))
        # evolving back from a = 1.5, the dependence interval [0.8, 1.4]
        # straddles the kernel pole at w = sqrt(a^2 - 1) ~ 1.118
        with pytest.raises(KernelPole, match="vanishes at w = 1.118"):
            evolve_point(d, 1.1, 1.2, Q)


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


class TestGrids:
    def test_spacing(self):
        g = Grid2D(-1.0, 1.0, 5, 0.0, 1.0, 3)
        assert g.dx == pytest.approx(0.5)
        assert g.dt == pytest.approx(0.5)
        assert np.allclose(g.xs(), [-1, -0.5, 0, 0.5, 1])

    def test_validation(self):
        with pytest.raises(GridTooSmall):
            Grid2D(0.0, 1.0, 1, 0.0, 1.0, 3)
        with pytest.raises(DomainError):
            Grid2D(1.0, 0.0, 3, 0.0, 1.0, 3)

    def test_singularity_check(self):
        with pytest.raises(SingularRegion):
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
        pos_err, vel_err = initial_condition_check(d, Q, xs=np.linspace(-0.8, 0.8, 9))
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

    def test_sharp_data_falls_back_to_adaptive(self, monkeypatch):
        """Integrals that miss abs_tol after one bisection are finished by
        adaptive_gauss and agree with the node-by-node closed form."""
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
        expect = np.array([[scalar_reference(d, x, t, Q) for t in g.ts()] for x in g.xs()])
        assert np.max(np.abs(f.values - expect)) <= 1e-14

    def test_grid_kernel_pole_rejected(self):
        d = InitialData(a=1.5, u0=lambda w: np.zeros_like(w),
                        v0=lambda w: np.zeros_like(w))
        # the node (1.2, 1.2) depends on [0.9, 1.5], which holds w = 1.118...
        g = Grid2D(1.2, 1.6, 5, 1.2, 1.5, 3)
        with pytest.raises(KernelPole, match="vanishes at w = 1.118"):
            evolve_grid(d, g, Q)

    def test_singular_data_interval_rejected(self):
        """Every node passes, but the last row's data reach 1 - a^2 + w^2 < 1e-3."""
        a = -0.9995
        d = InitialData(a=a, u0=lambda w: np.exp(-8.0 * np.asarray(w) ** 2),
                        v0=lambda w: np.zeros_like(np.asarray(w, dtype=float)))
        # node (0.5, -0.5) depends on [0.0005, 0.9995]; at w = 0.0005 the
        # margin 1 - a^2 + w^2 evaluates to 0.000999999999999855
        with pytest.raises(SingularRegion, match=re.escape("data slice t = -0.9995 has")):
            evolve_grid(d, Grid2D(0.5, 1.0, 11, a, -0.5, 6), Q)

    def test_singular_grid_rejected(self):
        d = InitialData.from_rho_expr(exact_x_rho())
        with pytest.raises(SingularRegion, match=re.escape("grid reaches 1 + x^2 - t^2")):
            evolve_grid(d, Grid2D(-1.0, 1.0, 5, 0.0, 1.2, 5), Q)

    def test_out_of_table_rejected(self):
        w = np.linspace(-1.0, 1.0, 41)
        d = InitialData.from_samples(w, np.sin(w), np.cos(w))
        with pytest.raises(DomainError, match=re.escape("outside tabulated range [-1.0, 1.0]")):
            evolve_grid(d, Grid2D(-0.9, 0.9, 7, 0.0, 0.3, 3), Q)


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

    def test_cfl_guard(self):
        d = InitialData.from_rho_expr(exact_x_rho())
        g = Grid2D(-1.0, 1.0, 11, 0.0, 0.5, 6)
        for cfl in (1.1, 0.0, float("nan")):
            with pytest.raises(CFLViolation):
                fd_reference(d, g, cfl=cfl)

    @pytest.mark.parametrize("refine", [0, -1])
    def test_refine_guard(self, refine):
        d = InitialData.from_rho_expr(exact_x_rho())
        g = Grid2D(-1.0, 1.0, 11, 0.0, 0.5, 6)
        with pytest.raises(ValueError, match="refine must be >= 1"):
            fd_reference(d, g, refine=refine)

    def test_widened_domain_guard_covers_the_data_slice(self):
        """The widened domain reaches x = 0 on the slice t = a = -0.9995, where 1 - a^2 < 1e-3."""
        a = -0.9995
        d = InitialData(a=a, u0=lambda w: np.exp(-8.0 * w ** 2), v0=lambda w: np.zeros_like(w))
        g = Grid2D(0.5, 1.0, 11, a, -0.5, 11)
        g.check_singularity()
        with pytest.raises(SingularRegion, match=re.escape("widened FD domain reaches")):
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
        with pytest.raises(GridTooSmall):
            pde_residual_fd(Field2D(grid=g, values=np.zeros((4, 4))))
