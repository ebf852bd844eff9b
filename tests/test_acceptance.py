"""Acceptance suite: one criterion per test, one PASS/FAIL line per criterion.

All symbolic criteria demand structural equality with zero in the quotient
ring (no tolerance); the numerical criteria pin their tolerances explicitly.
"""

from fractions import Fraction

import numpy as np
import pytest

from pertwave.basis import wave_basis
from pertwave.cauchy import (Grid2D, InitialData, evolve_grid, evolve_point,
                             fd_reference, initial_condition_check,
                             pde_residual_fd)
from pertwave.hyp2f1 import fk_ode_residual
from pertwave.invert import RayField, recover_n2, recover_n4
from pertwave.quadrature import QuadratureSpec
from pertwave.ring import Polynomial, normalize
from pertwave.solutions import (beta_coefficients, build_phi,
                                check_n2_background, psi0_residual, residual,
                                recursion_step)

Q = QuadratureSpec(order=64, abs_tol=1e-12)


@pytest.fixture
def verdict(capfd):
    """Print one PASS/FAIL line per criterion outside pytest's capture."""

    def report(num, name, ok):
        with capfd.disabled():
            print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}",
                  flush=True)
        assert ok

    return report


def test_criterion_1_exact_solution_suite(verdict):
    """Every basis seed of degree <= 6 yields an exactly-zero residual."""
    ok = True
    for n in (2, 4, 6, 8):
        for k in range(7):
            for seed in wave_basis(n, k).elements:
                bundle = build_phi(seed, n, check=False)
                if not residual(bundle.phi, n).is_zero():
                    ok = False
    verdict(1, "exact solution suite", ok)


# closed-form recursion rows: P_r = factor * (H + shift) P_{r+1}
RECURSION_ROWS = [
    (2, 0, -1, Fraction(1, 2)),
    (4, 0, 0, Fraction(1, 6)),
    (4, 1, -1, Fraction(1, 2)),
    (6, 0, 1, Fraction(1, 12)),
    (6, 1, 0, Fraction(1, 5)),
    (6, 2, -1, Fraction(1, 2)),
    (8, 0, 2, Fraction(1, 20)),
    (8, 1, 1, Fraction(1, 9)),
    (8, 2, 0, Fraction(3, 14)),
    (8, 3, -1, Fraction(1, 2)),
]


def generic_polynomial(dim, rng):
    terms = {}
    while len(terms) < 5:
        e = tuple(int(v) for v in rng.integers(0, 3, dim))
        terms[e] = Fraction(int(rng.integers(1, 20)), int(rng.integers(1, 5)))
    return Polynomial(dim, terms)


def test_criterion_2_recursion_table(verdict):
    """The ten low-dimension recursion rows match the general formula
    coefficient-by-coefficient on generic polynomial inputs."""
    rng = np.random.default_rng(17)
    ok = True
    for n, r, shift, factor in RECURSION_ROWS:
        p = generic_polynomial(n, rng)
        got = recursion_step(p, n, r)
        expect = (p.euler_h() + p.scale(shift)).scale(factor)
        if got != expect:
            ok = False
    verdict(2, "recursion table", ok)


def test_criterion_3_particular_and_background(verdict):
    ok = all(psi0_residual(n).is_zero() for n in (4, 6, 8))
    rng = np.random.default_rng(23)
    pts = rng.uniform(-0.4, 0.4, (25, 2))
    for k, a in [(1, 1), (1, -3), (2, 1)]:
        if check_n2_background(k, a, pts) >= 1e-9:
            ok = False
    verdict(3, "particular solutions and n=2 background", ok)


def random_rho_expr(rng, dim=3, max_power=4, max_degree=6):
    layers = {}
    for s in range(int(rng.integers(1, max_power + 2))):
        terms = {}
        for _ in range(int(rng.integers(1, 4))):
            e = tuple(int(v) for v in rng.integers(0, max_degree + 1, dim))
            if sum(e) <= max_degree:
                terms[e] = Fraction(int(rng.integers(-6, 7)))
        if terms:
            layers[s] = Polynomial(dim, terms)
    return normalize(list(layers.items()), dim)


def test_criterion_4_commutator_law(verdict):
    """[box, H] = 2 box on 100 randomized ring elements, exactly."""
    rng = np.random.default_rng(31)
    ok = True
    for _ in range(100):
        expr = random_rho_expr(rng)
        lhs = expr.euler_h().box() - expr.box().euler_h()
        if lhs != expr.box().scale(2):
            ok = False
    verdict(4, "commutator law", ok)


def test_criterion_5_hypergeometric_and_beta(verdict):
    ok = all(fk_ode_residual(n, k).is_zero()
             for n in (2, 4, 6) for k in (2, 3, 4, 5))
    for n in (2, 4, 6):
        for k in range(2, 7):
            cs = beta_coefficients(n, k)
            half = n // 2
            by_r = {half - i: c for i, c in enumerate(cs)}
            for r in range(half):
                expect = (Fraction(2 * (r + 1) * (2 * k + n - 2 * r - 4),
                                   (n - 2 * r) * (n + 2 * r + 2)) * by_r[r + 1])
                if by_r[r] != expect:
                    ok = False
    verdict(5, "hypergeometric ODE and Beta identity", ok)


def admissible_points(rng, dim, count):
    out = []
    while len(out) < count:
        p = rng.uniform(-0.6, 0.6, dim)
        norm_sq = -p[0] ** 2 + np.sum(p[1:] ** 2)
        if 1.0 + min(norm_sq, 0.0) >= 0.3:
            out.append(p)
    return out


def test_criterion_6_inversion_round_trip(verdict):
    ok = True
    rng = np.random.default_rng(41)

    bundle2 = build_phi(Polynomial(2, {(1, 1): Fraction(1)}), 2)
    f2 = RayField.from_rho_expr(bundle2.phi)
    for x in admissible_points(rng, 2, 20):
        values = recover_n2(f2, x, Q)
        for r, v in enumerate(values):
            expect = bundle2.coefficient(r).eval_points(np.asarray(x)[None, :])[0]
            if abs(v - expect) > 1e-8 * max(1.0, abs(expect)):
                ok = False

    seed4 = Polynomial(4, {(1, 1, 0, 0): Fraction(1)})
    bundle4 = build_phi(seed4, 4)
    f4 = RayField.from_rho_expr(bundle4.phi)
    for x in admissible_points(rng, 4, 20):
        values = recover_n4(f4, x, Q)
        for r, v in enumerate(values):
            expect = bundle4.coefficient(r).eval_points(np.asarray(x)[None, :])[0]
            if abs(v - expect) > 1e-8 * max(1.0, abs(expect)):
                ok = False
    verdict(6, "inversion round trip", ok)


def test_criterion_7_cauchy_exactness(verdict):
    expr = build_phi(Polynomial(2, {(0, 1): Fraction(1)}), 2).phi  # x/(1+x^2-t^2)
    d = InitialData.from_rho_expr(expr, a=0.0)
    g = Grid2D(-1.0, 1.0, 101, 0.0, 0.5, 51)
    f = evolve_grid(d, g, Q)
    xs, ts = g.xs(), g.ts()
    expect = xs[:, None] / (1.0 + xs[:, None] ** 2 - ts[None, :] ** 2)
    ok = np.max(np.abs(f.values - expect)) < 1e-8
    pos_err, vel_err = initial_condition_check(d, Q)
    ok = ok and pos_err < 1e-6 and vel_err < 1e-6
    verdict(7, "Cauchy exactness", ok)


BUMPS = [
    (lambda w: np.exp(-8.0 * w ** 2), lambda w: np.zeros_like(w)),
    (lambda w: np.exp(-10.0 * (w - 0.2) ** 2), lambda w: np.zeros_like(w)),
    (lambda w: np.exp(-6.0 * (w + 0.25) ** 2), lambda w: np.zeros_like(w)),
]


def test_criterion_8_oracle_agreement(verdict):
    ok = True
    g = Grid2D(-1.0, 1.0, 41, 0.0, 0.5, 21)
    for u0, v0 in BUMPS:
        d = InitialData(a=0.0, u0=u0, v0=v0)
        kernel = evolve_grid(d, g, Q)
        errs = []
        for refine in (1, 2, 4, 8):
            fd = fd_reference(d, g, refine=refine)
            errs.append(np.max(np.abs(kernel.values - fd.values)))
        ratios = [errs[i] / errs[i + 1] for i in range(3)]
        if not all(3.5 <= r <= 4.5 for r in ratios):
            ok = False

    # the interior residual of the kernel output converges at the same order
    expr = build_phi(Polynomial(2, {(0, 1): Fraction(1)}), 2).phi
    d = InitialData.from_rho_expr(expr)
    res_errs = []
    for nx, nt in [(41, 21), (81, 41), (161, 81)]:
        gg = Grid2D(-1.0, 1.0, nx, 0.0, 0.5, nt)
        field = evolve_grid(d, gg, Q)
        res_errs.append(np.max(np.abs(pde_residual_fd(field).values)))
    res_ratios = [res_errs[i] / res_errs[i + 1] for i in range(2)]
    if not all(3.5 <= r <= 4.5 for r in res_ratios):
        ok = False
    verdict(8, "finite-difference oracle agreement", ok)


def test_criterion_9_causality(verdict):
    expr = build_phi(Polynomial(2, {(0, 1): Fraction(1)}), 2).phi
    d = InitialData.from_rho_expr(expr)
    probes = [(0.1, 0.3), (-0.4, 0.25), (0.0, 0.45)]
    ok = True
    for x, t in probes:
        lo, hi = x - t, x + t

        def tampered(base):
            def f(w):
                w = np.atleast_1d(np.asarray(w, dtype=float))
                out = base(w).copy()
                outside = (w < lo - 1e-9) | (w > hi + 1e-9)
                out[outside] += 1e6
                return out

            return f

        d2 = InitialData(a=0.0, u0=tampered(d.u0), v0=tampered(d.v0))
        if evolve_point(d2, x, t, Q) != evolve_point(d, x, t, Q):
            ok = False
    verdict(9, "causality", ok)
