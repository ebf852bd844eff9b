import math
import re
from fractions import Fraction

import numpy as np
import pytest

from pertwave import invert, quadrature
from pertwave.basis import wave_basis
from pertwave.cli import INVERT_BLOCK
from pertwave.errors import DomainError, ToleranceNotMet
from pertwave.invert import KERNELS, RayField, h_shift_inverse, recover, recover_n2, recover_n4
from pertwave.quadrature import MAX_ORDER, QuadratureSpec, adaptive_gauss
from pertwave.ring import Polynomial, RhoExpr, margin
from pertwave.serialize import doc_to_expr
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
        got = adaptive_gauss(lambda t: t ** 5, [0.0], [1.0], Q)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_orientation(self):
        fwd = adaptive_gauss(lambda t: t ** 2, [0.0], [2.0], Q)
        rev = adaptive_gauss(lambda t: t ** 2, [2.0], [0.0], Q)
        assert fwd.shape == rev.shape == (1,)
        assert rev[0] == pytest.approx(-fwd[0], abs=1e-14)

    def test_empty_interval(self):
        got = adaptive_gauss(lambda t: t, [1.0], [1.0], Q)
        assert got.shape == (1,) and got[0] == 0.0

    def test_adaptive_refines(self):
        # sharply peaked but smooth integrand
        got = adaptive_gauss(lambda t: 1.0 / (1e-4 + t * t), [-1.0], [1.0],
                             QuadratureSpec(order=16))
        expect = 2.0 / 1e-2 * math.atan(1.0 / 1e-2)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(expect, rel=1e-10)

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 3)
        spec = QuadratureSpec(order=2, abs_tol=1e-15)
        with pytest.raises(ToleranceNotMet):
            adaptive_gauss(lambda t: np.abs(t - 1 / 3) ** 0.1, [0.0], [1.0], spec)

    def test_batch_matches_each_interval_alone(self):
        """Smooth, sharply peaked (refines), reversed and empty intervals in one
        batch: every element is the value the rule gives that interval alone,
        as a one-row batch."""
        spec = QuadratureSpec(order=16)
        a, b = np.array([0.0, -1.0, 2.0, 0.5]), np.array([1.0, 1.0, 0.0, 0.5])
        # the empty interval's integrand 1/(t - 0.5)^2 is infinite on it
        eps, c = np.array([1.0, 1e-4, 1.0, 0.0]), np.array([0.0, 0.3, -0.2, 0.5])
        calls = []

        def batch(t):
            calls.append(t.shape)
            return 1.0 / (eps[:, None] + (t - c[:, None]) ** 2)

        with np.errstate(divide="ignore", invalid="ignore"):
            got = adaptive_gauss(batch, a, b, spec)
        assert len(calls) > 1 and all(shape[0] == 4 for shape in calls)
        for i in range(4):
            alone = adaptive_gauss(lambda t: 1.0 / (eps[i] + (t - c[i]) ** 2),
                                   a[i:i + 1], b[i:i + 1], spec)
            assert alone.shape == (1,) and got[i] == alone[0]
        assert got[3] == 0.0

    def test_empty_batch_never_samples(self):
        def failing(t):
            raise AssertionError("sampled an empty interval")

        got = adaptive_gauss(failing, [0.5], [0.5], Q)
        assert got.shape == (1,) and got[0] == 0.0
        got = adaptive_gauss(failing, np.array([0.5, -1.0]), np.array([0.5, -1.0]), Q)
        assert np.array_equal(got, [0.0, 0.0])

    def test_batch_budget_is_per_interval(self, monkeypatch):
        """exp needs 1 bisection and sqrt(t + 1e-3) 21: together they fit a
        budget of 21, because each interval has its own; the kinked integrand
        alone exhausts it and fails the batch."""
        monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 21)
        spec = QuadratureSpec(order=4, abs_tol=1e-10)
        rows = [np.exp, lambda t: np.sqrt(t + 1e-3), lambda t: np.abs(t - 1 / 3) ** 0.1]

        def batch(keep):
            return lambda t: np.stack([rows[k](t[i]) for i, k in enumerate(keep)])

        ones = np.ones(3)
        with pytest.raises(ToleranceNotMet):
            adaptive_gauss(batch([0, 1, 2]), 0.0 * ones, ones, spec)
        got = adaptive_gauss(batch([0, 1]), 0.0 * ones[:2], ones[:2], spec)
        assert got == pytest.approx([math.e - 1.0, 2.0 / 3.0 * (1.001 ** 1.5 - 1e-3 ** 1.5)],
                                    abs=1e-9)

    def test_spec_validation(self):
        for order in (1, MAX_ORDER + 1):
            with pytest.raises(ValueError):
                QuadratureSpec(order=order)
        assert QuadratureSpec(order=MAX_ORDER).order == MAX_ORDER
        for abs_tol in (0.0, -1e-12, float("nan"), float("inf")):
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
        f = RayField.from_rho_expr(RhoExpr.rho(2, 0))
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
    bundle = build_phi(Polynomial(n, {(1, 1) + (0,) * (n - 2): 1}), n)
    f = RayField.from_rho_expr(bundle.phi)
    x = np.zeros(n)
    x[:2] = 1.0, 0.5
    values = recover(f, x, Q)
    for r, v in enumerate(values):
        assert v == pytest.approx(bundle.coefficient(r).eval_points(x[None, :])[0], abs=1e-10)
    x[0] = np.nextafter(1.0, 2.0)
    with pytest.raises(DomainError):
        recover(f, x, Q)


def test_overflow_is_a_domain_error():
    """The ray to (0, 1e150) is admissible, but x^3 overflows there: DomainError from
    recover, the one-point recoveries and h_shift_inverse, with no RuntimeWarning
    (pyproject.toml makes one fail the test)."""
    f = RayField.from_rho_expr(build_phi(Polynomial(2, {(2, 1): 3, (0, 3): 1}), 2).phi)
    for call in (lambda: recover(f, np.array([[0.0, 1e150]]), Q),
                 lambda: recover_n2(f, np.array([0.0, 1e150]), Q),
                 lambda: h_shift_inverse(f, 0, np.array([0.0, 1e150]), Q)):
        with pytest.raises(DomainError, match="ray recovery: overflow encountered"):
            call()


def test_coefficient_too_large_for_a_float_is_a_domain_error():
    """A field read from a document holding a 400-digit coefficient overflows c / den when
    sampled: DomainError from recover, the one-point recoveries and h_shift_inverse, not
    OverflowError."""
    term = {"coeff": "9" * 400, "exponents": [1, 0]}
    doc = {"format_version": 1, "dim": 2, "layers": [{"rho_power": 1, "terms": [term]}]}
    f = RayField.from_rho_expr(doc_to_expr(doc))
    x = np.array([0.1, 0.2])
    for call in (lambda: recover(f, x[None], Q), lambda: recover_n2(f, x, Q),
                 lambda: h_shift_inverse(f, 0, x, Q)):
        with pytest.raises(DomainError, match="ray recovery"):
            call()


@pytest.mark.parametrize("n, recover", [(2, recover_n2), (4, recover_n4)])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e200, -1e200])
@pytest.mark.parametrize("axis", [0, 1])
def test_non_finite_point_rejected(n, recover, bad, axis):
    """NaN, an infinite coordinate or one whose square overflows fails the ray guard
    before phi is sampled, with no RuntimeWarning."""
    def evaluate(points):
        raise AssertionError("sampled a non-finite ray")

    x = np.full(n, 0.1)
    x[axis] = bad
    with pytest.raises(DomainError, match=r"ray to \(.*\): margin 1 \+ x\.x = "):
        recover(RayField(dim=n, evaluate=evaluate), x, Q)


# -- the recovery core against the term-by-term formulas ------------------------------


def rho_weighted(phi, weight):
    """The field weight(rho) phi, rho = 1/(1 + x.x) at each sample point."""
    return RayField(dim=phi.dim,
                    evaluate=lambda points: weight(1.0 / margin(points)) * phi.evaluate(points))


def reference_n2(phi, x):
    """P0 = phi - I and P1 = (1 + x.x) I, with I = (H+1)^-1 (2 rho phi)."""
    i = h_shift_inverse(rho_weighted(phi, lambda rho: 2.0 * rho), 0, x, Q)
    value = phi.evaluate(x[None, :])[0]
    return value - i, margin(x[None, :])[0] * i


def reference_n4(phi, x):
    """P0 = phi + A - 12 J, P1 = B + 24 J + 2 s C and P2 by back-substitution,
    one h_shift_inverse per term (the formulas of the recover_n4 docstring)."""
    rho_inv = margin(x[None, :])[0]
    s = rho_inv - 1.0
    a = h_shift_inverse(rho_weighted(phi, lambda rho: 12.0 * rho * rho - 6.0 * rho), 1, x, Q)
    j = h_shift_inverse(rho_weighted(phi, lambda rho: rho * rho), 2, x, Q)
    b = h_shift_inverse(rho_weighted(phi, lambda rho: (12.0 + 6.0 * s) * rho
                                     - (24.0 + 12.0 * s) * rho * rho - 2.0 / rho - 4.0), 1, x, Q)
    c = h_shift_inverse(rho_weighted(phi, lambda rho: 1.0 + 3.0 * rho + 6.0 * rho * rho),
                        3, x, Q)
    value = phi.evaluate(x[None, :])[0]
    p0 = value + a - 12.0 * j
    p1 = b + 24.0 * j + 2.0 * s * c
    return p0, p1, rho_inv * rho_inv * (value - p0) - rho_inv * p1


RECOVERIES = {2: (recover_n2, reference_n2), 4: (recover_n4, reference_n4)}


def assert_matches_reference(n, phi, points):
    recover, reference = RECOVERIES[n]
    f = RayField.from_rho_expr(phi)
    for x in points:
        for got, want in zip(recover(f, x, Q), reference(f, x), strict=True):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_core_matches_reference_on_criterion_6_points():
    """The fields and points of the inversion round-trip acceptance criterion."""
    rng = np.random.default_rng(41)
    for n in (2, 4):
        seed = Polynomial(n, {(1, 1) + (0,) * (n - 2): 1})
        assert_matches_reference(n, build_phi(seed, n).phi, safe_points(rng, n, 20))


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("k", range(4))
def test_core_matches_reference_on_basis_seeds(n, k):
    rng = np.random.default_rng(100 * n + k)
    for seed in wave_basis(n, k).elements:
        assert_matches_reference(n, build_phi(seed, n).phi, safe_points(rng, n, 2))


@pytest.mark.parametrize("n", sorted(KERNELS))
def test_one_ray_integral_batch_per_recovery(monkeypatch, n):
    """The P_r for r < n/2 take one adaptive_gauss call together, P_{n/2} none; one ray
    check.  recover on 5 points makes the same calls: one batch for every kernel."""
    counts = {"adaptive_gauss": 0, "_check_rays": 0}

    def counted(name):
        original = getattr(invert, name)

        def wrapper(*args):
            counts[name] += 1
            return original(*args)
        return wrapper

    for name in counts:
        monkeypatch.setattr(invert, name, counted(name))
    phi = build_phi(Polynomial(n, {(1, 1) + (0,) * (n - 2): 1}), n).phi
    field = RayField.from_rho_expr(phi)
    RECOVERIES[n][0](field, np.full(n, 0.2), Q)
    assert counts == {"adaptive_gauss": 1, "_check_rays": 1}
    counts.update(dict.fromkeys(counts, 0))
    assert recover(field, safe_points(np.random.default_rng(n), n, 5), Q).shape == (5, n // 2 + 1)
    assert counts == {"adaptive_gauss": 1, "_check_rays": 1}


def test_stacked_kernels_equal_one_batch_per_kernel():
    """Kernels are components of one row per ray, on the panels the row needs for all of
    them.  When one kernel bisects and the other does not, the bisecting one keeps the bits
    of its batch alone, and the smooth one, integrated on the finer panels, stays within
    1e-12 of its own."""
    phi = build_phi(Polynomial(2, {(1, 1): 1}), 2).phi
    steps = []

    def evaluate(points):  # one call per adaptive_gauss step
        steps.append(len(points))
        return phi.eval_points(points)

    field, points = RayField(dim=2, evaluate=evaluate), safe_points(np.random.default_rng(3), 2, 4)
    kernels = (lambda v, rho, s: 2.0 * rho,  # smooth: the opening step settles it
               lambda v, rho, s: 1.0 / (1e-4 + (v - 0.3) ** 2))  # peaked: bisects

    def alone(K):
        steps.clear()
        integrals, _ = invert._ray_integrals(field, points, None, (K,), Q)
        return integrals[0], len(steps)

    (smooth, smooth_steps), (peaked, peaked_steps) = map(alone, kernels)
    assert smooth_steps == 1 < peaked_steps
    steps.clear()
    stacked, _ = invert._ray_integrals(field, points, None, kernels, Q)
    assert stacked.shape == (2, len(points)) and len(steps) == peaked_steps
    assert np.array_equal(stacked[1], peaked) and np.abs(stacked[0] - smooth).max() <= 1e-12


def separate_target_recover(phi, points, n):
    """recover's rows computed with phi(x) evaluated on its own call, before the ray batch."""
    points, rho_inv = invert._check_rays(phi, points)
    top = phi.evaluate(points)
    integrals, _ = invert._ray_integrals(phi, points, rho_inv[:, None] - 1.0, KERNELS[n], Q)
    coeffs = [integrals[0] + top, *integrals[1:]]
    for p in coeffs:
        top = (top - p) * rho_inv
    return np.column_stack(coeffs + [top])


def counting_recover(monkeypatch, phi, points):
    """recover(phi, points) with phi's evaluate calls kept, and adaptive_gauss's integrand
    calls as (abscissae, shape of the values)."""
    calls, steps, original = [], [], invert.adaptive_gauss

    def evaluate(pts):
        calls.append(np.array(pts))
        return phi.evaluate(pts)

    def quadrature(f, a, b, spec):
        def integrand(v):
            values = f(v)
            steps.append((v.copy(), values.shape))
            return values
        return original(integrand, a, b, spec)

    monkeypatch.setattr(invert, "adaptive_gauss", quadrature)
    counted = RayField(dim=phi.dim, evaluate=evaluate, expr=phi.expr)
    return recover(counted, points, Q), calls, steps


def exact_field(n):
    seed = max(wave_basis(n, 3).elements, key=lambda p: len(p.terms))
    return RayField.from_rho_expr(build_phi(seed, n).phi)


def blind_field(n):
    return RayField(dim=n, evaluate=lambda p: np.cos(p[:, 0]) * np.exp(0.5 * p[:, 1]) + p[:, -1])


def peaked_field(n):  # a ray to x1 = 0.3 crosses the peak at x1 = 0.15, and bisects
    return RayField(dim=n, evaluate=lambda p: 1.0 / (1e-4 + (p[:, 1] - 0.15) ** 2))


@pytest.mark.parametrize("m", [1, 5])
@pytest.mark.parametrize("make", [exact_field, blind_field, peaked_field],
                         ids=["exact", "blind", "bisecting"])
@pytest.mark.parametrize("n", sorted(KERNELS))
def test_targets_ride_in_the_ray_evaluations(monkeypatch, n, make, m):
    """recover evaluates phi once per integrand call, at that call's abscissae with the m
    targets after them, and at nothing else; its rows equal, bit for bit, those computed
    with a separate phi(x) call."""
    phi, points = make(n), safe_points(np.random.default_rng(70 + n + m), n, m)
    points[:, 1] = np.clip(points[:, 1], -0.1, 0.1)  # only the last ray nears the peak
    points[-1, 1] = 0.3
    got, calls, steps = counting_recover(monkeypatch, phi, points)
    assert len(calls) == len(steps) >= 1
    assert (len(steps) > 1) == (make is peaked_field)
    for pts, (v, _) in zip(calls, steps):
        assert pts.shape == (v.size + m, n) and np.array_equal(pts[v.size:], points)
    monkeypatch.undo()
    assert np.array_equal(got, separate_target_recover(phi, points, n))


@pytest.mark.parametrize("make", [exact_field, peaked_field], ids=["exact", "bisecting"])
def test_n4_evaluates_phi_once_per_ray_abscissa(monkeypatch, make):
    """The two n = 4 kernels are components of one row per ray: each integrand call takes
    (m, P) abscissae v and returns (2, m, P) values, and its one evaluate call takes the P
    points vx of each of the m rays, then the m targets: P m + m points in all."""
    m = 5
    points = safe_points(np.random.default_rng(80), 4, m)
    points[-1, 1] = 0.3  # near the peak of peaked_field
    _, calls, steps = counting_recover(monkeypatch, make(4), points)
    assert len(calls) == len(steps) and (len(steps) > 1) == (make is peaked_field)
    for pts, (v, shape) in zip(calls, steps):
        assert v.shape[0] == m and shape == (2, *v.shape)
        assert pts.shape == (v.shape[1] * m + m, 4) and np.array_equal(pts[-m:], points)
        assert np.array_equal(pts[:-m], (points[:, None, :] * v[..., None]).reshape(-1, 4))


@pytest.mark.parametrize("n", sorted(KERNELS))
def test_no_points_no_evaluation(monkeypatch, n):
    got, calls, steps = counting_recover(monkeypatch, exact_field(n), np.empty((0, n)))
    assert got.shape == (0, n // 2 + 1) and calls == steps == []


@pytest.mark.parametrize("n", sorted(KERNELS))
def test_batch_rows_equal_one_point_results(n):
    """A batch longer than one CLI block gives, row by row, exactly the one-point
    results, which are tuples of Python floats within 1e-12 max(1, |P|) of the
    term-by-term reference."""
    assert sorted(KERNELS) == sorted(RECOVERIES)
    one_point, reference = RECOVERIES[n]
    seed = max(wave_basis(n, 3).elements, key=lambda p: len(p.terms))
    f = RayField.from_rho_expr(build_phi(seed, n).phi)
    points = safe_points(np.random.default_rng(50 + n), n, INVERT_BLOCK + 3)
    rows = recover(f, points, Q)
    assert rows.shape == (len(points), n // 2 + 1)
    for x, row in zip(points, rows):
        values = one_point(f, x, Q)
        assert type(values) is tuple and all(type(v) is float for v in values)
        assert tuple(row) == values
        for got, want in zip(row, reference(f, x), strict=True):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_batch_names_first_bad_row():
    """The ray check runs over the whole batch before phi is sampled, and names
    the first inadmissible row in input order."""
    def evaluate(points):
        raise AssertionError("sampled before the ray check")

    points = np.full((6, 2), 0.1)
    points[2] = 0.2, math.nan
    points[4] = 0.99, 0.0
    message = "ray to (0.2, nan): margin 1 + x.x = nan, not in [0.25, inf)"
    with pytest.raises(DomainError, match=re.escape(message)):
        recover(RayField(dim=2, evaluate=evaluate), points, Q)


def test_dim_without_kernels():
    f = RayField.from_rho_expr(RhoExpr.rho(6))
    with pytest.raises(DomainError, match=r"KERNELS has \[2, 4\]"):
        recover(f, np.zeros((1, 6)), Q)


@pytest.mark.parametrize("dim, call", [
    (2, lambda f, x: recover(f, x[None, :], Q)),
    (2, lambda f, x: recover(f, x, Q)),
    (2, lambda f, x: recover_n2(f, x, Q)),
    (4, lambda f, x: recover_n4(f, x, Q)),
    (2, lambda f, x: h_shift_inverse(f, 0, x, Q)),
], ids=["recover", "recover-flat", "recover_n2", "recover_n4", "h_shift_inverse"])
def test_point_shape_checked_before_sampling(dim, call):
    """A point with one coordinate too many on a black-box field is a DomainError."""
    def evaluate(points):
        raise AssertionError("sampled a point of the wrong shape")

    with pytest.raises(DomainError, match=rf"points of shape .*, expected \(m, {dim}\)"):
        call(RayField(dim=dim, evaluate=evaluate), np.full(dim + 1, 0.1))
