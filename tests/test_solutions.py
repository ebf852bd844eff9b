import hashlib
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import nonsingular_points
from pertwave import solutions
from pertwave.basis import is_wave_polynomial, wave_basis
from pertwave.errors import (DivergentIntegral, DomainError,
                             NotAWavePolynomial, UnsupportedDim)
from pertwave.ring import Polynomial, RhoExpr
from pertwave.serialize import bundle_to_doc, dumps, expr_to_doc
from pertwave.solutions import (beta_coefficients, build_phi,
                                check_n2_background, psi0_residual,
                                recursion_step, residual)


def P(dim, terms):
    return Polynomial(dim, {e: Fraction(c) for e, c in terms.items()})


# Worked coefficient pairs/triples (seed P_{n/2} listed first, then the
# lower coefficients the recursion must produce).
TABLE = [
    # n = 2: P_0 = (k - 1)/2 * P_1 for a degree-k seed
    (2, [P(2, {(0, 0): 1}), P(2, {(0, 0): Fraction(-1, 2)})]),
    (2, [P(2, {(1, 0): 1}), P(2, {})]),
    (2, [P(2, {(0, 1): 1}), P(2, {})]),
    (2, [P(2, {(1, 1): 1}), P(2, {(1, 1): Fraction(1, 2)})]),
    (2, [P(2, {(2, 0): 1, (0, 2): 1}),
         P(2, {(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)})]),
    (2, [P(2, {(3, 0): 1, (1, 2): 3}),
         P(2, {(3, 0): 1, (1, 2): 3})]),
    # n = 4: P_1 = (k - 1)/2 * P_2, P_0 = k/6 * P_1
    (4, [P(4, {(0, 0, 0, 0): 1}),
         P(4, {(0, 0, 0, 0): Fraction(-1, 2)}),
         P(4, {})]),
    (4, [P(4, {(1, 0, 0, 0): 1}),
         P(4, {}),
         P(4, {})]),
    (4, [P(4, {(1, 1, 0, 0): 1}),
         P(4, {(1, 1, 0, 0): Fraction(1, 2)}),
         P(4, {(1, 1, 0, 0): Fraction(1, 6)})]),
    (4, [P(4, {(2, 0, 0, 0): 1, (0, 0, 2, 0): 1}),
         P(4, {(2, 0, 0, 0): Fraction(1, 2), (0, 0, 2, 0): Fraction(1, 2)}),
         P(4, {(2, 0, 0, 0): Fraction(1, 6), (0, 0, 2, 0): Fraction(1, 6)})]),
]


@pytest.mark.parametrize("n,coeffs", TABLE)
def test_worked_recursion_rows(n, coeffs):
    bundle = build_phi(coeffs[0], n)
    assert list(bundle.coefficients) == coeffs


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_build_phi_residual_zero(n):
    seed = next(p for p in wave_basis(n, 2).elements)
    bundle = build_phi(seed, n)
    assert residual(bundle.phi, n).is_zero()


def test_bundle_accessors():
    seed = P(4, {(1, 1, 0, 0): 1})
    bundle = build_phi(seed, 4)
    assert bundle.coefficient(2) == seed
    assert bundle.coefficient(0) == bundle.coefficients[-1]
    assert bundle.seed == seed


def test_degree_preserved_and_wave():
    for n in (2, 4, 6):
        for seed in wave_basis(n, 3).elements[:3]:
            bundle = build_phi(seed, n)
            for p in bundle.coefficients:
                assert p.is_zero() or p.degree() == 3
                assert p.box().is_zero()


def test_phi_numeric_residual():
    """Cross-check the exact residual numerically at random points."""
    seed = P(2, {(3, 0): 1, (1, 2): 3})
    bundle = build_phi(seed, 2)
    rng = np.random.default_rng(11)
    pts = nonsingular_points(rng, 2, 20)
    res = residual(bundle.phi, 2).eval_points(pts)
    assert np.max(np.abs(res)) < 1e-12


def test_rejects_non_wave_seed():
    with pytest.raises(NotAWavePolynomial):
        build_phi(P(2, {(2, 0): 1}), 2)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_each_coefficient_checked_once(monkeypatch, n):
    """box is taken once of the seed and once of each recursion output."""
    checked = []

    def counting(p):
        checked.append(p)
        return is_wave_polynomial(p)

    monkeypatch.setattr(solutions, "is_wave_polynomial", counting)
    bundle = build_phi(Polynomial.monomial(n, (1, 1) + (0,) * (n - 2)), n)
    assert checked == list(bundle.coefficients)


def test_rejects_odd_dim():
    with pytest.raises(UnsupportedDim):
        build_phi(P(3, {(0, 0, 0): 1}), 3)
    with pytest.raises(UnsupportedDim):
        recursion_step(RhoExpr.constant(3, 1), 3, 0)


def test_recursion_index_range():
    with pytest.raises(IndexError):
        recursion_step(RhoExpr.constant(4, 1), 4, 2)


def test_seed_dim_mismatch():
    with pytest.raises(DomainError):
        build_phi(P(2, {(1, 0): 1}), 4)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_psi0_residual_zero(n):
    assert psi0_residual(n).is_zero()


def test_psi0_rejects_small_or_odd():
    for n in (2, 3, 5):
        with pytest.raises(UnsupportedDim):
            psi0_residual(n)


class TestN2Background:
    def test_small_residual(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-0.4, 0.4, (25, 2))
        for k, a in [(1, 1), (1, -3), (2, 1)]:
            assert check_n2_background(k, a, pts) < 1e-9

    def test_rejects_bad_params(self):
        with pytest.raises(DomainError):
            check_n2_background(0, 1, [(0.0, 0.0)])
        with pytest.raises(DomainError):
            check_n2_background(1, 0, [(0.0, 0.0)])
        with pytest.raises(DomainError):
            check_n2_background(1, 1, [(2.0, 0.0)])

    def test_oracle_is_sensitive(self):
        """A hand-perturbed field does not satisfy the residual check: recompute
        the residual with the log field doubled and make sure it is large."""
        import math
        t, x = 0.1, 0.2
        s = 1 - t * t + x * x
        d_tt = 2 * (4.0 / s + 8.0 * t * t / (s * s))
        d_xx = 2 * (-4.0 / s + 8.0 * x * x / (s * s))
        chi = -4.0 * math.log(s)
        res = (-d_tt + d_xx) + 8.0 * math.exp(chi)
        assert abs(res) > 1e-2


class TestBetaCoefficients:
    def test_n2_k2_values(self):
        assert beta_coefficients(2, 2) == [Fraction(1, 3), Fraction(1, 6)]

    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_matches_recursion_identity(self, n, k):
        """c_r = 2(r+1)(2k + n - 2r - 4) c_{r+1} / ((n-2r)(n+2r+2))."""
        cs = beta_coefficients(n, k)
        half = n // 2
        by_r = {half - i: c for i, c in enumerate(cs)}
        for r in range(half - 1, -1, -1):
            expect = (Fraction(2 * (r + 1) * (2 * k + n - 2 * r - 4),
                               (n - 2 * r) * (n + 2 * r + 2)) * by_r[r + 1])
            assert by_r[r] == expect

    @pytest.mark.parametrize("n,k", [(2, 3), (4, 2), (6, 4)])
    def test_scaled_bundle_solves(self, n, k):
        """sum_r c_r p rho^r solves the PDE for any homogeneous degree-k seed,
        and agrees with the recursion chain up to the overall factor c_{n/2}."""
        seed = next(p for p in wave_basis(n, k).elements if p.degree() == k)
        cs = beta_coefficients(n, k)
        half = n // 2
        phi = RhoExpr(n, {half - i: seed.scale(c) for i, c in enumerate(cs)})
        assert residual(phi, n).is_zero()
        bundle = build_phi(seed, n)
        for i, c in enumerate(cs):
            assert seed.scale(c / cs[0]) == bundle.coefficients[i]

    def test_divergent(self):
        with pytest.raises(DivergentIntegral):
            beta_coefficients(2, 1)
        with pytest.raises(UnsupportedDim):
            beta_coefficients(3, 2)


def sweep_digest(max_degree):
    """sha256 over every wave_basis(n, k) seed, n in {2, 4, 6, 8}, k <= max_degree: the
    document and str() of phi, of its residual and of the residual of phi less its rho^0
    layer, then the document of the bundle."""
    digest = hashlib.sha256()
    for n in (2, 4, 6, 8):
        for k in range(max_degree + 1):
            for seed in wave_basis(n, k).elements:
                bundle = build_phi(seed, n, check=False)
                phi = bundle.phi
                truncated = RhoExpr(n, {s: p for s, p in phi.layers.items() if s})
                for x in (phi, residual(phi, n), residual(truncated, n)):
                    digest.update(dumps(expr_to_doc(x)).encode())
                    digest.update(str(x).encode() + b"\n")
                digest.update(dumps(bundle_to_doc(bundle)).encode())
    return digest.hexdigest()


def test_golden_sweep_digest():
    """Normal forms, their text and the documents of the criterion-1 sweep (k <= 4;
    k <= 6 takes about 20 s) hash to the digest pinned in tests/golden."""
    golden = (Path(__file__).parent / "golden" / "sweep_digest.txt").read_text().split()[0]
    assert sweep_digest(4) == golden
