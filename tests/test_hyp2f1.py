from fractions import Fraction

import pytest

from pertwave.errors import DomainError
from pertwave.hyp2f1 import fk_ode_residual, hyp2f1_terminating, radial_numerator
from pertwave.ring import Polynomial


def poly_u(*coeffs):
    """Dim-1 Polynomial from ascending coefficients."""
    return Polynomial(1, {(i,): Fraction(c) for i, c in enumerate(coeffs)})


class TestTerminatingSeries:
    def test_simple_binomial(self):
        # F[-2, b, b, z] = (1 - z)^2 for generic b: coefficients 1, -2, 1
        got = hyp2f1_terminating(-2, 5, 5)
        assert got == poly_u(1, -2, 1)

    def test_degree_bound(self):
        got = hyp2f1_terminating(-3, Fraction(1, 2), 2)
        assert got.dim == 1 and got.degree() <= 3

    def test_scipy_crosscheck(self):
        from scipy.special import hyp2f1 as sp
        a, b, c = Fraction(-3), Fraction(1, 2), Fraction(7, 3)
        poly = hyp2f1_terminating(a, b, c)
        for z in (-0.7, -0.2, 0.3, 0.9, 2.5):
            assert poly.eval_points([[z]])[0] == pytest.approx(
                sp(float(a), float(b), float(c), z), rel=1e-12)

    def test_requires_terminating(self):
        with pytest.raises(DomainError, match="no upper parameter .* is a non-positive integer"):
            hyp2f1_terminating(Fraction(1, 2), Fraction(1, 3), 1)

    def test_pole_detected(self):
        with pytest.raises(DomainError, match="lower parameter c=-1 hits a pole"):
            hyp2f1_terminating(-3, 2, -1)

    def test_pole_after_termination_ok(self):
        # series stops at index 1, before c = -2 can bite
        got = hyp2f1_terminating(-1, 3, -2)
        assert got == poly_u(1, Fraction(3, 2))


class TestRadialSolution:
    def test_g12_n2_k2(self):
        assert radial_numerator(2, 2) == poly_u(Fraction(1, 3), -1)

    def test_prints_in_u(self):
        assert str(radial_numerator(2, 2)) == "-u + 1/3"

    def test_scalar_evaluation(self):
        assert radial_numerator(2, 2).eval_points([[0.3]])[0] == pytest.approx(1 / 3 - 0.3)

    def test_g12_numeric_crosscheck(self):
        """g12 = N (1-u)^{-1-n} against scipy away from u = 0, 1."""
        from scipy.special import hyp2f1 as sp
        for n, k in [(2, 2), (4, 2), (6, 3)]:
            half = n // 2
            num = radial_numerator(n, k)
            for u in (-1.5, -0.4, 0.3, 2.0):
                expect = ((-u) ** half * (1 - u) ** (-1 - n)
                          * sp(-half, k - 1, k + half, 1.0 / u))
                got = num.eval_points([[u]])[0] / (1 - u) ** (n + 1)
                assert got == pytest.approx(expect, rel=1e-10)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
    def test_ode_residual_zero(self, n, k):
        assert fk_ode_residual(n, k).is_zero()

    def test_ode_residual_detects_wrong_k(self):
        """The n=2, k=2 solution with the first-order coefficient of k=5 fails."""
        n, h, k_wrong = 2, 1, 5
        num = radial_numerator(n, 2)
        u = Polynomial.coordinate(1, 0)
        w = Polynomial.constant(1, 1) - u
        d1 = num.diff(0)
        d2 = d1.diff(0)
        wrong = (4 * u * (d2 * w * w + 2 * h * d1 * w + h * (h + 1) * num)
                 - (2 * n - 8 + 4 * k_wrong) * (d1 * w * w + h * num * w)
                 - n * (n + 2) * num)
        assert not wrong.is_zero()

    def test_odd_dim_rejected(self):
        with pytest.raises(DomainError, match="even n >= 2 required, got 3"):
            radial_numerator(3, 2)
        with pytest.raises(DomainError, match="even n >= 2 required, got 3"):
            fk_ode_residual(3, 2)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_sympy_oracle(n, k):
    """sympy, independently of ring.Polynomial, confirms N and the radial ODE."""
    sympy = pytest.importorskip("sympy")
    u = sympy.Symbol("u")
    half = n // 2
    num = sum(sympy.Rational(c.numerator, c.denominator) * u ** e
              for (e,), c in radial_numerator(n, k).terms.items())
    series = sympy.hyperexpand(sympy.hyper([-half, k - 1], [k + half], 1 / u))
    assert sympy.expand((-u) ** half * series - num) == 0
    f = num * (1 - u) ** -half
    ode = (4 * u * sympy.diff(f, u, 2) - (2 * n - 8 + 4 * k) * sympy.diff(f, u)
           - n * (n + 2) / (1 - u) ** 2 * f)
    assert sympy.simplify(ode) == 0
