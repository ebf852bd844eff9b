"""The Gauss-Kronrod rule behind adaptive_gauss, and what one panel costs."""

import math
import warnings

import numpy as np
import pytest

from pertwave.quadrature import MAX_ORDER, QuadratureSpec, adaptive_gauss, kronrod_rule

# QUADPACK's qk15 table (Piessens et al. 1983): the non-negative 15-point Kronrod nodes in
# descending order, their Kronrod weights, and the 7-point Gauss weights of xgk[1::2]
QK15_XGK = [0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
            0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
            0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
            0.207784955007898467600689403773245, 0.0]
QK15_WGK = [0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
            0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
            0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
            0.204432940075298892414161999234649, 0.209482141084727828012999174891714]
QK15_WG = [0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
           0.381830050505118944950369775488975, 0.417959183673469387755102040816327]


def gauss_weights(weights):
    """The n-point Gauss weights at the odd-indexed nodes: Kronrod less the null row."""
    return (weights[0] - weights[1])[1::2]


def test_qk15_table():
    nodes, weights = kronrod_rule(7)
    assert nodes.shape == (15,) and weights.shape == (2, 15)
    assert np.abs(nodes[:8] + QK15_XGK).max() <= 1e-15
    assert np.abs(weights[0, :8] - QK15_WGK).max() <= 1e-15
    assert np.abs(gauss_weights(weights)[:4] - QK15_WG).max() <= 1e-15


@pytest.mark.parametrize("n", [*range(2, 65), MAX_ORDER])
def test_rule(n):
    """Built afresh with warnings as errors: 2n+1 ascending, exactly odd nodes strictly
    inside (-1, 1), the odd-indexed ones leggauss(n)'s; even and positive weights, the
    Kronrod ones exact on x^k for k <= 3n+1 and the Gauss ones for k < 2n (k <= 200
    both); a null row whose exact sum is one rounding of its centre weight."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nodes, weights = kronrod_rule.__wrapped__(n)
    gauss_nodes, _ = np.polynomial.legendre.leggauss(n)
    assert nodes.shape == (2 * n + 1,) and np.isfinite(nodes).all()
    assert (np.diff(nodes) > 0).all() and -1.0 < nodes[0] and nodes[-1] < 1.0
    assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[:, ::-1])
    assert np.abs(nodes[1::2] - gauss_nodes).max() <= 4e-16
    assert (weights[0] > 0).all() and (gauss_weights(weights) > 0).all()
    assert abs(math.fsum(weights[1])) <= np.spacing(abs(weights[1, n]))
    for w, x, top in ((weights[0], nodes, 3 * n + 1),
                      (gauss_weights(weights), nodes[1::2], 2 * n - 1)):
        k = np.arange(min(top, 200) + 1)
        exact = np.where(k % 2 == 0, 2.0 / (k + 1), 0.0)
        assert np.abs((x ** k[:, None]) @ w - exact).max() <= 1e-14


def test_one_call_of_2n_plus_1_nodes_per_panel():
    """Nothing bisects: one call of shape (m, 2N+1), each row the nodes on its interval.
    One row bisects: the next call takes 2(2N+1) abscissae a row, the bisected panel's
    two halves, and pads the settled rows with dead panels."""
    n = 8
    spec = QuadratureSpec(order=n)
    nodes, _ = kronrod_rule(n)
    a, b = np.array([0.0, -1.0, 2.0]), np.array([1.0, 0.5, 1.0])
    calls = []

    def smooth(t):
        calls.append(t.copy())
        return np.cos(t)

    got = adaptive_gauss(smooth, a, b, spec)
    assert [c.shape for c in calls] == [(3, 2 * n + 1)]
    assert np.array_equal(calls[0], 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * nodes)
    assert got == pytest.approx(np.sin(b) - np.sin(a), abs=1e-14)

    calls.clear()

    def peaked(t):  # row 1 peaks at t = 0.1, so [-1, 0.5] bisects at its midpoint -0.25
        calls.append(t.copy())
        return np.where(np.arange(3)[:, None] == 1, 1.0 / (1e-2 + (t - 0.1) ** 2), np.cos(t))

    got = adaptive_gauss(peaked, a, b, spec)
    assert calls[0].shape == (3, 2 * n + 1) and calls[1].shape == (3, 2 * (2 * n + 1))
    lo, mid, hi = -1.0, -0.25, 0.5
    halves = [0.5 * (lo + mid) + 0.5 * (mid - lo) * nodes,
              0.5 * (mid + hi) + 0.5 * (hi - mid) * nodes]
    assert np.array_equal(calls[1][1], np.concatenate(halves))
    assert got[1] == pytest.approx(10.0 * (math.atan(4.0) + math.atan(11.0)), rel=1e-14)


def test_peaked_integrands_at_the_rounding_floor():
    """1/(eps + (t - c)^2) on [-1, 1] at abs_tol 1e-12, integrals up to ~300: the
    tolerance sits at a few ulps of each panel, where the estimate |K - G| is mostly
    rounding.  Every seeded case still settles, and to 2e-15 relative."""
    rng = np.random.default_rng(7)
    for _ in range(40):
        c, eps = rng.uniform(-0.9, 0.9), 10 ** rng.uniform(-4, -2)
        spec = QuadratureSpec(order=int(rng.choice([8, 16, 32, 64])))
        got = adaptive_gauss(lambda t: 1.0 / (eps + (t - c) ** 2), [-1.0], [1.0], spec)
        root = math.sqrt(eps)
        expect = (math.atan((1 - c) / root) + math.atan((1 + c) / root)) / root
        assert got[0] == pytest.approx(expect, rel=2e-15), (c, eps, spec.order)


def test_rule_is_built_once_per_order_and_read_only():
    nodes, weights = kronrod_rule(64)
    assert kronrod_rule(64)[0] is nodes and kronrod_rule(64)[1] is weights
    with pytest.raises(ValueError):
        weights[0, 0] = 0.0
