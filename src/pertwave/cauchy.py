"""Closed-form n=2 Cauchy evolution and an independent finite-difference oracle.

evolve_grid evaluates the closed-form kernel solution of

    -phi_tt + phi_xx + 8 phi / (1 + x^2 - t^2)^2 = 0

from initial position data u0 and velocity data v0 given at t = a.  Its two kernel
integrals share the data interval, oriented as in the closed form from w = x + (t-a)
to w = x - (t-a), so they are one integrand, on every slice (2A u0 r^2 + B v0 r / 2) / sigma
with sigma = 1 + x^2 - t^2, r = 1/(1 - a^2 + w^2) and quadratics A, B in w set by the node
and a (_kernel_coefficients).  A grid is checked and its boundary terms taken once; then
each time row is one adaptive_gauss batch; evolve_point is the one-node grid.  A float
overflow or invalid operation is a DomainError (errors.float_guard), not a warning.  Data
from an exact phi are its restriction to t = a and that of its t-derivative, which the ring
gives as functions of w (RhoExpr.on_slice).  Tabulated data are a natural cubic spline, one
cubic per interval.  fd_reference is a leapfrog oracle; it shares no code path with the kernel.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, float_guard
from .quadrature import QuadratureSpec, adaptive_gauss
from .ring import RhoExpr, check_margin

# Cauchy guard: nodes, grids and the data intervals on t = a keep
# 1 + x^2 - t^2 >= EPS_SING (ring.check_margin).  The kernel divides by that margin
# and the leapfrog oracle steps with the potential 8/margin^2, so the cut bounds those
# factors by 1e3 and 8e6 on every admitted node, grid and data interval.
EPS_SING = 1e-3
# leapfrog oracle's Courant number: its dt <= CFL * dx, under the scheme's stability limit 1
CFL = 0.9


def _tx_rows(t, x):
    """The (t, x) pairs of broadcast t and x as the rows of an (m, 2) array, in C order."""
    return np.stack(np.broadcast_arrays(t, x), axis=-1, dtype=float).reshape(-1, 2)


@dataclass(frozen=True)
class InitialData:
    """Cauchy data on the slice t = a: phi = u0(w), dphi/dt = v0(w).

    u0 and v0 map an array of abscissae w to the array of their values.  The
    data of from_rho_expr and from_samples take a number w as the array [w].
    """

    a: float
    u0: Callable[[np.ndarray], np.ndarray]
    v0: Callable[[np.ndarray], np.ndarray]
    expr: Optional[RhoExpr] = field(default=None, compare=False)

    def __post_init__(self):
        if not math.isfinite(self.a):
            raise DomainError(f"data slice t = a must be finite, got {self.a}")

    @classmethod
    @float_guard("exact Cauchy data")  # a coefficient rounded to float may overflow
    def from_rho_expr(cls, expr, a=0.0):
        """Restrict an exact dim-2 solution, and for v0 its t-derivative, to t = a, each
        exactly and then as one rational function of w (RhoExpr.on_slice)."""
        if expr.dim != 2:
            raise DomainError(f"Cauchy data needs dim 2, got {expr.dim}")
        if not math.isfinite(a * a):  # a float a^2 overflows to inf, with no warning
            raise DomainError(f"data slice t = a must be finite, with a finite a^2, got {a}")
        return cls(a=float(a), u0=expr.on_slice(a), v0=expr.diff(0).on_slice(a), expr=expr)

    @classmethod
    def from_samples(cls, w, u, v, a=0.0):
        """Natural cubic-spline interpolation of tabulated data (de Boor, ch. IV).

        DomainError outside the table, so quadrature abscissae never extrapolate.
        """
        w, y = np.array(w, dtype=float, ndmin=1), np.array([u, v], dtype=float)  # own copies
        h = np.diff(w)
        if not (w.size >= 4 and (h > 0).all() and np.isfinite(w).all() and np.isfinite(y).all()):
            raise DomainError("need at least 4 finite samples, with w strictly increasing")
        # one Thomas pass for the knot second derivatives M of u and v, zero at both ends:
        # h[i-1] M[i-1] + 2 (h[i-1] + h[i]) M[i] + h[i] M[i+1] = 6 (slope[i] - slope[i-1])
        slope = np.diff(y) / h
        diag, rhs, m = 2.0 * (h[:-1] + h[1:]), 6.0 * np.diff(slope), np.zeros_like(y)
        for i in range(1, diag.size):  # eliminate the sub-diagonal h[i] ...
            rhs[:, i] -= h[i] / diag[i - 1] * rhs[:, i - 1]
            diag[i] -= h[i] / diag[i - 1] * h[i]
        for i in range(diag.size, 0, -1):  # ... then M[i] from M[i + 1]
            m[:, i] = (rhs[:, i - 1] - h[i] * m[:, i + 1]) / diag[i - 1]
        cubics = np.stack([np.diff(m) / (6.0 * h), 0.5 * m[:, :-1],
                           slope - h * (2.0 * m[:, :-1] + m[:, 1:]) / 6.0, y[:, :-1]], axis=1)

        def spline(c):  # c[:, i] is interval i's cubic in q - w[i], highest power first
            def data(q):
                q = np.atleast_1d(np.asarray(q, dtype=float))
                if not ((q >= w[0]) & (q <= w[-1])).all():  # NaN is outside too
                    raise DomainError(
                        f"initial data requested outside tabulated range [{w[0]}, {w[-1]}]")
                # np.interp looks up from the last interval found (2x searchsorted on sorted q);
                # its floor may be i + 1 within rounding of w[i + 1], where the cubics agree
                i = np.minimum(np.interp(q, w, np.arange(w.size)).astype(int), w.size - 2)
                d, out = q - w[i], c[0, i]
                for ck in c[1:]:  # Horner in place
                    out *= d
                    out += ck[i]
                return out

            return data

        return cls(a=float(a), u0=spline(cubics[0]), v0=spline(cubics[1]))


@dataclass(frozen=True)
class Grid2D:
    x_min: float
    x_max: float
    nx: int
    t_min: float
    t_max: float
    nt: int

    def __post_init__(self):
        if not (isinstance(self.nx, numbers.Integral) and isinstance(self.nt, numbers.Integral)):
            raise ValueError(f"grid sizes nx, nt must be integers, got {self.nx!r}, {self.nt!r}")
        if self.nx < 2 or self.nt < 2:
            raise DomainError(f"grid needs nx, nt >= 2, got {self.nx}x{self.nt}")
        if not (0.0 < self.x_max - self.x_min < math.inf
                and 0.0 < self.t_max - self.t_min < math.inf):  # NaN fails it too
            raise DomainError(
                f"grid bounds must be finite and increasing, with finite spans: {self}")

    def xs(self):
        return np.linspace(self.x_min, self.x_max, self.nx)

    def ts(self):
        return np.linspace(self.t_min, self.t_max, self.nt)

    @property
    def dx(self):
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dt(self):
        return (self.t_max - self.t_min) / (self.nt - 1)

    def check_singularity(self):
        """DomainError unless the whole rectangle keeps 1 + x^2 - t^2 >= EPS_SING."""
        t, x = max(abs(self.t_min), abs(self.t_max)), np.clip(0.0, self.x_min, self.x_max)
        check_margin([[t, x]], EPS_SING, lambda p: f"grid reaches (x={p[1]}, t={p[0]})")


@dataclass(frozen=True)
class Field2D:
    grid: Grid2D
    values: np.ndarray  # shape (nx, nt); values[i, j] = phi(x_i, t_j)

    def __post_init__(self):
        expected = (self.grid.nx, self.grid.nt)
        if self.values.shape != expected:
            raise DomainError(f"values shape {self.values.shape} does not match grid {expected}")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("field contains non-finite values")


def _check_data_intervals(a, w_lo, w_hi):
    """Guard the kernel denominator 1 - a^2 + w^2 >= EPS_SING on every data interval on t = a.

    It is least at an interval's point nearest w = 0, and <= 0 there if the interval
    holds a real zero of it: one check_margin call over those points, in C order.
    ring.margin rounds it as the kernel does, so the kernel's is >= EPS_SING too.
    """
    if 1.0 - a * a >= EPS_SING:
        return  # 1 - a^2 + w^2 >= 1 - a^2 >= EPS_SING everywhere
    w = np.clip(0.0, np.minimum(w_lo, w_hi), np.maximum(w_lo, w_hi))
    check_margin(_tx_rows(a, w), EPS_SING, lambda p: f"data slice t = {p[0]} at w = {p[1]}")


def _kernel_coefficients(x, t, a):
    """The (6, *x.shape) coefficients, w^2 first, of 2A/sigma, then of B/(2 sigma), at (x, t):
    A = t w^2 - 2ax w + t(1+a^2) - ak, B = -k w^2 + 4x w + (1+a^2)k - 4at, k = 1 - x^2 + t^2."""
    opa, k = 1.0 + a * a, 1.0 - x * x + t * t
    return np.stack([2.0 * t, -4.0 * a * x, 2.0 * (t * opa - a * k),
                     -0.5 * k, 2.0 * x, 0.5 * (opa * k - 4.0 * a * t)]) / (1.0 + x * x - t * t)


@float_guard("closed-form evolution")
def _evolve_nodes(d, x, t, q):
    """Closed-form phi at the nodes (x[i, k], t[i, k]) of (rows x nodes) arrays: the node
    margins, boundary terms, data intervals and kernel coefficients once, in that order;
    then each row is one adaptive_gauss batch, a row per node, float trouble a DomainError."""
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    check_margin(_tx_rows(t, x), EPS_SING, lambda p: f"point (x={p[1]}, t={p[0]})")
    w_lo, w_hi = x + (t - d.a), x - (t - d.a)  # the data interval, as in the closed form
    ends = d.u0(np.concatenate([w_hi.ravel(), w_lo.ravel()]))
    out = 0.5 * (ends[:x.size] + ends[x.size:]).reshape(x.shape)
    _check_data_intervals(d.a, w_lo, w_hi)
    # a (6, nodes, 1) copy per row: a grid-sized array held through the loop fragments the heap
    coef = [c.copy() for c in _kernel_coefficients(x, t, d.a)[..., None].swapaxes(0, 1)]

    def kernel(w):  # row c's integrand r (2A u0 r + B v0 / 2) / sigma, Horner in place
        r = 1.0 / (1.0 - d.a * d.a + w * w)
        k1 = c[0] * w
        k1 += c[1]
        k1 *= w
        k1 += c[2]
        k1 *= d.u0(w.ravel()).reshape(w.shape)
        k1 *= r
        k2 = c[3] * w
        k2 += c[4]
        k2 *= w
        k2 += c[5]
        k2 *= d.v0(w.ravel()).reshape(w.shape)
        k1 += k2
        return np.multiply(k1, r, out=k1)

    for row, c, lo, hi in zip(out, coef, w_lo, w_hi):  # a row on t = a integrates to 0.0
        row -= adaptive_gauss(kernel, lo, hi, q)
    return out


def evolve_point(d, x, t, q=QuadratureSpec()):
    """Closed-form solution value phi(x, t) for initial data at t = a.

    Depends only on data in [x - (t-a), x + (t-a)]; the quadrature never
    samples outside that interval.
    """
    return float(_evolve_nodes(d, [[float(x)]], [[float(t)]], q)[0, 0])


def evolve_grid(d, g, q=QuadratureSpec()):
    """Field2D over the grid: checks and boundary terms once, then one batch per time row."""
    g.check_singularity()
    values = _evolve_nodes(d, g.xs(), g.ts()[:, None], q)  # (nt, nx): a time row per row
    return Field2D(grid=g, values=np.ascontiguousarray(values.T))


def _potential(xs, t):
    # the oracle keeps its own (1 + x^2) - t^2 rounding, independent of ring.margin
    return 8.0 / (1.0 + xs ** 2 - t * t) ** 2


def fd_reference(d, g, refine=1):
    """Independent leapfrog reference solution, restricted back to grid g.

    The data slice t = d.a must be the grid's first time.  The spatial domain
    is widened so the numerical domain of dependence of the requested region
    never touches the artificial boundaries; the time step is at most CFL
    times the space step; `refine` divides the spatial step (an integer, so
    the grid nodes stay on the refined nodes) for convergence studies.
    """
    if not (isinstance(refine, numbers.Integral) and refine >= 1):
        raise ValueError(f"refine must be an integer >= 1, got {refine}")
    if abs(g.t_min - d.a) > 1e-12:
        raise DomainError(
            f"fd_reference must start at the data slice t = {d.a}, grid starts at {g.t_min}")
    g.check_singularity()
    dx = g.dx / refine
    span = g.t_max - d.a
    n_pad = int(math.ceil(span / (CFL * dx))) + 2
    nx_ext = (g.nx - 1) * refine + 1 + 2 * n_pad
    xs = g.x_min - n_pad * dx + dx * np.arange(nx_ext)
    # substep so that stored slices land exactly on the requested t nodes
    m_sub = max(1, int(math.ceil(g.dt / (CFL * dx))))
    dt = g.dt / m_sub
    # the leapfrog steps from t_min to t_max: the margin is least at one of them
    check_margin(_tx_rows([g.t_min, g.t_max], xs[:, None]), EPS_SING,
                 lambda p: f"widened FD domain reaches (x={p[1]}, t={p[0]})")

    u0 = np.asarray(d.u0(xs), dtype=float)
    v0 = np.asarray(d.v0(xs), dtype=float)
    out = np.empty((g.nx, g.nt))
    sel = slice(n_pad, n_pad + (g.nx - 1) * refine + 1, refine)
    out[:, 0] = u0[sel]

    lap = np.zeros_like(xs)
    prev = u0.copy()
    lap[1:-1] = (u0[2:] - 2.0 * u0[1:-1] + u0[:-2]) / (dx * dx)
    cur = u0 + dt * v0 + 0.5 * dt * dt * (lap + _potential(xs, d.a) * u0)
    t_now = d.a + dt
    step = 1
    for j in range(1, g.nt):
        target = j * m_sub
        while step < target:
            lap[1:-1] = (cur[2:] - 2.0 * cur[1:-1] + cur[:-2]) / (dx * dx)
            nxt = 2.0 * cur - prev + dt * dt * (lap + _potential(xs, t_now) * cur)
            nxt[0], nxt[-1] = cur[0], cur[-1]
            prev, cur = cur, nxt
            step += 1
            t_now = d.a + step * dt
        out[:, j] = cur[sel]
    return Field2D(grid=g, values=out)


def pde_residual_fd(f):
    """Interior residual -Dtt + Dxx + 8/(1+x^2-t^2)^2 by central differences.

    Returns a Field2D on the interior sub-grid; second-order accurate, so the
    max residual of a smooth solution decays like h^2.
    """
    g = f.grid
    if g.nx < 5 or g.nt < 5:
        raise DomainError(f"residual stencil needs nx, nt >= 5, got {g.nx}x{g.nt}")
    xs, ts = g.xs(), g.ts()
    vals = f.values
    dxx = (vals[2:, 1:-1] - 2.0 * vals[1:-1, 1:-1] + vals[:-2, 1:-1]) / g.dx ** 2
    dtt = (vals[1:-1, 2:] - 2.0 * vals[1:-1, 1:-1] + vals[1:-1, :-2]) / g.dt ** 2
    res = -dtt + dxx + _potential(xs[1:-1, None], ts[None, 1:-1]) * vals[1:-1, 1:-1]
    inner = Grid2D(x_min=xs[1], x_max=xs[-2], nx=g.nx - 2,
                   t_min=ts[1], t_max=ts[-2], nt=g.nt - 2)
    return Field2D(grid=inner, values=res)


def initial_condition_check(d, q=QuadratureSpec()):
    """(max |phi(., a) - u0|, max |d/dt phi(., a) - v0|) over 21 positions in [-1, 1].

    The velocity is taken by a one-sided 4th-order finite difference in t of
    the closed form with step 1e-4, all 5 * 21 nodes in one batch.
    """
    xs = np.linspace(-1.0, 1.0, 21)
    dt_step = 1e-4
    xx, tt = np.broadcast_arrays(xs, d.a + np.arange(5)[:, None] * dt_step)
    samples = _evolve_nodes(d, xx.ravel()[None], tt.ravel()[None], q).reshape(xx.shape)
    weights = (-25.0, 48.0, -36.0, 16.0, -3.0)
    vel = sum(w * s for w, s in zip(weights, samples)) / (12.0 * dt_step)
    pos_err = float(np.max(np.abs(samples[0] - d.u0(xs)), initial=0.0))
    vel_err = float(np.max(np.abs(vel - d.v0(xs)), initial=0.0))
    return pos_err, vel_err
