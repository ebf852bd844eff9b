"""Closed-form n=2 Cauchy evolution and an independent finite-difference oracle.

evolve_grid evaluates the closed-form kernel solution of

    -phi_tt + phi_xx + 8 phi / (1 + x^2 - t^2)^2 = 0

from initial position data u0 and velocity data v0 given at t = a.  The two
kernel integrals are taken exactly as oriented in the closed form, from
w = x + (t-a) to w = x - (t-a).  Each time row is one batch: one u0 and one
v0 call give every node's first adaptive bisection step, and adaptive_gauss
finishes only the integrals that miss the tolerance there.  evolve_point is
the one-node batch.  fd_reference is a leapfrog solver used only
as an oracle; it shares no code path with the kernel evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (CFLViolation, DomainError, GridTooSmall, KernelPole,
                     SingularRegion)
from .quadrature import QuadratureSpec, adaptive_gauss, gauss_nodes
from .ring import RhoExpr, margin

# Cauchy guard: nodes, grids and the data intervals on t = a keep
# 1 + x^2 - t^2 >= EPS_SING.  The kernel divides by that margin and the
# leapfrog oracle steps with the potential 8/margin^2, so the cut bounds those
# factors by 1e3 and 8e6 on every admitted node, grid and data interval.
EPS_SING = 1e-3


def _check_margin(x, t, message):
    """SingularRegion unless 1 + x^2 - t^2 >= EPS_SING at every (x, t).

    x and t broadcast together; `message` is formatted with the first
    offending x, t, its margin m and eps = EPS_SING.
    """
    points = np.empty(np.broadcast(x, t).shape + (2,))
    points[..., 0], points[..., 1] = t, x
    points = points.reshape(-1, 2)
    m = margin(points)
    bad = np.flatnonzero(m < EPS_SING)
    if bad.size:
        k = bad[0]
        raise SingularRegion(
            message.format(x=points[k, 1], t=points[k, 0], m=m[k], eps=EPS_SING))


@dataclass(frozen=True)
class InitialData:
    """Cauchy data on the slice t = a: phi = u0(w), dphi/dt = v0(w)."""

    a: float
    u0: Callable[[np.ndarray], np.ndarray]
    v0: Callable[[np.ndarray], np.ndarray]
    expr: Optional[RhoExpr] = field(default=None, compare=False)

    @classmethod
    def from_rho_expr(cls, expr, a=0.0):
        """Restrict an exact dim-2 solution to t = a; v0 from its exact t-derivative."""
        if expr.dim != 2:
            raise DomainError(f"Cauchy data needs dim 2, got {expr.dim}")
        dt_expr = expr.diff(0)

        def on_slice(w):  # the points (a, w) as one (m, 2) array
            pts = np.empty((np.size(w), 2))
            pts[:, 0], pts[:, 1] = a, np.ravel(w)
            return pts

        def u0(w):
            return expr.eval_points(on_slice(w))

        def v0(w):
            return dt_expr.eval_points(on_slice(w))

        return cls(a=float(a), u0=u0, v0=v0, expr=expr)

    @classmethod
    def from_samples(cls, w, u, v, a=0.0):
        """Natural cubic-spline interpolation of tabulated data.

        Evaluation outside the tabulated range raises DomainError so that
        quadrature abscissae can never silently extrapolate.  scipy is
        imported here, not with the module, so that importing pertwave does
        not pay for scipy.interpolate.
        """
        from scipy.interpolate import CubicSpline

        w = np.asarray(w, dtype=float)
        if w.size < 4:
            raise DomainError("need at least 4 samples for cubic interpolation")
        u_spline = CubicSpline(w, np.asarray(u, dtype=float), bc_type="natural")
        v_spline = CubicSpline(w, np.asarray(v, dtype=float), bc_type="natural")
        lo, hi = float(w[0]), float(w[-1])

        def guard(spline):
            def f(q):
                q = np.atleast_1d(np.asarray(q, dtype=float))
                if np.any(q < lo) or np.any(q > hi):
                    raise DomainError(
                        f"initial data requested outside tabulated range [{lo}, {hi}]")
                return spline(q)

            return f

        return cls(a=float(a), u0=guard(u_spline), v0=guard(v_spline))


@dataclass(frozen=True)
class Grid2D:
    x_min: float
    x_max: float
    nx: int
    t_min: float
    t_max: float
    nt: int

    def __post_init__(self):
        if self.nx < 2 or self.nt < 2:
            raise GridTooSmall(f"grid needs nx, nt >= 2, got {self.nx}x{self.nt}")
        if self.x_max <= self.x_min or self.t_max <= self.t_min:
            raise DomainError("grid bounds must be increasing")

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
        """SingularRegion unless the whole rectangle keeps 1 + x^2 - t^2 >= EPS_SING."""
        worst_x = min(abs(self.x_min), abs(self.x_max))
        if self.x_min <= 0.0 <= self.x_max:
            worst_x = 0.0
        worst_t = max(abs(self.t_min), abs(self.t_max))
        _check_margin(worst_x, worst_t, "grid reaches 1 + x^2 - t^2 = {m} < {eps}")


@dataclass(frozen=True)
class Field2D:
    grid: Grid2D
    values: np.ndarray  # shape (nx, nt); values[i, j] = phi(x_i, t_j)

    def __post_init__(self):
        expected = (self.grid.nx, self.grid.nt)
        if self.values.shape != expected:
            raise DomainError(
                f"values shape {self.values.shape} does not match grid {expected}")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("field contains non-finite values")


def _check_data_intervals(a, w_lo, w_hi):
    """Guard the kernel denominator 1 - a^2 + w^2 on each data interval on t = a.

    KernelPole if an interval holds a zero of it, else SingularRegion unless
    it stays >= EPS_SING, checked at each interval's point nearest w = 0.
    """
    if 1.0 - a * a >= EPS_SING:
        return  # 1 - a^2 + w^2 >= 1 - a^2 >= EPS_SING everywhere
    lo, hi = np.minimum(w_lo, w_hi), np.maximum(w_lo, w_hi)
    if abs(a) >= 1.0:
        pole = math.sqrt(a * a - 1.0)
        for w_star in (pole, -pole):  # nodes on t = a integrate over nothing
            if np.any((lo <= w_star) & (w_star <= hi) & (lo < hi)):
                raise KernelPole(
                    f"kernel denominator 1 - a^2 + w^2 vanishes at w = {w_star}")
    _check_margin(np.clip(0.0, lo, hi), a,
                  "data slice t = {t} has 1 - t^2 + w^2 = {m} < {eps} at w = {x}")


# The two kernel integrands of node (x, t) at abscissae w of any shape; the
# batch and the adaptive fallback both call them.
def _k1_integrand(d, x, t, w):
    a = d.a
    den = 1.0 - a * a + w * w
    num = t * (1.0 + a * a + w * w) + a * (x * x - 2.0 * w * x - t * t - 1.0)
    return num / ((1.0 + x * x - t * t) * den * den) * d.u0(w.ravel()).reshape(w.shape)


def _k2_integrand(d, x, t, w):
    a = d.a
    den = 1.0 - a * a + w * w
    num = (1.0 - x * x + t * t) * (1.0 + a * a - w * w) - 4.0 * a * t + 4.0 * w * x
    return num / ((1.0 + x * x - t * t) * den) * d.v0(w.ravel()).reshape(w.shape)


def _evolve_nodes(d, x, t, q):
    """Closed-form phi at the nodes (x[k], t[k]), batched over the nodes.

    Each kernel integral over [x + (t-a), x - (t-a)] first gets the opening
    step of adaptive_gauss for every node at once: the whole panel against
    its two halves, from one u0 and one v0 call.  Only the integrals that
    miss abs_tol there are finished by adaptive_gauss on the same integrand.
    """
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    _check_margin(x, t, "point (x={x}, t={t}) has 1 + x^2 - t^2 = {m} < {eps}")
    delta = t - d.a
    ends = d.u0(np.concatenate([x - delta, x + delta]))
    out = 0.5 * (ends[:x.size] + ends[x.size:])
    if not delta.any():  # all nodes on the data slice t = a
        return out
    w_lo, w_hi = x + delta, x - delta  # oriented exactly as in the closed form
    _check_data_intervals(d.a, w_lo, w_hi)
    w_mid = 0.5 * (w_lo + w_hi)
    starts = np.stack([w_lo, w_lo, w_mid], axis=1)  # whole panel, left, right
    stops = np.stack([w_hi, w_mid, w_hi], axis=1)
    half = 0.5 * (stops - starts)
    nodes, weights = gauss_nodes(q.order)
    w = (0.5 * (starts + stops))[..., None] + half[..., None] * nodes
    for coef, integrand in ((2.0, _k1_integrand), (0.5, _k2_integrand)):
        panels = half * (integrand(d, x[:, None, None], t[:, None, None], w)
                         * weights).sum(axis=-1)
        whole, split = panels[:, 0], panels[:, 1] + panels[:, 2]
        # "not <=", as in adaptive_gauss, so a NaN estimate falls back too
        for k in np.flatnonzero(~(np.abs(split - whole) <= q.abs_tol)):
            split[k] = adaptive_gauss(
                lambda s, k=k: integrand(d, x[k], t[k], s), w_lo[k], w_hi[k], q)
        out = out - coef * split
    return out


def evolve_point(d, x, t, q=QuadratureSpec()):
    """Closed-form solution value phi(x, t) for initial data at t = a.

    Depends only on data in [x - (t-a), x + (t-a)]; the quadrature never
    samples outside that interval.
    """
    return float(_evolve_nodes(d, [float(x)], [float(t)], q)[0])


def evolve_grid(d, g, q=QuadratureSpec()):
    """Field2D of closed-form values over the grid, one batch per time row."""
    g.check_singularity()
    xs = g.xs()
    values = np.column_stack([_evolve_nodes(d, xs, t, q) for t in g.ts()])
    return Field2D(grid=g, values=values)


def _potential(xs, t):
    # the oracle keeps its own (1 + x^2) - t^2 rounding, independent of ring.margin
    return 8.0 / (1.0 + xs ** 2 - t * t) ** 2


def fd_reference(d, g, cfl=0.9, refine=1):
    """Independent leapfrog reference solution, restricted back to grid g.

    The spatial domain is widened so the numerical domain of dependence of
    the requested region never touches the artificial boundaries; `refine`
    divides the spatial step for convergence studies.
    """
    if not 0.0 < cfl <= 0.95:  # written so that NaN fails it too
        raise CFLViolation(f"cfl must be in (0, 0.95], got {cfl}")
    if not refine >= 1:
        raise ValueError(f"refine must be >= 1, got {refine}")
    if abs(g.t_min - d.a) > 1e-12:
        raise DomainError(
            f"fd_reference must start at the data slice t = {d.a}, grid starts at {g.t_min}")
    g.check_singularity()
    dx = g.dx / refine
    span = g.t_max - d.a
    n_pad = int(math.ceil(span / (cfl * dx))) + 2
    nx_ext = (g.nx - 1) * refine + 1 + 2 * n_pad
    xs = g.x_min - n_pad * dx + dx * np.arange(nx_ext)
    # substep so that stored slices land exactly on the requested t nodes
    m_sub = max(1, int(math.ceil(g.dt / (cfl * dx))))
    dt = g.dt / m_sub
    # the leapfrog steps from t_min to t_max: the margin is least at one of them
    _check_margin(xs[:, None], [g.t_min, g.t_max],
                  "widened FD domain reaches 1 + x^2 - t^2 = {m} < {eps} at (x={x}, t={t})")

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
        raise GridTooSmall(f"residual stencil needs nx, nt >= 5, got {g.nx}x{g.nt}")
    xs, ts = g.xs(), g.ts()
    vals = f.values
    dxx = (vals[2:, 1:-1] - 2.0 * vals[1:-1, 1:-1] + vals[:-2, 1:-1]) / g.dx ** 2
    dtt = (vals[1:-1, 2:] - 2.0 * vals[1:-1, 1:-1] + vals[1:-1, :-2]) / g.dt ** 2
    res = -dtt + dxx + _potential(xs[1:-1, None], ts[None, 1:-1]) * vals[1:-1, 1:-1]
    inner = Grid2D(x_min=xs[1], x_max=xs[-2], nx=g.nx - 2,
                   t_min=ts[1], t_max=ts[-2], nt=g.nt - 2)
    return Field2D(grid=inner, values=res)


def initial_condition_check(d, q=QuadratureSpec(), xs=None, dt_step=1e-4):
    """(max |phi(., a) - u0|, max |d/dt phi(., a) - v0|) over sample positions.

    The velocity is taken by a one-sided 4th-order finite difference in t of
    the closed form, all 5 * len(xs) nodes in one batch.
    """
    if xs is None:
        xs = np.linspace(-1.0, 1.0, 21)
    xs = np.asarray(xs, dtype=float)
    xx, tt = np.broadcast_arrays(xs, d.a + np.arange(5)[:, None] * dt_step)
    samples = _evolve_nodes(d, xx.ravel(), tt.ravel(), q).reshape(xx.shape)
    weights = (-25.0, 48.0, -36.0, 16.0, -3.0)
    vel = sum(w * s for w, s in zip(weights, samples)) / (12.0 * dt_step)
    pos_err = float(np.max(np.abs(samples[0] - d.u0(xs)), initial=0.0))
    vel_err = float(np.max(np.abs(vel - d.v0(xs)), initial=0.0))
    return pos_err, vel_err
