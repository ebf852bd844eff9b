"""Seeded workloads that drive pertwave's public API and CLI.

A workload turns a seed into a deterministic stream of rounds; a round is a
short list of tasks with a fixed composition, so that any whole number of
rounds does the same mix of work whatever the seed.  The runner times
`Task.run` (program calls only), then calls `Task.check` untimed.

The module looks pertwave functions up on their modules at call time, so
the spans that tracing.install() puts around them see every call.
"""

from __future__ import annotations

import heapq
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

import numpy as np

from pertwave import (basis, cauchy, cli, hyp2f1, invert, quadrature, serialize,
                      solutions)

import checks

Q = quadrature.QuadratureSpec(order=64, abs_tol=1e-12)
PREP = 2 ** 32 - 1  # rng key of set-up draws; round r uses key r


@dataclass
class Task:
    """One checked unit of work.

    `work` is what items_per_s counts (seeds, grid nodes, points or CLI
    invocations); `busy` says whether the task's time is part of the rate's
    denominator.  Once-per-run identity checks have neither.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[float]]
    work: int = 1
    busy: bool = True


class Workload:
    name = ""
    unit = ""          # what one unit of `work` is
    prefix = ""        # name prefix of the per-workload figures in the details
    trace_rounds = 1   # fixed rounds of a traced run, so counts repeat exactly
    fixed_rounds = None  # rounds per run when the run is not time-bounded
    cycle = 1          # a timed pass ends on a multiple of this many rounds

    def __init__(self, seed):
        self.seed = seed % 2 ** 64
        self.tracer = None

    def rng(self, *key):
        return np.random.default_rng([self.seed, *key])

    def start_pass(self, tracer):
        """Drop per-pass caches so every pass does the same program work."""
        self.tracer = tracer

    def count(self, name, fn):
        return fn if self.tracer is None else self.tracer.counting(name, fn)

    def prelude(self):
        return []

    def round(self, r):
        raise NotImplementedError

    def warm_up(self):
        """Run one small piece of program work before timing starts."""

    def describe(self, rounds):
        """Plain-data view of the generated inputs, for determinism tests."""
        raise NotImplementedError


def admissible_point(rng, dim):
    """Uniform in [-0.6, 0.6]^dim with 1 + min(x.x, 0) >= 0.3, as in criterion 6."""
    while True:
        p = rng.uniform(-0.6, 0.6, dim)
        norm_sq = -p[0] ** 2 + np.sum(p[1:] ** 2)
        if 1.0 + min(norm_sq, 0.0) >= 0.3:
            return p


def _structure(poly):
    """(largest t power, number of terms): basis elements alike in residual cost."""
    return (max(e[0] for e in poly.terms), len(poly.terms))


# -- exact-sweep ----------------------------------------------------------------


class ExactSweep(Workload):
    """A stratified draw from the criterion-1 population.

    The population is every wave_basis(n, k) element for n in {2,4,6,8} and
    k <= 6, split further into classes of equal structure (largest t power,
    number of terms), whose residual costs differ by up to 100x.  Classes are
    interleaved in proportion to their sizes, so every prefix of the stream
    holds each class's population share to within one seed, whatever the
    seed; the seed picks the elements within each class.  A run therefore
    draws different seeds from run to run but always the same mix of costs.
    """

    name = "exact-sweep"
    unit = "seed"
    prefix = "exact"
    trace_rounds = 150
    DIMS = (2, 4, 6, 8)
    MAX_DEGREE = 6

    def __init__(self, seed):
        super().__init__(seed)
        rng = self.rng(PREP)
        self._classes = []
        for n in self.DIMS:
            for k in range(self.MAX_DEGREE + 1):
                groups = {}
                for i, p in enumerate(basis.wave_basis(n, k).elements):
                    groups.setdefault(_structure(p), []).append(i)
                for key in sorted(groups):
                    self._classes.append((n, k, [int(i) for i in rng.permutation(groups[key])]))
        total = sum(len(members) for _, _, members in self._classes)
        self._heap = [(0.5 * total / len(members), c, 0)
                      for c, (_, _, members) in enumerate(self._classes)]
        heapq.heapify(self._heap)
        self._total = total
        self._stream = []
        self._bases = {}

    def _draw(self, r):
        while len(self._stream) <= r:
            _, c, j = heapq.heappop(self._heap)
            n, k, members = self._classes[c]
            self._stream.append((n, k, members[j % len(members)]))
            heapq.heappush(self._heap, ((j + 1.5) * self._total / len(members), c, j + 1))
        return self._stream[r]

    def start_pass(self, tracer):
        super().start_pass(tracer)
        self._bases = {}

    def warm_up(self):
        seed = basis.wave_basis(2, 1).elements[0]
        solutions.residual(solutions.build_phi(seed, 2, check=False).phi, 2)

    def prelude(self):
        tasks = []
        for n in (4, 6, 8):
            tasks.append(Task("identity", lambda n=n: solutions.psi0_residual(n),
                              lambda res, n=n: checks.structural_zero(res, f"psi0 n={n}"),
                              work=0, busy=False))
        for n in (2, 4, 6):
            for k in (2, 3, 4, 5):
                tasks.append(Task("identity", lambda n=n, k=k: hyp2f1.fk_ode_residual(n, k),
                                  lambda res, n=n, k=k: _zero_ode(res, n, k),
                                  work=0, busy=False))
        for n in (2, 4, 6):
            for k in range(2, 7):
                tasks.append(Task("identity", lambda n=n, k=k: solutions.beta_coefficients(n, k),
                                  lambda cs, n=n, k=k: _beta_recursion(cs, n, k),
                                  work=0, busy=False))
        return tasks

    def round(self, r):
        n, k, pos = self._draw(r)
        tasks = []
        if (n, k) not in self._bases:
            self._bases[(n, k)] = None  # one basis task per stratum and pass

            def keep(wb, n=n, k=k):
                checks.basis_elements([p.terms for p in wb.elements], n, k)
                self._bases[(n, k)] = wb.elements

            tasks.append(Task("basis", lambda n=n, k=k: basis.wave_basis(n, k), keep, work=0))

        def run(n=n, k=k, pos=pos):
            seed = self._bases[(n, k)][pos]
            bundle = solutions.build_phi(seed, n, check=False)
            return bundle, solutions.residual(bundle.phi, n)

        def check(result, n=n, k=k, pos=pos):
            bundle, res = result
            if len(bundle.coefficients) != n // 2 + 1:
                raise checks.CheckFailed(f"bundle has {len(bundle.coefficients)} coefficients")
            checks.structural_zero(res, f"seed ({n},{k})#{pos}")

        tasks.append(Task("seed", run, check))
        return tasks

    def describe(self, rounds):
        return [self._draw(r) for r in range(rounds)]


def _zero_ode(res, n, k):
    if not res.is_zero():
        raise checks.CheckFailed(f"radial ODE residual nonzero for n={n}, k={k}")


def _beta_recursion(cs, n, k):
    """Criterion 5: c_r = 2(r+1)(2k+n-2r-4) / ((n-2r)(n+2r+2)) c_{r+1}."""
    half = n // 2
    by_r = {half - i: c for i, c in enumerate(cs)}
    for r in range(half):
        expect = Fraction(2 * (r + 1) * (2 * k + n - 2 * r - 4),
                          (n - 2 * r) * (n + 2 * r + 2)) * by_r[r + 1]
        if by_r[r] != expect:
            raise checks.CheckFailed(f"Beta coefficient c_{r} wrong for n={n}, k={k}")


# -- cauchy-grid ----------------------------------------------------------------


class CauchyGrid(Workload):
    """n = 2 evolve_grid jobs on grids of 21x11 and 41x21 nodes.

    Each round evolves ring-backed data (a seeded rational combination of
    the build_phi bundles of one seed degree 1-3, on a seeded sub-rectangle
    of [-1,1]x[0,0.5]) and one bump of the criterion-8 family (seeded
    amplitude, on the full rectangle) at each size.  Degree and bump go
    round in a cycle of three rounds, so whole cycles hold the same mix.
    Ring-backed grids are checked against phi to 1e-8; each bump grid
    against the leapfrog oracle at refine 1, 2, 4, 8, and the bump's two
    kernel fields by their finite-difference PDE residual.  The bump family
    and rectangle are those of criterion 8, where the convergence ratios
    are known to sit inside [3.5, 4.5].
    """

    name = "cauchy-grid"
    unit = "node"
    prefix = "evolve"
    trace_rounds = 3
    cycle = 3
    # Each node is an independent evolve_point, so per-node cost does not
    # depend on the grid size; two sizes keep a round near half a second,
    # fine enough to stop a pass on time and to correct for the host speed.
    LADDER = ((21, 11), (41, 21))
    BUMPS = ((8.0, 0.0), (10.0, 0.2), (6.0, -0.25))
    PROBES = ((0.1, 0.3), (-0.4, 0.25), (0.0, 0.45))

    def __init__(self, seed):
        super().__init__(seed)
        self._exprs = {k: [solutions.build_phi(e, 2).phi for e in basis.wave_basis(2, k).elements]
                       for k in (1, 2, 3)}

    def _ring_data(self, expr):
        d = cauchy.InitialData.from_rho_expr(expr, a=0.0)
        if self.tracer is None:
            return d
        return cauchy.InitialData(a=d.a, u0=self.count("cauchy.data_points", d.u0),
                                  v0=self.count("cauchy.data_points", d.v0), expr=d.expr)

    def _bump_data(self, c, w0, amp, counted=True):
        def u0(w):
            return amp * np.exp(-c * (np.asarray(w) - w0) ** 2)

        def v0(w):
            return np.zeros_like(np.asarray(w, dtype=float))

        if counted:
            u0, v0 = self.count("cauchy.data_points", u0), self.count("cauchy.data_points", v0)
        return cauchy.InitialData(a=0.0, u0=u0, v0=v0)

    def warm_up(self):
        d = cauchy.InitialData.from_rho_expr(self._exprs[1][0], a=0.0)
        cauchy.evolve_grid(d, cauchy.Grid2D(-0.5, 0.5, 5, 0.0, 0.2, 3), Q)

    def _params(self, r):
        rng = self.rng(r)
        k = 1 + r % 3
        return {
            "k": k,
            "weights": [(int(rng.integers(1, 10)), int(rng.integers(1, 5)))
                        for _ in self._exprs[k]],
            "x0": float(rng.uniform(-1.0, -0.6)),
            "x1": float(rng.uniform(0.6, 1.0)),
            "t1": float(rng.uniform(0.4, 0.5)),
            "bump": r % len(self.BUMPS),
            "amp": float(rng.uniform(0.5, 2.0)),
        }

    def prelude(self):
        """Criterion 9: tampering with data outside the cone changes nothing, bitwise."""
        expr = self._exprs[1][int(self.rng(PREP).integers(len(self._exprs[1])))]
        tasks = []
        for x, t in self.PROBES:
            def run(x=x, t=t):
                d = self._ring_data(expr)
                lo, hi = x - t, x + t
                tampered = cauchy.InitialData(a=0.0, u0=_tamper(d.u0, lo, hi),
                                              v0=_tamper(d.v0, lo, hi))
                return (cauchy.evolve_point(tampered, x, t, Q),
                        cauchy.evolve_point(d, x, t, Q))

            tasks.append(Task("causality", run, _bitwise_equal, work=0, busy=False))
        return tasks

    def round(self, r):
        p = self._params(r)
        expr = sum((phi.scale(Fraction(*w)) for phi, w in zip(self._exprs[p["k"]], p["weights"])),
                   start=self._exprs[p["k"]][0].scale(0))
        layers = checks.layers_of_expr(expr)
        c, w0 = self.BUMPS[p["bump"]]
        bump_fields = {}
        tasks = []
        for nx, nt in self.LADDER:
            ring_grid = cauchy.Grid2D(p["x0"], p["x1"], nx, 0.0, p["t1"], nt)

            def run_ring(g=ring_grid):
                return cauchy.evolve_grid(self._ring_data(expr), g, Q)

            def check_ring(field, g=ring_grid):
                return checks.absolute_error(field.values, _exact_on_grid(layers, g), 1e-8)

            tasks.append(Task("grid", run_ring, check_ring, work=nx * nt))

            bump_grid = cauchy.Grid2D(-1.0, 1.0, nx, 0.0, 0.5, nt)

            def run_bump(g=bump_grid):
                return cauchy.evolve_grid(self._bump_data(c, w0, p["amp"]), g, Q)

            def check_bump(field, g=bump_grid, size=(nx, nt)):
                d = self._bump_data(c, w0, p["amp"], counted=False)
                errs = [float(np.max(np.abs(field.values
                                            - cauchy.fd_reference(d, g, refine=m).values)))
                        for m in (1, 2, 4, 8)]
                checks.convergence_ratios(errs)
                bump_fields[size] = field
                if size == self.LADDER[-1]:
                    res = [float(np.max(np.abs(cauchy.pde_residual_fd(bump_fields[s]).values)))
                           for s in self.LADDER[-2:]]
                    checks.convergence_ratios(res)

            tasks.append(Task("grid", run_bump, check_bump, work=nx * nt))
        return tasks

    def describe(self, rounds):
        return [self._params(r) for r in range(rounds)]


def _tamper(base, lo, hi):
    def f(w):
        w = np.atleast_1d(np.asarray(w, dtype=float))
        out = np.array(base(w), dtype=float)
        out[(w < lo - 1e-9) | (w > hi + 1e-9)] += 1e6
        return out

    return f


def _bitwise_equal(pair):
    tampered, clean = pair
    if tampered != clean:
        raise checks.CheckFailed(f"data outside the cone changed the value: {tampered} != {clean}")


def _exact_on_grid(layers, g):
    xs, ts = g.xs(), g.ts()
    tt, xx = np.meshgrid(ts, xs)  # values[i, j] = phi(x_i, t_j)
    pts = np.column_stack([tt.ravel(), xx.ravel()])
    return checks.eval_layers(layers, pts).reshape(len(xs), len(ts))


# -- invert-points and invert-blackbox --------------------------------------------


class InvertPoints(Workload):
    """Pointwise coefficient recovery at admissible points.

    Each round recovers, for each seed degree 1-3, one point of an n = 4
    exact-expression field, one of an n = 2 exact field and one of an n = 2
    black-box field (no expr).  The fields go through every basis element
    of their (n, k) in a seeded order, so any run of more than a few dozen
    rounds holds the same mix of field sizes.  Checked to relative error
    1e-8 against the bundle's own coefficients, evaluated independently.
    """

    name = "invert-points"
    unit = "point"
    prefix = "invert"
    trace_rounds = 150
    DEGREES = (1, 2, 3)
    TOL = 1e-8
    KINDS = ((4, True), (2, True), (2, False))  # (dim, field carries expr)

    def __init__(self, seed):
        super().__init__(seed)
        rng = self.rng(PREP)
        self._bundles = {}
        for n in sorted({n for n, _ in self.KINDS}):
            for k in self.DEGREES:
                elements = basis.wave_basis(n, k).elements
                self._bundles[(n, k)] = [_bundle_record(solutions.build_phi(elements[i], n))
                                         for i in rng.permutation(len(elements))]

    def _field(self, phi, exact):
        evaluate = self.count("invert.field_points", phi.eval_points)
        return invert.RayField(dim=phi.dim, evaluate=evaluate, expr=phi if exact else None)

    def warm_up(self):
        phi, _ = self._bundles[(2, 1)][0]
        invert.recover_n2(invert.RayField.from_rho_expr(phi), np.array([0.1, 0.2]), Q)

    def _params(self, r):
        rng = self.rng(r)
        out = []
        for k in self.DEGREES:
            for n, exact in self.KINDS:
                choices = self._bundles[(n, k)]
                out.append((n, k, exact, r % len(choices), admissible_point(rng, n)))
        return out

    def round(self, r):
        tasks = []
        for n, k, exact, which, x in self._params(r):
            phi, coeffs = self._bundles[(n, k)][which]
            recover = invert.recover_n2 if n == 2 else invert.recover_n4

            def run(phi=phi, exact=exact, x=x, recover=recover):
                return recover(self._field(phi, exact), x, Q)

            def check(values, coeffs=coeffs, x=x):
                expected = [checks.eval_terms(c, x)[0] for c in coeffs]
                return checks.relative_error(values, expected, self.TOL)

            tasks.append(Task("point", run, check))
        return tasks

    def describe(self, rounds):
        return [[(n, k, exact, which, x.tolist()) for n, k, exact, which, x in self._params(r)]
                for r in range(rounds)]


def _bundle_record(bundle):
    """(phi, [P_0 terms, P_1 terms, ...]) of a SolutionBundle."""
    return bundle.phi, [dict(bundle.coefficient(r).terms) for r in range(bundle.dim // 2 + 1)]


class InvertBlackbox(InvertPoints):
    """Probe of a known defect: n = 4 fields without an expression.

    This is the only path through the finite-difference branch of recover_n4.
    Some admissible points exhaust the quadrature budget (ToleranceNotMet,
    about 15 s each), so the probe runs a fixed number of points instead of
    a timed loop, and it is not one of the gated workloads.
    """

    name = "invert-blackbox"
    trace_rounds = 1
    fixed_rounds = 1
    POINTS = 6
    TOL = 1e-6  # the path's own tolerance clamp
    KINDS = ((4, False),)

    def warm_up(self):
        pass  # no n = 2 bundles here, and the probe's timings are not gated

    def _params(self, r):
        rng = self.rng(r)
        out = []
        for i in range(self.POINTS):
            k = self.DEGREES[i % len(self.DEGREES)]
            choices = self._bundles[(4, k)]
            out.append((4, k, False, int(rng.integers(len(choices))), admissible_point(rng, 4)))
        return out


# -- cli-session and cli-malformed ------------------------------------------------


def invoke(argv):
    """pertwave.cli.main(argv) in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits on usage errors
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


class _CliWorkload(Workload):
    unit = "cmd"
    prefix = "cli"

    def __init__(self, seed, workdir):
        super().__init__(seed)
        self.dir = workdir

    def path(self, name):
        return os.path.join(self.dir, name)

    def write(self, name, text):
        with open(self.path(name), "w") as handle:
            handle.write(text)
        return self.path(name)

    def warm_up(self):
        invoke(["basis", "--dim", "2", "--degree", "1", "--out", self.path("warm.jsonl")])


class CliSession(_CliWorkload):
    """Scripted well-formed CLI sequences over seeded degrees, points and grids.

    A round runs basis -> build -> verify -> invert for n = 4, then
    basis -> build -> verify -> invert -> evolve -> fdref -> compare for
    n = 2.  verify, invert and evolve read the bundle's phi member written
    as its own document.  Each output is checked independently.
    """

    name = "cli-session"
    trace_rounds = 12
    cycle = 3
    POINTS = 2
    GRID = (21, 11)
    FD_TOL = 1e-2       # leapfrog at refine 2 on 21x11 vs phi, relative; measured <= 2.3e-3
    COMPARE_TOL = 1e-2

    def _params(self, r):
        rng = self.rng(r)
        k = 1 + r % 3
        out = {"k": k}
        for n in (4, 2):
            out[n] = {"element": int(rng.integers(checks.basis_size(n, k))),
                      "points": [admissible_point(rng, n) for _ in range(self.POINTS)]}
        out["grid"] = (float(rng.uniform(-1.0, -0.6)), float(rng.uniform(0.6, 1.0)),
                       float(rng.uniform(0.3, 0.5)))
        return out

    def round(self, r):
        p = self._params(r)
        k = p["k"]
        state = {}
        tasks = []
        for n in (4, 2):
            tasks += self._exact_steps(n, k, p[n], state)
        tasks += self._field_steps(p["grid"], state)
        return tasks

    def _exact_steps(self, n, k, p, state):
        basis_out, seed_doc = self.path(f"basis{n}.jsonl"), self.path(f"seed{n}.json")
        bundle_out, phi_doc = self.path(f"bundle{n}.json"), self.path(f"phi{n}.json")
        inv_out = self.path(f"inv{n}.csv")
        points_csv = self.write(f"points{n}.csv", _points_csv(p["points"], n))

        def check_basis(result):
            _expect_ok(result)
            with open(basis_out) as handle:
                lines = [line for line in handle if line.strip()]
            docs = [json.loads(line) for line in lines]
            checks.basis_elements([checks.layers_of_doc(d).get(0, {}) for d in docs], n, k)
            self.write(f"seed{n}.json", lines[p["element"]])

        def check_build(result):
            _expect_ok(result)
            with open(bundle_out) as handle:
                doc = json.load(handle)
            coeffs = [checks.layers_of_doc(c).get(0, {}) for c in doc["coefficients"]]
            if len(coeffs) != n // 2 + 1:
                raise checks.CheckFailed(f"bundle has {len(coeffs)} coefficients")
            coeffs.reverse()  # stored P_{n/2} first; index by rho power
            phi_layers = checks.layers_of_doc(doc["phi"])
            pts = np.array(p["points"])
            summed = checks.eval_layers({r: c for r, c in enumerate(coeffs)}, pts)
            checks.relative_error(checks.eval_layers(phi_layers, pts), summed, 1e-9)
            self.write(f"phi{n}.json", json.dumps(doc["phi"]))
            state[n] = (coeffs, phi_layers)

        def check_verify(result):
            code, out, err = result
            checks.exit_status(code, {0}, err)
            if out.strip().splitlines()[-1:] != ["PASS"]:
                raise checks.CheckFailed("verify did not print PASS")

        def check_invert(result):
            _expect_ok(result)
            rows = np.atleast_2d(np.genfromtxt(inv_out, delimiter=",", skip_header=1))
            coeffs = state[n][0]
            got = rows[:, n:n + len(coeffs)]
            expected = np.array([[checks.eval_terms(c, pt)[0] for c in coeffs]
                                 for pt in rows[:, :n]])
            checks.relative_error(rows[:, :n], np.array(p["points"]), 1e-15)
            return checks.relative_error(got, expected, 1e-8)

        return [
            Task("cmd", lambda: invoke(["basis", "--dim", str(n), "--degree", str(k),
                                        "--out", basis_out]), check_basis),
            Task("cmd", lambda: invoke(["build", "--dim", str(n), "--seed", seed_doc,
                                        "--out", bundle_out]), check_build),
            Task("cmd", lambda: invoke(["verify", "--dim", str(n), "--phi", phi_doc]),
                 check_verify),
            Task("cmd", lambda: invoke(["invert", "--dim", str(n), "--phi", phi_doc,
                                        "--points", points_csv, "--out", inv_out]),
                 check_invert),
        ]

    def _field_steps(self, extent, state):
        x0, x1, t1 = extent
        nx, nt = self.GRID
        grid = f"--grid={x0!r},{x1!r},{nx}:0.0,{t1!r},{nt}"
        phi_doc = self.path("phi2.json")
        ev_out, fd_out = self.path("evolve.csv"), self.path("fdref.csv")

        def field_vs_exact(path, tol):
            rows = np.genfromtxt(path, delimiter=",", skip_header=1)
            if rows.shape != (nx * nt, 3):
                raise checks.CheckFailed(f"field CSV has shape {rows.shape}")
            exact = checks.eval_layers(state[2][1], rows[:, [1, 0]])
            return checks.absolute_error(rows[:, 2], exact, tol * max(1.0, np.max(np.abs(exact))))

        def check_evolve(result):
            _expect_ok(result)
            return field_vs_exact(ev_out, 1e-8)

        def check_fdref(result):
            _expect_ok(result)
            field_vs_exact(fd_out, self.FD_TOL)

        def check_compare(result):
            code, out, err = result
            a = np.genfromtxt(ev_out, delimiter=",", skip_header=1)[:, 2]
            b = np.genfromtxt(fd_out, delimiter=",", skip_header=1)[:, 2]
            value = float(np.max(np.abs(a - b)))
            checks.exit_status(code, {0 if value <= self.COMPARE_TOL else 5}, err)
            checks.relative_error([float(out.strip())], [value], 1e-12)

        return [
            Task("cmd", lambda: invoke(["evolve", grid, "--data", phi_doc, "--out", ev_out]),
                 check_evolve),
            Task("cmd", lambda: invoke(["fdref", grid, "--data", phi_doc, "--refine", "2",
                                        "--out", fd_out]), check_fdref),
            Task("cmd", lambda: invoke(["compare", "--a", ev_out, "--b", fd_out, "--norm",
                                        "linf", "--tol", repr(self.COMPARE_TOL)]),
                 check_compare),
        ]

    def describe(self, rounds):
        out = []
        for r in range(rounds):
            p = self._params(r)
            out.append([p["k"], p["grid"]]
                       + [(p[n]["element"], [x.tolist() for x in p[n]["points"]]) for n in (4, 2)])
        return out


class CliMalformed(_CliWorkload):
    """Probe of known defects: malformed invocations and their exit codes.

    Expected codes follow the README table: an out-of-range argument value
    is a usage error (2); a missing input file is a usage or parse error
    (2 or 3, the README does not say which); a --dim that does not match the
    document is a domain error (4), as `invert` already reports it.  Every
    failure must print exactly one `error:` line and no traceback.  Not one
    of the gated workloads.
    """

    name = "cli-malformed"
    trace_rounds = 5

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        phi = solutions.build_phi(basis.wave_basis(2, 1).elements[0], 2).phi
        self._phi2 = self.write("phi2.json", serialize.dumps(serialize.expr_to_doc(phi)))

    def _params(self, r):
        rng = self.rng(r)
        return {"dim": int(rng.choice([2, 4, 6])), "degree": -int(rng.integers(1, 4))}

    def round(self, r):
        p = self._params(r)
        missing = self.path(f"missing-{r}.json")
        cases = [
            (["basis", "--dim", str(p["dim"]), "--degree", str(p["degree"]),
              "--out", self.path("bad.jsonl")], {2}),
            (["verify", "--dim", "2", "--phi", missing], {2, 3}),
            (["evolve", "--grid=-0.5,0.5,5:0,0.2,3", "--data", self._phi2, "--order", "1",
              "--out", self.path("bad.csv")], {2}),
            (["verify", "--dim", "4", "--phi", self._phi2], {4}),
        ]
        return [Task("cmd", lambda argv=argv: invoke(argv),
                     lambda result, expected=expected: checks.exit_status(
                         result[0], expected, result[2]))
                for argv, expected in cases]

    def describe(self, rounds):
        return [self._params(r) for r in range(rounds)]


def _expect_ok(result):
    code, _, err = result
    checks.exit_status(code, {0}, err)


def _points_csv(points, dim):
    header = ",".join(["t"] + [f"x{i}" for i in range(1, dim)])
    rows = [",".join(repr(float(v)) for v in pt) for pt in points]
    return "\n".join([header] + rows) + "\n"


GATED = (ExactSweep, CauchyGrid, InvertPoints, CliSession)
PROBES = (InvertBlackbox, CliMalformed)
WORKLOADS = {cls.name: cls for cls in GATED + PROBES}


def make(name, seed, workdir):
    cls = WORKLOADS[name]
    if issubclass(cls, _CliWorkload):
        return cls(seed, workdir)
    return cls(seed)
