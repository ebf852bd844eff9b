"""Command-line entry point: basis / build / verify / invert / evolve / fdref / compare.

main returns every exit code: 0 success, 2 usage (an argparse error, a
malformed --grid among them, a ValueError or an OSError), else the exit_code
of the errors.PertwaveError raised: 3 parse, 4 domain, 5 tolerance or
verification failure.  Each command runs under errors.float_guard.  A failure
prints one machine-readable "error: <kind>: <reason>" line on stderr, its
reason cut to REASON_CHARS in the middle (report, which the experiment scripts
share); only --help exits by itself.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import errors
from .basis import wave_basis
from .cauchy import Grid2D, InitialData, evolve_grid, fd_reference
from .invert import KERNELS, RayField, recover
from .quadrature import QuadratureSpec
from .serialize import (atomic_write_text, bundle_to_doc, doc_to_expr,
                        doc_to_poly, format_float, poly_to_doc, read_doc,
                        read_field_csv, read_points_csv, read_samples_csv,
                        write_doc, write_doc_lines, write_field_csv)
from .solutions import build_phi, residual

EXIT_OK = 0
EXIT_USAGE = 2

INVERT_BLOCK = 256  # points per recover call in `invert`: bounds its quadrature arrays
REASON_CHARS = 300  # the most of a reason an error line prints: its head ... its tail


def parse_grid(text):
    """The Grid2D of an "x0,x1,nx:t0,t1,nt" spec: argparse.ArgumentTypeError if
    malformed, DomainError if Grid2D refuses it."""
    try:
        x_part, t_part = text.split(":")
        x0, x1, nx = x_part.split(",")
        t0, t1, nt = t_part.split(",")
        bounds = float(x0), float(x1), int(nx), float(t0), float(t1), int(nt)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected x0,x1,nx:t0,t1,nt, got {text!r}") from None
    return Grid2D(*bounds)


def _quad_spec(args):
    return QuadratureSpec(order=args.order, abs_tol=args.abs_tol)


def _load_initial_data(path, a):
    if path.endswith(".json"):
        expr = doc_to_expr(read_doc(path))
        return InitialData.from_rho_expr(expr, a=a)
    w, u, v = read_samples_csv(path)
    return InitialData.from_samples(w, u, v, a=a)


def cmd_basis(args):
    wb = wave_basis(args.dim, args.degree)
    write_doc_lines(args.out, [poly_to_doc(p) for p in wb.elements])
    print(f"{len(wb.elements)} basis elements written to {args.out}")
    return EXIT_OK


def cmd_build(args):
    seed = doc_to_poly(read_doc(args.seed))
    bundle = build_phi(seed, args.dim)
    write_doc(args.out, bundle_to_doc(bundle))
    print(f"bundle with {len(bundle.coefficients)} coefficients written to {args.out}")
    return EXIT_OK


def _read_phi(args):
    """The phi document named by --phi; its dim must match --dim."""
    phi = doc_to_expr(read_doc(args.phi))
    if phi.dim != args.dim:
        raise errors.DomainError(
            f"phi document has dim {phi.dim}, requested dim {args.dim}")
    return phi


def cmd_verify(args):
    phi = _read_phi(args)
    res = residual(phi, args.dim)
    print(f"residual: {res}")
    if res.is_zero():
        print("PASS")
        return EXIT_OK
    print("FAIL")
    return errors.ToleranceNotMet.exit_code


def cmd_invert(args):
    phi = _read_phi(args)
    points = read_points_csv(args.points, args.dim)
    q = _quad_spec(args)
    field = RayField.from_rho_expr(phi)
    coord_names = ["t"] + [f"x{i}" for i in range(1, args.dim)]
    lines = [",".join(coord_names + [f"P{r}" for r in range(args.dim // 2 + 1)] + ["est_error"])]
    est_error = format_float(q.abs_tol)
    for start in range(0, len(points), INVERT_BLOCK):
        block = points[start:start + INVERT_BLOCK]
        rows = np.hstack([block, recover(field, block, q)])
        lines += [",".join([*map(format_float, row), est_error]) for row in rows]
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    print(f"{len(points)} points inverted to {args.out}")
    return EXIT_OK


def cmd_evolve(args):
    field = evolve_grid(_load_initial_data(args.data, args.a), args.grid, _quad_spec(args))
    write_field_csv(args.out, field)
    print(f"{args.grid.nx}x{args.grid.nt} field written to {args.out}")
    return EXIT_OK


def cmd_fdref(args):
    field = fd_reference(_load_initial_data(args.data, args.grid.t_min), args.grid,
                         refine=args.refine)
    write_field_csv(args.out, field)
    print(f"{args.grid.nx}x{args.grid.nt} reference field written to {args.out}")
    return EXIT_OK


def cmd_compare(args):
    if np.isnan(args.tol):
        raise ValueError("--tol must be a number, got nan")
    fa = read_field_csv(args.a)
    fb = read_field_csv(args.b)
    if fa.grid != fb.grid:
        raise errors.DomainError(f"field grids differ: {fa.grid} vs {fb.grid}")
    diff = fa.values - fb.values  # a field has at least 2 x 2 values
    value = float(np.max(np.abs(diff)) if args.norm == "linf" else np.sqrt(np.mean(diff ** 2)))
    print(format_float(value))
    return errors.ToleranceNotMet.exit_code if value > args.tol else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose errors raise a ValueError, which report prints as usage."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser():
    """The pertwave parser, built on first use and shared by every later main call."""
    parser = _Parser(
        prog="pertwave",
        description="Exact and numerical solutions of the perturbed massless "
                    "wave equation with singular potential.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_quad(p):
        p.add_argument("--order", type=int, default=64,
                       help="Gauss order N: 2N+1 Gauss-Kronrod nodes a panel (default 64)")
        p.add_argument("--abs-tol", type=float, default=1e-12,
                       help="absolute quadrature tolerance (default 1e-12)")

    p = sub.add_parser("basis", help="emit a wave-polynomial basis, one JSON doc per line")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("build", help="build an exact solution bundle from a seed document")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="print the PDE residual of a phi document")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--phi", required=True)

    p = sub.add_parser("invert", help="recover bundle coefficients pointwise from phi")
    p.add_argument("--dim", type=int, required=True, choices=sorted(KERNELS))
    p.add_argument("--phi", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--out", required=True)
    add_quad(p)

    p = sub.add_parser("evolve", help="evaluate the closed-form Cauchy solution on a grid")
    p.add_argument("--a", type=float, default=0.0, help="initial time slice")
    p.add_argument("--grid", required=True, type=parse_grid, help="x0,x1,nx:t0,t1,nt")
    p.add_argument("--data", required=True,
                   help="phi document (.json) or tabulated samples CSV (w,u0,v0)")
    p.add_argument("--out", required=True)
    add_quad(p)

    p = sub.add_parser("fdref", help="finite-difference reference solution on a grid")
    p.add_argument("--grid", required=True, type=parse_grid, help="x0,x1,nx:t0,t1,nt; data on t0")
    p.add_argument("--data", required=True)
    p.add_argument("--refine", type=int, default=1,
                   help="internal spatial refinement factor")
    p.add_argument("--out", required=True)

    p = sub.add_parser("compare", help="norm of the difference of two field CSVs")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--norm", choices=("linf", "l2"), default="linf")
    p.add_argument("--tol", type=float, default=float("inf"))

    return parser


def report(run, *args):
    """run(*args), whose result is an exit code; if it fails, the failure's exit code once
    one "error: <kind>: <reason>" line is on stderr, its reason cut to REASON_CHARS."""
    try:
        return run(*args)
    except errors.PertwaveError as exc:
        kind, reason, code = exc.kind, str(exc), exc.exit_code
    except (ValueError, OSError) as exc:
        kind, reason, code = "usage", str(exc), EXIT_USAGE
    if len(reason) > REASON_CHARS:  # its head and tail, the middle elided
        half = (REASON_CHARS - 5) // 2
        reason = f"{reason[:half]} ... {reason[-half:]}"
    print(f"error: {kind}: {reason}", file=sys.stderr)
    return code


def main(argv=None):
    def run():
        args = build_parser().parse_args(argv)
        return errors.float_guard(args.command)(globals()[f"cmd_{args.command}"])(args)
    return report(run)


if __name__ == "__main__":
    sys.exit(main())
