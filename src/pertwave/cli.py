"""Command-line entry point: basis / build / verify / invert / evolve / fdref / compare.

Exit codes: 0 success, 2 usage, 3 parse error, 4 domain or singularity
error, 5 tolerance or verification failure.  Every failure, argument errors
included, prints a single machine-readable "error: <kind>: <reason>" line on
stderr.
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
EXIT_PARSE = 3
EXIT_DOMAIN = 4
EXIT_TOLERANCE = 5

INVERT_BLOCK = 256  # points per recover call in `invert`: bounds its quadrature arrays


def parse_grid(text):
    try:
        x_part, t_part = text.split(":")
        x0, x1, nx = x_part.split(",")
        t0, t1, nt = t_part.split(",")
        return Grid2D(x_min=float(x0), x_max=float(x1), nx=int(nx),
                      t_min=float(t0), t_max=float(t1), nt=int(nt))
    except ValueError as exc:
        raise errors.FormatError(
            f"grid spec {text!r} is not x0,x1,nx:t0,t1,nt") from exc


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
    return EXIT_TOLERANCE


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
    data = _load_initial_data(args.data, args.a)
    grid = parse_grid(args.grid)
    field = evolve_grid(data, grid, _quad_spec(args))
    write_field_csv(args.out, field)
    print(f"{grid.nx}x{grid.nt} field written to {args.out}")
    return EXIT_OK


def cmd_fdref(args):
    data = _load_initial_data(args.data, args.a)
    grid = parse_grid(args.grid)
    field = fd_reference(data, grid, cfl=args.cfl, refine=args.refine)
    write_field_csv(args.out, field)
    print(f"{grid.nx}x{grid.nt} reference field written to {args.out}")
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
    return EXIT_TOLERANCE if value > args.tol else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose errors print one "error: usage:" line, exit 2."""

    def error(self, message):
        print(f"error: usage: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


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
                       help="Gauss-Legendre node count (default 64)")
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
    p.add_argument("--grid", required=True, help="x0,x1,nx:t0,t1,nt")
    p.add_argument("--data", required=True,
                   help="phi document (.json) or tabulated samples CSV (w,u0,v0)")
    p.add_argument("--out", required=True)
    add_quad(p)

    p = sub.add_parser("fdref", help="finite-difference reference solution on a grid")
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--grid", required=True, help="x0,x1,nx:t0,t1,nt")
    p.add_argument("--data", required=True)
    p.add_argument("--cfl", type=float, default=0.9)
    p.add_argument("--refine", type=int, default=1,
                   help="internal spatial refinement factor")
    p.add_argument("--out", required=True)

    p = sub.add_parser("compare", help="norm of the difference of two field CSVs")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--norm", choices=("linf", "l2"), default="linf")
    p.add_argument("--tol", type=float, default=float("inf"))

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except errors.FormatError as exc:
        print(f"error: parse: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except errors.ToleranceNotMet as exc:
        print(f"error: tolerance: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except errors.PertwaveError as exc:
        print(f"error: domain: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, OSError) as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
