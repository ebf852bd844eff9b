#!/usr/bin/env python3
"""Convergence study: closed-form kernel evolution vs the leapfrog oracle.

Evolves smooth bump data with both solvers over a refinement ladder and
prints the max-difference table with per-halving ratios; a second table
shows the interior PDE residual of the kernel solution shrinking at second
order.  Results stream to stdout and optionally to a CSV.
"""

import sys

import numpy as np

from pertwave import (Grid2D, InitialData, Polynomial, QuadratureSpec,
                      build_phi, evolve_grid, fd_reference, pde_residual_fd)
from pertwave.cli import _Parser, parse_grid, report


def bump_data(width, center):
    def u0(w):
        return np.exp(-width * (w - center) ** 2)

    def v0(w):
        return np.zeros_like(np.asarray(w, dtype=float))

    return InitialData(a=0.0, u0=u0, v0=v0)


def oracle_table(grid, q, refinements, width, center, out):
    d = bump_data(width, center)
    kernel = evolve_grid(d, grid, q)
    print(f"# bump exp(-{width}(w-{center})^2), grid "
          f"[{grid.x_min},{grid.x_max}]x[{grid.t_min},{grid.t_max}] "
          f"{grid.nx}x{grid.nt}")
    print(f"{'refine':>8} {'max|kernel-fd|':>16} {'ratio':>8}")
    prev = None
    rows = []
    for refine in refinements:
        fd = fd_reference(d, grid, refine=refine)
        err = float(np.max(np.abs(kernel.values - fd.values)))
        ratio = prev / err if prev is not None else float("nan")
        print(f"{refine:>8} {err:>16.6e} {ratio:>8.3f}")
        rows.append((refine, err, ratio))
        prev = err
    if out:
        with open(out, "w") as f:
            f.write("refine,max_diff,ratio\n")
            for refine, err, ratio in rows:
                f.write(f"{refine},{err:.17g},{ratio:.17g}\n")
        print(f"# written to {out}")


def residual_table(q):
    phi = build_phi(Polynomial(2, {(0, 1): 1}), 2).phi
    d = InitialData.from_rho_expr(phi)
    print("# interior residual of the kernel solution for x/(1+x^2-t^2)")
    print(f"{'nx x nt':>10} {'max residual':>16} {'ratio':>8}")
    prev = None
    for nx, nt in [(41, 21), (81, 41), (161, 81)]:
        g = Grid2D(-1.0, 1.0, nx, 0.0, 0.5, nt)
        res = pde_residual_fd(evolve_grid(d, g, q))
        err = float(np.max(np.abs(res.values)))
        ratio = prev / err if prev is not None else float("nan")
        print(f"{nx:>4} x{nt:>4} {err:>16.6e} {ratio:>8.3f}")
        prev = err


def study(argv):
    """Print both tables for the options in argv; 0 once they are printed."""
    parser = _Parser(description=__doc__)  # an argparse error too is report's one line
    parser.add_argument("--width", type=float, default=8.0)
    parser.add_argument("--center", type=float, default=0.0)
    parser.add_argument("--grid", default="-1,1,41:0,0.5,21", type=parse_grid,
                        help="x0,x1,nx:t0,t1,nt")
    parser.add_argument("--refinements", default="1,2,4,8")
    parser.add_argument("--order", type=int, default=64)
    parser.add_argument("--out", default=None, help="optional CSV output")
    args = parser.parse_args(argv)  # a grid that parses but Grid2D refuses raises here
    q = QuadratureSpec(order=args.order)
    refinements = [int(r) for r in args.refinements.split(",")]
    oracle_table(args.grid, q, refinements, args.width, args.center, args.out)
    print()
    residual_table(q)
    return 0


def main(argv=None):
    return report(study, argv)


if __name__ == "__main__":
    sys.exit(main())
