#!/usr/bin/env python3
"""Gallery of exact solutions: basis sizes, sample bundles, and inversion demo.

For each even dimension, prints the wave-polynomial basis dimensions up to a
degree cap, spells out one full coefficient chain P_{n/2} ... P_0, confirms
the residual is structurally zero, and (for each n in invert.KERNELS) recovers
the coefficients back from pointwise samples of phi.  Exits 1 when a recovered
coefficient misses the exact one by more than 1e-8 max(1, |P|); any other
failure prints one "error:" line and exits as pertwave does (2 usage, 4 domain).
"""

import sys

import numpy as np

from pertwave import QuadratureSpec, RayField, build_phi, recover, residual, wave_basis
from pertwave.cli import _Parser, report
from pertwave.invert import KERNELS


def basis_table(dims, max_degree):
    print(f"# wave-polynomial basis sizes, degree 0..{max_degree}")
    header = "  ".join(f"k={k:<4}" for k in range(max_degree + 1))
    print(f"{'n':>3}  {header}")
    for n in dims:
        sizes = [len(wave_basis(n, k).elements) for k in range(max_degree + 1)]
        print(f"{n:>3}  " + "  ".join(f"{s:<6}" for s in sizes))


def show_bundle(n, degree):
    seed = max(wave_basis(n, degree).elements, key=lambda p: len(p.terms))
    bundle = build_phi(seed, n)
    print(f"\n# n = {n}, seed of degree {degree}")
    for r in range(n // 2, -1, -1):
        print(f"  P_{r} = {bundle.coefficient(r)}")
    zero = residual(bundle.phi, n).is_zero()
    print(f"  residual is zero: {zero}")
    return bundle


TOL = 1e-8


def inversion_demo(bundle, q):
    """Print the recovered and exact coefficients at one point; True iff all agree to TOL."""
    n = bundle.dim
    field = RayField.from_rho_expr(bundle.phi)
    rng = np.random.default_rng(1)
    x = rng.uniform(-0.4, 0.4, n)
    values = recover(field, x[None, :], q)[0]
    print(f"  inversion at {np.array2string(x, precision=3)}:")
    ok = True
    for r, v in enumerate(values):
        expect = bundle.coefficient(r).eval_points(x[None, :])[0]
        hit = abs(v - expect) <= TOL * max(1.0, abs(expect))
        ok = ok and hit
        print(f"    P_{r}: recovered {v:+.12f}, exact {expect:+.12f}"
              f"{'' if hit else '  MISSED'}")
    return ok


def gallery(argv):
    """Print the gallery for the options in argv; 0, or 1 if an inversion missed."""
    parser = _Parser(description=__doc__)
    parser.add_argument("--dims", default="2,4,6,8")
    parser.add_argument("--max-degree", type=int, default=6)
    parser.add_argument("--show-degree", type=int, default=3,
                        help="seed degree for the spelled-out bundles")
    args = parser.parse_args(argv)

    dims = [int(d) for d in args.dims.split(",")]
    basis_table(dims, args.max_degree)
    q = QuadratureSpec()
    ok = True
    for n in dims:
        bundle = show_bundle(n, args.show_degree)
        if n in KERNELS:
            ok = inversion_demo(bundle, q) and ok
    if not ok:
        print(f"inversion missed an exact coefficient by more than {TOL:g} max(1, |P|)",
              file=sys.stderr)
    return 0 if ok else 1


def main(argv=None):
    """gallery's code; any other failure is one error line and cli's exit code for it."""
    return report(gallery, argv)


if __name__ == "__main__":
    sys.exit(main())
