#!/usr/bin/env python3
"""SHA-256 digests of pertwave's float64 outputs on a fixed list of cases.

Two checkouts that print the same digests give the same doubles, bit for
bit, on every case below; a change meant to leave every output unchanged
can be checked by running this script before and after it.  The cases:

* evolve: evolve_grid on the criterion-7 and criterion-8 grids, the golden
  degree-3 grid, spline data, and ring data on slices a < 0 and |a| > 1;
* data: InitialData.from_rho_expr u0 and v0 on a w-grid, for every n = 2
  basis seed of degree <= 4 and five slices a;
* recover: recover on fixed points for every n = 2 and n = 4 basis seed of
  degree <= 3.

Usage: PYTHONPATH=src python3 scripts/numeric_digest.py [--cases]
"""

import argparse
import hashlib
import sys
from fractions import Fraction

import numpy as np

from pertwave import (Grid2D, InitialData, Polynomial, QuadratureSpec, RayField,
                      build_phi, evolve_grid, recover, wave_basis)

Q = QuadratureSpec()
DATA_SLICES = (0.0, 0.1, -0.37, 0.999, 2.5)


def ring_phi(terms):
    return build_phi(Polynomial(2, terms), 2).phi


def bump(c, w0):
    return InitialData(a=0.0, u0=lambda w: np.exp(-c * (w - w0) ** 2),
                       v0=lambda w: np.zeros_like(w))


def evolve_cases():
    x_rho = InitialData.from_rho_expr(ring_phi({(0, 1): 1}))
    deg3 = (ring_phi({(3, 0): 1, (1, 2): 3})
            + ring_phi({(2, 1): 3, (0, 3): 1}).scale(Fraction(2, 3)))
    w = np.linspace(-2.0, 2.0, 81)
    samples = InitialData.from_samples(w, np.sin(w) * np.exp(-w * w), np.cos(3.0 * w), a=0.1)
    yield "criterion-7", x_rho, Grid2D(-1.0, 1.0, 101, 0.0, 0.5, 51)
    for c, w0 in ((8.0, 0.0), (10.0, 0.2), (6.0, -0.25)):
        yield f"criterion-8-bump-{c}-{w0}", bump(c, w0), Grid2D(-1.0, 1.0, 41, 0.0, 0.5, 21)
    for nx, nt in ((41, 21), (81, 41), (161, 81)):
        yield f"criterion-8-ring-{nx}x{nt}", x_rho, Grid2D(-1.0, 1.0, nx, 0.0, 0.5, nt)
    yield "samples", samples, Grid2D(-0.7, 0.7, 21, 0.1, 0.6, 11)
    for name, a, g in (("golden-degree-3", 0.1, Grid2D(-1.0, 1.0, 21, 0.1, 0.5, 11)),
                       ("a-negative", -0.37, Grid2D(-0.8, 0.8, 17, -0.6, 0.1, 8)),
                       ("a-above-one", 1.5, Grid2D(2.0, 2.6, 13, 1.5, 1.8, 7))):
        yield name, InitialData.from_rho_expr(deg3, a=a), g


def digests():
    """(group, case, float64 array) for every case, in a fixed order."""
    for name, d, g in evolve_cases():
        yield "evolve", name, evolve_grid(d, g, Q).values
    w = np.linspace(-3.0, 3.0, 601)
    for k in range(5):
        for i, seed in enumerate(wave_basis(2, k).elements):
            phi = build_phi(seed, 2).phi
            for a in DATA_SLICES:
                d = InitialData.from_rho_expr(phi, a=a)
                yield "data", f"k{k}-{i}-a{a}", np.stack([d.u0(w), d.v0(w)])
    for n in (2, 4):
        points = np.random.default_rng(n).uniform(-0.3, 0.3, (8, n))
        for k in range(4):
            for i, seed in enumerate(wave_basis(n, k).elements):
                field = RayField.from_rho_expr(build_phi(seed, n).phi)
                yield "recover", f"n{n}-k{k}-{i}", recover(field, points, Q)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", action="store_true", help="also print each case's digest")
    args = parser.parse_args(argv)
    total, groups = hashlib.sha256(), {}
    for group, name, values in digests():
        raw = np.ascontiguousarray(values, dtype=np.float64).tobytes()
        if args.cases:
            print(f"{group:8} {hashlib.sha256(raw).hexdigest()}  {name}")
        groups.setdefault(group, [hashlib.sha256(), 0])
        groups[group][0].update(raw)
        groups[group][1] += 1
        total.update(raw)
    for group, (h, count) in groups.items():
        print(f"{group:8} {h.hexdigest()}  ({count} cases)")
    print(f"{'all':8} {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
