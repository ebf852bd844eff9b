"""One refusal matrix for the five singular-set guards that share ring.check_margin.

Each guard is driven so that the first point it checks is a given (t, x), at which
ring.margin = 1 - t^2 + x^2 takes a named value.  A guard admits exactly the finite
margins >= its floor, and refuses the rest with one DomainError whose message ends
in the shared tail, without a RuntimeWarning.
"""

import math
import warnings

import numpy as np
import pytest

from pertwave import cauchy, ring
from pertwave.cauchy import EPS_SING, Grid2D, InitialData, evolve_point, fd_reference
from pertwave.errors import DomainError
from pertwave.invert import DEFAULT_DELTA, RayField, recover
from pertwave.quadrature import QuadratureSpec

Q = QuadratureSpec()

# (t, x) at which margin is the named value, for either floor
AT_MARGIN = {
    "-1": ((1.5, 0.5), -1.0),
    "0": ((1.0, 0.0), 0.0),
    "1": ((1.5, 1.5), 1.0),
    "+inf": ((1.5, 1e200), math.inf),  # x^2 overflows
    "nan": ((1e200, 1e200), math.nan),  # both squares overflow: -inf + inf
    "-inf": ((1e200, 1.5), -math.inf),  # t^2 overflows
}
# (t, x) at which margin is floor - 1 ulp, and floor itself, for each floor
NEAR_FLOOR = {
    EPS_SING: ((1.0, 0.03162277660168379), (1.0000000000000004, 0.031622776601697836)),
    DEFAULT_DELTA: ((0.9393993358948333, 0.36396581196542865), (1.0, 0.5)),
}
LABELS = ["-1", "0", "floor - 1 ulp", "floor", "1", "+inf", "nan", "-inf"]


def at_margin(label, floor):
    """(t, x) at which margin is the named value, and that value."""
    if label in AT_MARGIN:
        return AT_MARGIN[label]
    below, at = NEAR_FLOOR[floor]
    return (at, floor) if label == "floor" else (below, math.nextafter(floor, 0.0))


def leapfrog(t, x):
    """fd_reference from the slice a = -t on a 2 x 2 grid with dx = dt: the widened
    domain starts 4 dx (its padding) left of the grid, at x, for the largest dx = 2^-k
    that keeps that start exact and the grid itself clear of the floor."""
    if t * t == math.inf:  # the grid check over the same t range refuses first
        g = Grid2D(x, 2 * x + 1, 2, -t, 0.0, 2)
    elif x * x == math.inf:  # widened right, up to 2.2e154, past a grid that clears the floor
        g = Grid2D(1e154, 1.3e154, 2, -t, 0.1 - t, 2)
    else:
        dx = next(dx for dx in 2.0 ** -np.arange(8, -3, -1)
                  if (x + 4 * dx) - 4 * dx == x and ring.margin([[t, x + 4 * dx]])[0] >= EPS_SING)
        g = Grid2D(x + 4 * dx, x + 5 * dx, 2, -t, dx - t, 2)
    return fd_reference(InitialData(a=g.t_min, u0=np.cos, v0=np.sin), g)


DATA = InitialData(a=0.0, u0=np.cos, v0=np.sin)
RAYS = RayField(dim=2, evaluate=lambda p: np.cos(p[:, 0]))
# name: (floor, the guarded call whose first checked point is (t, x), its subject)
GUARDS = {
    "node": (EPS_SING, lambda t, x: evolve_point(DATA, x, t, Q), "point (x="),
    "grid": (EPS_SING, lambda t, x: Grid2D(x, 2 * x + 1, 2, -t, t, 2).check_singularity(),
             "grid reaches (x="),
    "data slice": (EPS_SING, lambda t, x: cauchy._check_data_intervals(t, [[x]], [[x]]),
                   "data slice t = "),
    "leapfrog domain": (EPS_SING, leapfrog, "widened FD domain reaches (x="),
    "ray": (DEFAULT_DELTA, lambda t, x: recover(RAYS, [[t, x]], Q), "ray to ("),
}


@pytest.mark.parametrize("label", LABELS)
@pytest.mark.parametrize("guard", sorted(GUARDS))
def test_refusal_matrix(guard, label):
    floor, run, subject = GUARDS[guard]
    (t, x), m = at_margin(label, floor)
    with np.errstate(over="ignore", invalid="ignore"):
        np.testing.assert_equal(ring.margin([[t, x]])[0], m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning fails the case
        if label in ("floor", "1"):
            run(t, x)
            return
        with pytest.raises(DomainError) as err:
            run(t, x)
    message = str(err.value)
    if guard == "leapfrog domain" and t * t == math.inf:
        subject = GUARDS["grid"][2]
    assert message.startswith(subject)
    assert message.endswith(f": margin 1 + x.x = {m}, not in [{floor}, inf)")
