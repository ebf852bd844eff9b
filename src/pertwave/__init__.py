"""Exact and numerical solutions of the perturbed massless wave equation
with the singular potential n(n+2)/(1+x^2)^2 on n-dimensional Minkowski space."""

from .basis import WaveBasis, is_wave_polynomial, wave_basis
from .cauchy import (Field2D, Grid2D, InitialData, evolve_grid, evolve_point,
                     fd_reference, initial_condition_check, pde_residual_fd)
from .hyp2f1 import fk_ode_residual, hyp2f1_terminating, radial_numerator
from .invert import RayField, h_shift_inverse, recover, recover_n2, recover_n4
from .quadrature import QuadratureSpec
from .ring import Polynomial, RhoExpr, margin, normalize
from .solutions import (SolutionBundle, beta_coefficients, build_phi,
                        check_n2_background, psi0_residual, recursion_step,
                        residual)

__all__ = [
    "WaveBasis", "is_wave_polynomial", "wave_basis",
    "Field2D", "Grid2D", "InitialData", "evolve_grid", "evolve_point",
    "fd_reference", "initial_condition_check", "pde_residual_fd",
    "fk_ode_residual", "hyp2f1_terminating", "radial_numerator",
    "QuadratureSpec", "RayField", "h_shift_inverse", "recover", "recover_n2", "recover_n4",
    "Polynomial", "RhoExpr", "margin", "normalize",
    "SolutionBundle", "beta_coefficients", "build_phi", "check_n2_background",
    "psi0_residual", "recursion_step", "residual",
]
