"""Pseudo-spectral solver for filtered incompressible flow on the torus,
with a dyadic/Besov analysis toolkit and an estimate-verification harness."""

__version__ = "0.1.0"

from .dyadic import BesovIndex, DyadicFamily, build_dyadic_family
from .dynamics import nonlinearity_V, reynolds_stress_divergence, semigroup_apply
from .fields import (
    SpectralField,
    VectorField,
    l2_norm,
    lp_norm,
    random_band_limited,
    taylor_green,
    to_real,
    to_spectral,
)
from .grid import Grid
from .operators import helmholtz_inverse, lambda_power, leray_project, stokes_project
from .picard import check_admissibility, estimate_existence_time, picard_solve
from .quadrature import duhamel_apply, make_time_grid
from .solver import SolverConfig, Trajectory, solve_ivp
from .timenorms import ct_norm, lsigma_norm

__all__ = [
    "BesovIndex",
    "DyadicFamily",
    "Grid",
    "SolverConfig",
    "SpectralField",
    "Trajectory",
    "VectorField",
    "build_dyadic_family",
    "check_admissibility",
    "ct_norm",
    "duhamel_apply",
    "estimate_existence_time",
    "helmholtz_inverse",
    "l2_norm",
    "lambda_power",
    "leray_project",
    "lp_norm",
    "lsigma_norm",
    "make_time_grid",
    "nonlinearity_V",
    "picard_solve",
    "random_band_limited",
    "reynolds_stress_divergence",
    "semigroup_apply",
    "solve_ivp",
    "stokes_project",
    "taylor_green",
    "to_real",
    "to_spectral",
]
