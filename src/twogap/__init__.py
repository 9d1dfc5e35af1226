"""Momentum-operator dynamics on the line with two intervals removed.

Spectral theory, scattering and the compressed (Lax-Phillips style)
semigroup for the self-adjoint momentum extensions parametrized by a 2x2
unitary boundary matrix.  Everything dynamical acts exactly on step packets
(piecewise-oscillatory functions); everything spectral has closed forms;
quadrature appears only in independent cross-check oracles.
"""

from .domain import (
    BoundaryMatrix,
    ExteriorDomain,
    Region,
    classify_point,
    e2pi,
    make_boundary_matrix,
    make_domain,
)
from .eigen import (
    eigen_coeffs,
    eigen_residual,
    eigenfunction_eval,
    scattering_matrix_routes,
)
from .errors import TwogapError
from .evolution import decompose, evolve, evolve_many, scatter
from .packets import StepPacket, sum_packets
from .scenario import Scenario, bundled_scenario, load_scenario
from .semigroup import (
    compress_evolve,
    compress_evolve_many,
    norm_decay_profile,
    semigroup_kernel_apply,
)
from .spectral import SpectralDensity, fourier_coeffs
from .transform import adjoint_transform, forward_transform, sigma_norm2
from .verify import run_checks

__all__ = [
    "BoundaryMatrix",
    "ExteriorDomain",
    "Region",
    "Scenario",
    "SpectralDensity",
    "StepPacket",
    "TwogapError",
    "adjoint_transform",
    "bundled_scenario",
    "classify_point",
    "compress_evolve",
    "compress_evolve_many",
    "decompose",
    "e2pi",
    "eigen_coeffs",
    "eigen_residual",
    "eigenfunction_eval",
    "evolve",
    "evolve_many",
    "forward_transform",
    "fourier_coeffs",
    "load_scenario",
    "make_boundary_matrix",
    "make_domain",
    "norm_decay_profile",
    "run_checks",
    "scatter",
    "scattering_matrix_routes",
    "semigroup_kernel_apply",
    "sigma_norm2",
    "sum_packets",
]

__version__ = "0.1.0"
