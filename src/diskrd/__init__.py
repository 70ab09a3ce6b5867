"""Spectral simulation of delayed, nonlocal dispersal on a circular habitat.

The package decomposes into:

    bessel     special functions and the disk eigenvalue problem
    transform  polar grids and the eigenfunction transform
    kernel     life-history integrals and the lagged maturation source
    model      birth laws, model variants, right-hand sides, equilibria
    solver     exponential time stepping, births ring, FD cross-check
    cli        config-driven batch runner (``diskrd run``, ``diskrd eigen-table``)
"""

from .bessel import (
    BesselBasis,
    BoundaryCondition,
    BoundaryKind,
    EigenvalueSearchError,
    bessel_j,
    bessel_j_prime,
    find_eigenvalues,
)
from .kernel import LifeHistory, alpha_of, damping_factors, epsilon_of, maturation_term
from .model import (
    Identity,
    Logistic,
    ModeSeed,
    ModelSpec,
    RickerQuadratic,
    Variant,
    homogeneous_equilibria,
    linear_rates,
    rhs,
)
from .solver import (
    BlowUpError,
    HistoryBuffer,
    SimulationResult,
    SolverConfig,
    SpectralIntegrator,
    reference_fd,
)
from .transform import (
    DiskField,
    DiskGrid,
    DiskTransform,
    SpectralField,
    analyze_radial,
    build_bases,
    default_grid,
    synthesize_on,
    synthesize_radial,
)

__version__ = "0.1.0"
