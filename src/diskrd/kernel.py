"""Life-history integrals and the lagged, spectrally damped birth source.

Individuals maturing at time t were born anywhere on the disk at time
t - tau and diffused while immature. In the eigenfunction basis that
history collapses to a diagonal operation: project the lagged birth
field, multiply each mode by ``survival * exp(-k^2 * spread)``, and
resum. ``survival`` is the fraction surviving immaturity and ``spread``
the diffusivity accumulated over the immature window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bessel import BesselBasis
from .transform import DiskField, DiskGrid, DiskTransform, analyze_radial, synthesize_radial

__all__ = [
    "LifeHistory",
    "epsilon_of",
    "alpha_of",
    "damping_factors",
    "damped_births",
    "maturation_term",
    "maturation_term_radial",
]


@dataclass(frozen=True)
class LifeHistory:
    """Age-dependent immature death and diffusion rates over [0, tau]."""

    immature_death: Callable[[float], float]
    immature_diffusion: Callable[[float], float]
    tau: float

    def __post_init__(self) -> None:
        if self.tau < 0.0:
            raise ValueError("maturation delay must be nonnegative")


def epsilon_of(history: LifeHistory) -> float:
    """Fraction surviving immaturity: exp(-integral_0^tau d_I(a) da)."""
    if history.tau == 0.0:
        return 1.0
    from scipy.integrate import quad  # off the import path of the CLI

    total, _ = quad(history.immature_death, 0.0, history.tau, limit=200)
    return float(np.exp(-total))


def alpha_of(history: LifeHistory) -> float:
    """Diffusivity accumulated while immature: integral_0^tau D_I(a) da."""
    if history.tau == 0.0:
        return 0.0
    from scipy.integrate import quad  # off the import path of the CLI

    total, _ = quad(history.immature_diffusion, 0.0, history.tau, limit=200)
    return float(total)


def damping_factors(
    bases: tuple[BesselBasis, ...], survival: float, spread: float
) -> np.ndarray:
    """Per-mode factors survival * exp(-k^2 * spread), packed like the
    coefficients (n_max + 1, 2, j_max): both slots of order n share them.

    The k = 0 constant mode is damped by survival alone: diffusion moves
    births around but the survival fraction still applies.
    """
    if not 0.0 <= survival <= 1.0:
        raise ValueError("survival must lie in [0, 1]")
    if spread < 0.0:
        raise ValueError("spread must be nonnegative")
    k = np.stack([(basis.eigenvalues,) * 2 for basis in bases])
    return survival * np.exp(-(k**2) * spread)


def damped_births(
    values: np.ndarray,
    birth: Callable[[np.ndarray], np.ndarray],
    damp: np.ndarray,
    transform: DiskTransform,
) -> np.ndarray:
    """Packed coefficients of the recruits the grid samples ``values`` produce.

    The birth law is applied pointwise, the result analysed and each mode
    scaled by its damping factor (see ``damping_factors``).
    """
    return damp * transform.analyze_values(np.asarray(birth(values), dtype=float))


def maturation_term(
    lagged: DiskField,
    birth: Callable[[np.ndarray], np.ndarray],
    survival: float,
    spread: float,
    bases: tuple[BesselBasis, ...],
    transform: DiskTransform,
) -> DiskField:
    """Nonlocal maturation source produced by the lagged field: the damped
    birth coefficients resummed on the grid of ``transform``."""
    damp = damping_factors(bases, survival, spread)
    coeffs = damped_births(lagged.values, birth, damp, transform)
    return DiskField(transform.grid, transform.synthesize_values(coeffs))


def maturation_term_radial(
    profile: np.ndarray,
    birth: Callable[[np.ndarray], np.ndarray],
    survival: float,
    spread: float,
    basis: BesselBasis,
    grid: DiskGrid,
) -> np.ndarray:
    """Order-zero path of the maturation source for radial profiles."""
    coeffs = analyze_radial(np.asarray(birth(profile), dtype=float), basis, grid)
    coeffs = coeffs * damping_factors((basis,), survival, spread)[0, 0]
    return synthesize_radial(coeffs, basis, grid.r_nodes)
