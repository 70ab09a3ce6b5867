"""Birth laws, model variants, and the split right-hand side.

Every variant shares the linear backbone ``D Laplacian(w) - mortality*w``,
which is diagonal in the eigenfunction basis: the mode J_n(k r) cos(n
theta) evolves at rate -(diffusion * k^2 + mortality). Variants differ in
their source term:

    FULL_DIRICHLET / FULL_ZERO_FLUX   nonlocal maturation of the lagged field
    RADIAL                            the same at n_max = 0 (no angular part)
    MODE_FORCED                       a fixed single-mode birth pulse
    MODE_FORCED_BIRTH                 the pulse plus a local birth law b(w)

``grid_source`` states each variant's source once on a grid: the
finite-difference reference steps with it, and ``rhs`` pairs it with the
linear rates. The spectral integrator applies the same rule to
coefficients (see ``solver``). At n_max = 0 every state is constant in
theta, so the ``full_*`` rule gives RADIAL the paper's radial births.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Union

import numpy as np

from .bessel import (
    MAX_ARGUMENT,
    MAX_EIGENVALUES,
    MAX_ORDER,
    BesselBasis,
    BoundaryCondition,
    BoundaryKind,
    bessel_j,
)
# maturation_term* have no caller here: bound for perfbench/child.py, which wraps them.
from .kernel import damping_factors, maturation_term, maturation_term_radial  # noqa: F401
from .transform import DiskField, DiskGrid, DiskTransform, SpectralField

__all__ = [
    "Identity",
    "Logistic",
    "RickerQuadratic",
    "BirthLaw",
    "Variant",
    "ModelSpec",
    "linear_rates",
    "grid_source",
    "rhs",
    "homogeneous_equilibria",
]


class Identity:
    """b(w) = w."""

    def __call__(self, w):
        return w

    def __repr__(self) -> str:
        return "Identity()"


@dataclass(frozen=True)
class Logistic:
    """b(w) = rate * w * (1 - w / capacity)."""

    rate: float
    capacity: float

    def __post_init__(self) -> None:
        if self.rate <= 0.0 or self.capacity <= 0.0:
            raise ValueError("logistic birth needs rate > 0 and capacity > 0")

    def __call__(self, w):
        return self.rate * w * (1.0 - w / self.capacity)


@dataclass(frozen=True)
class RickerQuadratic:
    """b(w) = scale * w^2 * exp(-decay * w)."""

    scale: float
    decay: float

    def __post_init__(self) -> None:
        if self.scale <= 0.0 or self.decay <= 0.0:
            raise ValueError("quadratic birth needs scale > 0 and decay > 0")

    def __call__(self, w):
        return self.scale * w**2 * np.exp(-self.decay * w)


BirthLaw = Union[Identity, Logistic, RickerQuadratic]


class Variant(Enum):
    FULL_DIRICHLET = "full_dirichlet"
    FULL_ZERO_FLUX = "full_zero_flux"
    RADIAL = "radial"
    MODE_FORCED = "mode_forced"
    MODE_FORCED_BIRTH = "mode_forced_birth"


_DEFAULT_BC = {
    Variant.FULL_DIRICHLET: BoundaryCondition.dirichlet,
    Variant.FULL_ZERO_FLUX: BoundaryCondition.zero_flux,
    # The reductions below are derived with an absorbing edge; runs may
    # override the condition explicitly.
    Variant.RADIAL: BoundaryCondition.dirichlet,
    Variant.MODE_FORCED: BoundaryCondition.dirichlet,
    Variant.MODE_FORCED_BIRTH: BoundaryCondition.dirichlet,
}
_FORCED = (Variant.MODE_FORCED, Variant.MODE_FORCED_BIRTH)


@dataclass(frozen=True)
class ModelSpec:
    """All parameters selecting and sizing one model variant.

    diffusion / mortality act on the mature population; survival and
    spread summarise immaturity (fraction surviving, diffusivity
    accumulated over the delay). ``forcing`` is the time factor of the
    forcing mode in the forced variants, evaluated at t - delay.
    """

    variant: Variant
    diffusion: float
    mortality: float
    survival: float
    spread: float
    delay: float
    radius: float
    bc: Optional[BoundaryCondition] = None
    birth: Optional[BirthLaw] = None
    forcing: Optional[Callable[[float], float]] = None
    forcing_mode_k: float = 3.8317
    forcing_exponent_linear: bool = False
    n_max: int = 16
    j_max: int = 32

    def __post_init__(self) -> None:
        if not 0.0 < self.diffusion < math.inf:
            raise ValueError("diffusion must be positive and finite")
        for name in ("mortality", "spread", "delay"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite")
        if not 0.0 < self.survival <= 1.0:
            raise ValueError("survival must lie in (0, 1]")
        if not 1e-100 <= self.radius <= 1e100:
            raise ValueError("radius must lie in [1e-100, 1e100]")
        for name in ("n_max", "j_max"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {name} = {getattr(self, name)!r}")
        if not (0 <= self.n_max <= MAX_ORDER and 1 <= self.j_max <= MAX_EIGENVALUES):
            raise ValueError(
                f"truncation must satisfy 0 <= n_max <= {MAX_ORDER}, "
                f"1 <= j_max <= {MAX_EIGENVALUES}"
            )
        bc = self.bc if self.bc is not None else _DEFAULT_BC[self.variant]()
        object.__setattr__(self, "bc", bc)
        if self.variant is Variant.FULL_DIRICHLET and bc.kind is not BoundaryKind.DIRICHLET:
            raise ValueError("FULL_DIRICHLET runs under a Dirichlet condition")
        if self.variant is Variant.FULL_ZERO_FLUX and bc.kind is not BoundaryKind.ZERO_FLUX:
            raise ValueError("FULL_ZERO_FLUX runs under a zero-flux condition")
        # mode_forced takes no birth law, every other variant exactly one.
        if self.variant is Variant.MODE_FORCED:
            if self.birth is not None:
                raise ValueError(
                    "mode_forced applies no birth law: set birth = none, or use mode_forced_birth"
                )
        elif not callable(self.birth):
            raise ValueError(
                f"{self.variant.value} requires a callable birth law, got birth = {self.birth!r}"
            )
        if self.forcing is not None and not callable(self.forcing):
            raise ValueError(f"forcing must be callable or None, got forcing = {self.forcing!r}")
        if self.variant is Variant.RADIAL and self.n_max != 0:
            raise ValueError("the radial variant has no angular part: it needs n_max = 0")
        if self.variant in _FORCED:
            # No grid the transform builds resolves J_1(k r) past the widest scan.
            if not (0.0 < self.forcing_mode_k and self.forcing_mode_k * self.radius <= MAX_ARGUMENT):
                raise ValueError(
                    f"forcing_mode_k must be positive with forcing_mode_k * radius <= "
                    f"{MAX_ARGUMENT:.6g}"
                )

    def forcing_value(self, t: float) -> float:
        """Forcing time factor f(t - delay); defaults to 1."""
        if self.forcing is None:
            return 1.0
        return float(self.forcing(t - self.delay))

    def forcing_damping(self) -> float:
        """Spectral damping of the forcing mode, survival included.

        The exponent is quadratic in the wavenumber, matching every other
        mode of the series; the linear variant is kept as an opt-in switch
        for literal reproduction of runs that used it.
        """
        k = self.forcing_mode_k
        exponent = k * self.spread if self.forcing_exponent_linear else k**2 * self.spread
        return self.survival * float(np.exp(-exponent))

    def forcing_profile(self, grid: DiskGrid) -> np.ndarray:
        """The damped forcing mode ``forcing_damping() * J_1(k r) cos(theta)``
        on the mesh of ``grid``, k = forcing_mode_k; the forced source is
        f(t - delay) times it."""
        r, th = grid.mesh()
        return self.forcing_damping() * (bessel_j(1, self.forcing_mode_k * r) * np.cos(th))


def linear_rates(spec: ModelSpec, bases: tuple[BesselBasis, ...]) -> np.ndarray:
    """Per-mode decay rates diffusion * k^2 + mortality, packed like the
    coefficients (n_max + 1, 2, j_max): both slots of order n share them.
    """
    k = np.stack([(basis.eigenvalues,) * 2 for basis in bases])
    return spec.diffusion * k**2 + spec.mortality


def grid_source(spec: ModelSpec, transform: DiskTransform) -> Callable:
    """``source(t, current, lagged)``: the variant's source on the grid of
    ``transform`` from the samples of the state at t and at t - delay.

    It is the integrator's rule ``f(t - delay) * static + births`` on the
    grid. ``static``, built once, is the damped forcing mode of the forced
    variants; ``births`` is ``b(current)`` for the forced birth and the
    damped births of ``b(lagged)`` for ``full_*`` and ``radial``.
    """
    birth = spec.birth
    static = births = None
    if spec.variant in _FORCED:
        static = spec.forcing_profile(transform.grid)
        if birth is not None:
            births = lambda current, lagged: np.asarray(birth(current), dtype=float)  # noqa: E731
    else:
        damp = damping_factors(transform.bases, spec.survival, spec.spread)

        def births(current, lagged):
            analysis = transform.analyze_values(np.asarray(birth(lagged), dtype=float))
            return transform.synthesize_values(damp * analysis)

    def source(t: float, current: np.ndarray, lagged: Optional[np.ndarray]) -> np.ndarray:
        if static is None:
            return births(current, lagged)
        values = spec.forcing_value(t) * static
        return values if births is None else values + births(current, lagged)

    return source


def rhs(
    t: float,
    state: SpectralField,
    lagged: Optional[DiskField],
    spec: ModelSpec,
    transform: DiskTransform,
) -> tuple[np.ndarray, DiskField]:
    """Time-derivative contribution split into (linear rates, source field).

    The linear part is the per-mode rate array; the source field is
    ``grid_source`` at the synthesis of ``state`` and the lagged field, the
    population at t - delay, which the maturation variants need.
    """
    if spec.variant not in _FORCED and lagged is None:
        raise ValueError("maturation variants need the lagged field")
    current = transform.synthesize(state).values
    source = grid_source(spec, transform)(t, current, None if lagged is None else lagged.values)
    return linear_rates(spec, transform.bases), DiskField(transform.grid, source)


# 1/e as the sum of two doubles, so that z + 1/e keeps its digits near the
# branch point of Lambert W.
_INV_E_HI = 0.36787944117144233
_INV_E_LO = -1.2428753672788363e-17


def _lambert_w(z: float, branch: int) -> float:
    """Real Lambert W, the solution w of w e^w = z on branch 0 (w >= -1,
    z >= -1/e) or branch -1 (w <= -1, -1/e <= z < 0), by Halley's
    iteration.

    z + 1/e is formed in two parts, and within |w + 1| < 1/2 the residual is
    e^-1 ((v - 1) expm1(v) + v) - (z + 1/e) with v = w + 1, so the root
    stays accurate up to the branch point, where w = -1. The start is the
    branch-point series in p = sqrt(2 (e z + 1)) near it, log1p(z) or
    log z - log log z on branch 0, and log(-z) - log(-log(-z)) on branch -1.
    """
    d = (z + _INV_E_HI) + _INV_E_LO
    if branch == -1 and z >= 0.0:
        if z == 0.0:
            return -math.inf
        raise ValueError("branch -1 of Lambert W needs -1/e <= z < 0")
    if d <= 0.0:
        if z < -_INV_E_HI:
            raise ValueError("Lambert W has no real value below z = -1/e")
        return -1.0
    if z == 0.0:
        return 0.0
    sign = 1.0 if branch == 0 else -1.0
    p = math.sqrt(2.0 * math.e * d)
    if p < 0.5:
        w = -1.0 + sign * p - p * p / 3.0 + sign * 11.0 / 72.0 * p**3
    elif branch == 0:
        w = math.log1p(z) if z < 3.0 else math.log(z) - math.log(math.log(z))
    else:
        w = math.log(-z) - math.log(-math.log(-z))
    for _ in range(64):
        # Halley's step for f(w) = w e^w - z, with f' = e^w v and
        # f'' = e^w (v + 1), written in r = f e^-w so nothing overflows.
        v = w + 1.0
        if abs(v) < 0.5:
            r = (_INV_E_HI * ((v - 1.0) * math.expm1(v) + v) - d) * math.exp(-w)
        else:
            r = w - z * math.exp(-w)
        step = r / (v - r * (v + 1.0) / (2.0 * v))
        w -= step
        if abs(step) <= 4.0 * math.ulp(w):
            return w
    raise ArithmeticError(f"Lambert W did not converge at z = {z!r}, branch {branch}")


def homogeneous_equilibria(spec: ModelSpec) -> np.ndarray:
    """Nonnegative roots of b(w) = mortality * w, the flat states of
    ``mode_forced_birth``.

    Closed forms: logistic ``K (1 - mu / r)`` when mu < r; Ricker
    ``w = -W_b(-d mu / s) / d`` on the real Lambert-W branches b = 0, -1 when
    -d mu / s >= -1/e. w = 0 is always included; roots at or beyond
    ``w_max`` (2 K for logistic, 10 / d for Ricker) are dropped and roots
    within 1e-9 of each other are merged.
    """
    birth = spec.birth
    mu = spec.mortality
    if isinstance(birth, RickerQuadratic):
        w_max = 10.0 / birth.decay
        z = -birth.decay * mu / birth.scale
        branches = (0, -1) if z >= -np.exp(-1.0) else ()
        candidates = [-_lambert_w(z, branch) / birth.decay for branch in branches]
    elif isinstance(birth, Logistic):
        w_max = 2.0 * birth.capacity
        candidates = [birth.capacity * (1.0 - mu / birth.rate)] if mu < birth.rate else []
    else:
        raise ValueError("equilibria are defined for the density-dependent birth laws")

    roots = [0.0] + [float(w) for w in candidates if np.isfinite(w) and 0.0 < w < w_max]
    unique = []
    for w in sorted(roots):
        if not unique or w - unique[-1] > 1e-9:
            unique.append(w)
    return np.array(unique)
