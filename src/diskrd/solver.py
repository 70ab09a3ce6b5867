"""Time integration for the delayed disk models.

The spectral scheme propagates the diagonal linear part exactly,
``c <- exp(-lam dt) c``, and treats the analysed source with a two-step
Adams-Bashforth weight under the phi1 integrating factor:

    c_new = exp(-lam dt) c + phi1(lam, dt) (3/2 N_t - 1/2 N_{t-dt}),
    phi1 = (1 - exp(-lam dt)) / lam   (dt in the lam -> 0 limit).

The recruitment source at t reads only the damped births of the state
at t - delay, so the delay is handled by a ring of those births, one per
step; dt is rounded down so the delay is an integer number of steps and
the lagged births are a lookup, never an interpolation. The next
lag_steps + 1 states read only births already in the ring, so they are
marched as one block (the method of steps), with one batched synthesis
and one batched analysis of their births.

A deliberately simple finite-difference integrator on a cell-centered
polar mesh (forward Euler, conservative five-point Laplacian) is provided
as an independent cross-check.
"""

from __future__ import annotations

import math
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .bessel import BesselBasis, BoundaryKind
from .kernel import damped_births, damping_factors
from .model import ModelSpec, ModeSeed, Variant, forcing_profile, linear_rates
from .model import rhs  # noqa: F401  (bound here for tools that wrap solver.rhs)
from .transform import (
    DiskField,
    DiskGrid,
    DiskTransform,
    SpectralField,
    build_bases,
    default_grid,
)

__all__ = [
    "Scheme",
    "SolverConfig",
    "HistoryBuffer",
    "SimulationResult",
    "BlowUpError",
    "SpectralIntegrator",
    "resolve_time_step",
    "integrate",
    "FDGrid",
    "fd_stability_limit",
    "fd_laplacian",
    "reference_fd_step",
    "integrate_fd",
]

CONVERGED_STREAK = 100
# Byte budget for the two value-sized stacks a block keeps live at once
# (its grid samples and their angular moments): 5 states on a 194 x 66 grid.
_BLOCK_BYTES = 1 << 20
_FORCED = (Variant.MODE_FORCED, Variant.MODE_FORCED_BIRTH)


class Scheme(Enum):
    ETD_AB2 = "etd_ab2"
    REFERENCE_FD = "reference_fd"


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping knobs; fd_n_r / fd_n_theta only feed the FD scheme."""

    dt: float = 0.01
    t_end: float = 400.0
    scheme: Scheme = Scheme.ETD_AB2
    snapshot_every: int = 2000
    convergence_tol: float = 1e-6
    blowup_threshold: float = 1e12
    fd_n_r: int = 32
    fd_n_theta: int = 24

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.t_end < 0.0:
            raise ValueError("t_end must be nonnegative")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be at least 1")
        # Three radial cells keep at least one radial mode on the FD mesh.
        if self.fd_n_r < 3:
            raise ValueError("fd_n_r must be at least 3")
        if self.fd_n_theta < 2:
            raise ValueError("fd_n_theta must be at least 2")


def resolve_time_step(dt: float, delay: float) -> tuple[float, int]:
    """Largest dt' <= dt with delay an exact multiple of dt'.

    Returns (dt', lag_steps); a zero delay keeps dt and needs no lag.
    """
    if delay == 0.0:
        return dt, 0
    lag = max(1, math.ceil(delay / dt - 1e-12))
    return delay / lag, lag


@dataclass
class HistoryBuffer:
    """What one step reads: the head state and the births still to mature.

    ``a, b`` are the coefficients of the head state and ``values`` its grid
    samples. ``births`` holds the damped birth coefficients of the last
    lag_steps + 1 states, oldest first, so ``births[m]`` is the source m
    steps after the head time; it stays empty for the forced variants and
    seeded births, whose source reads no past state.
    """

    dt: float
    a: np.ndarray
    b: np.ndarray
    values: np.ndarray
    births: deque
    steps: int = 0
    prev_source: Optional[tuple[np.ndarray, np.ndarray]] = None

    @property
    def t_head(self) -> float:
        """Time of the head state; a step count times dt, so it never drifts."""
        return self.steps * self.dt


class BlowUpError(RuntimeError):
    """A coefficient magnitude crossed the blow-up threshold."""

    def __init__(self, t: float, step_index: int, magnitude: float):
        super().__init__(
            f"solution blew up at t={t:g} (step {step_index}): |c| reached {magnitude:.3e}"
        )
        self.t = t
        self.step_index = step_index
        self.magnitude = magnitude


@contextmanager
def _overflow_is_blowup(t: float, step_index: int):
    """Report a floating-point overflow (say, of a birth law) as a blow-up."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise BlowUpError(t, step_index, math.inf) from None


@dataclass
class SimulationResult:
    """Diagnostics series, snapshots, and the terminal state of one run."""

    times: np.ndarray
    max_density: np.ndarray
    min_density: np.ndarray
    total_population: np.ndarray
    dwdt_norm: np.ndarray
    snapshots: list
    converged: bool
    converged_at: Optional[float]
    final_state: SpectralField
    final_field: DiskField
    grid: DiskGrid
    spec: ModelSpec
    config: SolverConfig
    dt: float


class SpectralIntegrator:
    """Exact-linear/explicit-source marching of one configured model.

    The source is built in coefficient space and each new state is
    synthesised once; those grid values give its diagnostics row, the
    forced-birth term, and the births it contributes once lagged
    (``HistoryBuffer.births``). Steps run on raw coefficient arrays: a
    ``SpectralField`` is built only from the validated initial field and
    for the result's ``final_state``.

    States are marched in blocks of ``block`` (method of steps): the
    lagged source of the next lag_steps + 1 states is already queued, so a
    block advances its coefficients one state at a time and then
    synthesises, and analyses its births, in one call each. ``block`` is
    min(lag_steps + 1, cap) for the density-dependent maturation variants,
    the cap for the forced variant and a seeded birth (their source is known
    for all t), and 1 for the forced birth, which reads the head state.
    """

    def __init__(
        self,
        spec: ModelSpec,
        config: SolverConfig,
        grid: DiskGrid | None = None,
        bases: tuple[BesselBasis, ...] | None = None,
    ):
        self.spec = spec
        self.config = config
        if bases is None:
            bases = build_bases(spec.n_max, spec.j_max, spec.radius, spec.bc)
        elif [(basis.order, basis.count, basis.radius, basis.bc) for basis in bases] != [
            (n, spec.j_max, spec.radius, spec.bc) for n in range(spec.n_max + 1)
        ]:
            raise ValueError("bases do not match the model's truncation, radius and bc")
        self.bases = bases
        self.grid = grid if grid is not None else default_grid(self.bases)
        self.transform = DiskTransform(self.grid, self.bases)
        self.rates = linear_rates(spec, self.bases)
        self.dt, self.lag_steps = resolve_time_step(config.dt, spec.delay)
        self._decay_a = np.exp(-self.rates * self.dt)
        self._decay_b = self._decay_a[1:]
        phi = _phi1(self.rates, self.dt)
        self._phi_a = phi
        self._phi_b = phi[1:]
        self._damp = damping_factors(self.bases, spec.survival, spec.spread)
        # Static source pieces: the damped forcing mode scaled by f(t), or a
        # seeded birth mode scaled by its amplitude at t - delay.
        self._forcing = self._seed = None
        # Birth law applied to the head (forced birth) or to each state as it
        # enters the ring (maturation variants); None where no law applies.
        self._local_birth = self._lagged_birth = None
        birth = spec.birth
        if spec.variant in _FORCED:
            unit = spec.forcing_damping() * forcing_profile(spec, self.grid)
            self._forcing = self.transform.analyze_values(unit)
            if spec.variant is Variant.MODE_FORCED_BIRTH:
                self._local_birth = birth
        elif isinstance(birth, ModeSeed):
            a, b = self.transform.analyze_values(birth.profile(self.grid))
            self._seed = (self._damp * a, self._damp[1:] * b)
        else:
            self._lagged_birth = birth
        cap = max(1, _BLOCK_BYTES // (2 * self.grid.n_r * self.grid.n_theta * 8))
        if self._local_birth is not None:
            self.block = 1
        elif self._lagged_birth is not None:
            self.block = min(self.lag_steps + 1, cap)
        else:
            self.block = cap
        # Grid samples of one block, reused: the birth law overwrites them.
        self._values = np.empty((self.block, self.grid.n_r, self.grid.n_theta))

    def initialize_history(self, w0: Callable[[float, np.ndarray, np.ndarray], np.ndarray]) -> HistoryBuffer:
        """Analyse w0(t, r, theta) at t = 0 and queue the births of [-delay, 0].

        Only a density-dependent maturation source reads past states, so
        only then is w0 sampled before t = 0, at t = i dt for
        i = -lag_steps .. 0. A sample equal to the previous one reuses its
        state and births, so a time-independent history costs one analysis.
        """
        r, th = self.grid.mesh()
        births = deque(maxlen=self.lag_steps + 1)
        first = -self.lag_steps if self._lagged_birth is not None else 0
        sample = entry = None
        for i in range(first, 1):
            values = np.asarray(w0(i * self.dt, r, th), dtype=float) + np.zeros_like(r)
            if entry is None or not np.array_equal(values, sample):
                state = self.transform.analyze(DiskField(self.grid, values))
                synthesized = self.transform.synthesize_values(state.a, state.b)
                entry = (state, synthesized, self._births(state.a[None], synthesized[None].copy(), i, 0))
            sample = values
            births.extend(entry[2])
        state, synthesized, _ = entry
        return HistoryBuffer(self.dt, state.a, state.b, synthesized, births)

    def _births(self, a: np.ndarray, values: np.ndarray, first: int, step_index: int) -> list:
        """Damped birth coefficients (a, b), one pair per state of the stack
        ``a`` (sampled as ``values``), that each adds to the source once it
        is the lagged state; empty where the source reads no past state.

        State m is step ``first + m``: its birth law runs under the overflow
        guard at ``step_index + m`` and overwrites ``values[m]``. The radial
        variant keeps order zero only.
        """
        birth = self._lagged_birth
        if birth is None:
            return []
        radial = self.spec.variant is Variant.RADIAL
        samples = self.transform.synthesize_profile(a[:, 0]) if radial else values
        for m, sample in enumerate(samples):
            with _overflow_is_blowup((first + m) * self.dt, step_index + m):
                samples[m] = birth(sample)
        # A batched transform overflows only near the float range; such an
        # overflow is reported at the block's first step.
        with _overflow_is_blowup(first * self.dt, step_index):
            if radial:
                ba = np.zeros_like(a)
                ba[:, 0] = self._damp[0] * self.transform.analyze_profile(samples)
                return list(zip(ba, np.zeros_like(a[:, 1:])))
            ba, bb = self.transform.analyze_values(samples)
        return [(self._damp * x, self._damp[1:] * y) for x, y in zip(ba, bb)]

    def source(self, buffer: HistoryBuffer, ahead: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Source coefficients (a, b) at the head time plus ``ahead`` steps.

        The forced birth reads the head state, so it has no source ahead.
        """
        t = (buffer.steps + ahead) * self.dt
        if self._forcing is not None:
            f = self.spec.forcing_value(t)
            a, b = f * self._forcing[0], f * self._forcing[1]
            if self._local_birth is not None:
                births = np.asarray(self._local_birth(buffer.values), dtype=float)
                ba, bb = self.transform.analyze_values(births)
                a, b = a + ba, b + bb
            return a, b
        if self._seed is not None:
            amp = float(self.spec.birth.amplitude(t - self.spec.delay))
            return amp * self._seed[0], amp * self._seed[1]
        return buffer.births[ahead]

    def step(
        self,
        buffer: HistoryBuffer,
        step_index: int = 0,
        states: int = 1,
        record: Callable[[int, float, np.ndarray, float], None] | None = None,
    ) -> HistoryBuffer:
        """Advance ``states`` dt steps (at most ``block``); the first step of
        a run uses the one-step Euler weights.

        State m is step ``step_index + m``. Its coefficients are advanced and
        checked for blow-up in order; a blow-up at state p is raised after
        states 0 .. p-1 are finished. The states are then synthesised in one
        call, passed to ``record(i, t, values, rate)``, and their births
        analysed in one call.
        """
        if not 1 <= states <= self.block:
            raise ValueError(f"states must lie in [1, {self.block}]")
        first = buffer.steps + 1
        stack_a = np.empty((states,) + buffer.a.shape)
        stack_b = np.empty((states,) + buffer.b.shape)
        a, b, prev = buffer.a, buffer.b, buffer.prev_source
        sources = []
        blowup = None
        with np.errstate(over="raise", invalid="raise"):
            for m in range(states):
                try:
                    src_a, src_b = self.source(buffer, m)
                    if prev is None:
                        stage_a, stage_b = src_a, src_b
                    else:
                        stage_a = 1.5 * src_a - 0.5 * prev[0]
                        stage_b = 1.5 * src_b - 0.5 * prev[1]
                    a = np.add(self._decay_a * a, self._phi_a * stage_a, out=stack_a[m])
                    b = np.add(self._decay_b * b, self._phi_b * stage_b, out=stack_b[m])
                except FloatingPointError:
                    blowup, states = BlowUpError((first + m) * self.dt, step_index + m, math.inf), m
                    break
                prev = (src_a, src_b)
                sources.append(prev)
            peaks = np.maximum(
                np.abs(stack_a[:states]).max(axis=(1, 2)),
                np.abs(stack_b[:states]).max(axis=(1, 2), initial=0.0),
            )
            if not peaks.max(initial=0.0) <= self.config.blowup_threshold:  # NaN fails too
                states = int(np.argmin(peaks <= self.config.blowup_threshold))
                blowup = BlowUpError((first + states) * self.dt, step_index + states, float(peaks[states]))
            stack_a, stack_b = stack_a[:states], stack_b[:states]
            if states:
                try:
                    values = self.transform.synthesize_values(stack_a, stack_b, self._values[:states])
                except FloatingPointError:
                    # Only coefficients near the float range overflow here.
                    raise BlowUpError(first * self.dt, step_index, math.inf) from None
        if states:
            if record is not None:
                a, b = buffer.a, buffer.b
                for m in range(states):
                    rate = self.transform.weighted_l2(stack_a[m] - a, stack_b[m] - b) / self.dt
                    record(step_index + m, (first + m) * self.dt, values[m], rate)
                    a, b = stack_a[m], stack_b[m]
            buffer.a, buffer.b, buffer.values = stack_a[-1], stack_b[-1], values[-1].copy()
            buffer.births.extend(self._births(stack_a, values, first, step_index))
            buffer.prev_source = sources[states - 1]
            buffer.steps += states
        if blowup is not None:
            raise blowup
        return buffer

    def integrate(self, w0) -> SimulationResult:
        buffer = self.initialize_history(w0)
        n_steps = _step_count(self.config.t_end, self.dt)
        recorder = _Recorder(n_steps, self.grid, self.config)
        recorder.record(0, 0.0, buffer.values, 0.0)
        # The partition depends on n_steps and the block length only.
        for i in range(1, n_steps + 1, self.block):
            self.step(buffer, i, min(self.block, n_steps + 1 - i), recorder.record)
        final_state = SpectralField(self.bases, buffer.a, buffer.b)
        return recorder.result(final_state, buffer.values, self.spec, self.dt)


def _step_count(t_end: float, dt: float) -> int:
    """Number of dt-spaced diagnostics rows after the initial one."""
    return int(math.ceil(t_end / dt - 1e-9)) if t_end else 0


class _Recorder:
    """Diagnostics rows, convergence streak and snapshots of one run."""

    def __init__(self, n_steps: int, grid: DiskGrid, config: SolverConfig):
        self.n_steps = n_steps
        self.grid = grid
        self.config = config
        self.rows = np.empty((5, n_steps + 1))
        self.snapshots: list = []
        self.converged_at: Optional[float] = None
        self.streak = 0

    def record(self, i: int, t: float, values: np.ndarray, rate: float) -> None:
        self.rows[:, i] = (t, values.max(), values.min(), self.grid.integrate(values), rate)
        if i > 0:
            self.streak = self.streak + 1 if rate < self.config.convergence_tol else 0
            if self.streak >= CONVERGED_STREAK and self.converged_at is None:
                self.converged_at = t
        if i == 0 or i == self.n_steps or i % self.config.snapshot_every == 0:
            # A copy: the caller may reuse ``values`` once the row is taken.
            self.snapshots.append((t, DiskField(self.grid, values.copy())))

    def result(
        self, final_state: SpectralField, final_values: np.ndarray, spec: ModelSpec, dt: float
    ) -> SimulationResult:
        times, max_density, min_density, total_population, dwdt_norm = self.rows
        return SimulationResult(
            times=times,
            max_density=max_density,
            min_density=min_density,
            total_population=total_population,
            dwdt_norm=dwdt_norm,
            snapshots=self.snapshots,
            converged=self.converged_at is not None,
            converged_at=self.converged_at,
            final_state=final_state,
            final_field=DiskField(self.grid, final_values),
            grid=self.grid,
            spec=spec,
            config=self.config,
            dt=dt,
        )


def _phi1(lam: np.ndarray, dt: float) -> np.ndarray:
    """(1 - exp(-lam dt)) / lam, by series where cancellation would bite."""
    x = lam * dt
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, lam)
    direct = (1.0 - np.exp(-x)) / safe
    series = dt * (1.0 - x / 2.0 + x**2 / 6.0 - x**3 / 24.0)
    return np.where(small, series, direct)


def integrate(spec: ModelSpec, config: SolverConfig, w0) -> SimulationResult:
    """Run the configured scheme; the FD scheme suits short cross-check horizons."""
    if config.scheme is Scheme.REFERENCE_FD:
        return _integrate_reference(spec, config, w0)
    return SpectralIntegrator(spec, config).integrate(w0)


def _integrate_reference(spec: ModelSpec, config: SolverConfig, w0) -> SimulationResult:
    """SimulationResult-shaped run of the FD scheme.

    The FD step is stability-bounded, so diagnostics are recorded on the
    requested dt cadence rather than every internal step.
    """
    fd = FDGrid(spec.radius, config.fd_n_r, config.fd_n_theta)
    stepper = _FDStepper(spec, fd)
    transform = stepper.transform or _fd_transform(spec, fd)
    grid = transform.grid
    dt_fd = 0.8 * fd_stability_limit(spec, fd)
    inner = max(1, math.ceil(config.dt / dt_fd - 1e-12))
    dt_fd = config.dt / inner
    n_records = _step_count(config.t_end, config.dt)

    r, th = fd.mesh()
    values = DiskField(grid, np.asarray(w0(0.0, r, th), dtype=float) + np.zeros_like(r)).values
    recorder = _Recorder(n_records, grid, config)
    recorder.record(0, 0.0, values, 0.0)
    for i in range(1, n_records + 1):
        for s in range((i - 1) * inner, i * inner):
            previous, values = values, stepper(values, dt_fd, s * dt_fd)
        t = i * inner * dt_fd
        peak = float(np.max(np.abs(values)))
        if not np.isfinite(peak) or peak > config.blowup_threshold:
            raise BlowUpError(t, i, peak)
        rate = math.sqrt(grid.integrate((values - previous) ** 2)) / dt_fd
        recorder.record(i, t, values, rate)
    return recorder.result(transform.analyze(DiskField(grid, values)), values, spec, dt_fd)


# ---------------------------------------------------------------------------
# Reference finite-difference integrator (independent cross-check)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FDGrid:
    """Cell-centered polar mesh: r_i = (i + 1/2) dr, periodic theta."""

    radius: float
    n_r: int
    n_theta: int

    @property
    def dr(self) -> float:
        return self.radius / self.n_r

    @property
    def dtheta(self) -> float:
        return 2.0 * np.pi / self.n_theta

    @cached_property
    def r(self) -> np.ndarray:
        return (np.arange(self.n_r) + 0.5) * self.dr

    @cached_property
    def theta(self) -> np.ndarray:
        return np.arange(self.n_theta) * self.dtheta

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.r, self.theta, indexing="ij")

    def quadrature_grid(self) -> DiskGrid:
        return DiskGrid.cell_centered(self.radius, self.n_r, self.n_theta)


def fd_stability_limit(spec: ModelSpec, fd: FDGrid) -> float:
    """Explicit-Euler dt bound for the diffusion operator on this mesh.

    Gershgorin bound on the discrete operator: every row of the negated
    Laplacian satisfies diag + |offdiag| <= 4/dr^2 + 4/(r^2 dtheta^2),
    worst at the innermost cell r = dr/2.
    """
    r0 = 0.5 * fd.dr
    spectral_radius = 4.0 / fd.dr**2 + 4.0 / (r0**2 * fd.dtheta**2)
    return 2.0 / (spec.diffusion * spectral_radius + spec.mortality)


def _ghost_row(edge: np.ndarray, spec: ModelSpec, dr: float) -> np.ndarray:
    """Ghost-cell values encoding the boundary condition at the outer face."""
    bc = spec.bc
    if bc.kind is BoundaryKind.DIRICHLET:
        return -edge
    if bc.kind is BoundaryKind.ZERO_FLUX:
        return edge
    a, b = bc.coefficients()
    denom = a / dr + 0.5 * b
    if denom == 0.0:
        raise ValueError("mixed condition degenerates on this mesh; refine dr")
    return edge * (a / dr - 0.5 * b) / denom


def fd_laplacian(values: np.ndarray, spec: ModelSpec, fd: FDGrid) -> np.ndarray:
    """Conservative five-point polar Laplacian with ghost-cell edges.

    The inner face of the first cell sits at r = 0 and carries no area,
    which removes the coordinate singularity without special casing.
    """
    dr, dth = fd.dr, fd.dtheta
    r = fd.r[:, None]
    r_plus = r + 0.5 * dr
    r_minus = r - 0.5 * dr

    upper = np.empty_like(values)
    upper[:-1] = values[1:]
    upper[-1] = _ghost_row(values[-1], spec, dr)
    lower = np.empty_like(values)
    lower[1:] = values[:-1]
    lower[0] = 0.0  # multiplied by the zero-area inner face

    flux = r_plus * (upper - values) - r_minus * (values - lower)
    radial = flux / (r * dr**2)
    angular = (np.roll(values, 1, axis=1) - 2.0 * values + np.roll(values, -1, axis=1)) / (
        r**2 * dth**2
    )
    return radial + angular


def _fd_transform(spec: ModelSpec, fd: FDGrid) -> DiskTransform:
    """Transform on the FD midpoint mesh, truncated to what the mesh resolves."""
    n_max = min(spec.n_max, (fd.n_theta - 2) // 2)
    j_max = min(spec.j_max, fd.n_r - 2)
    bases = build_bases(n_max, j_max, spec.radius, spec.bc)
    return DiskTransform(fd.quadrature_grid(), bases)


class _FDStepper:
    """Forward-Euler update on one FD mesh with the static source pieces built once.

    Forced variants scale the damped seeded-mode profile by f(t); the
    maturation variants evaluate the spectral kernel through a transform
    on the midpoint mesh.
    """

    def __init__(self, spec: ModelSpec, fd: FDGrid):
        self.spec = spec
        self.fd = fd
        self.transform: Optional[DiskTransform] = None
        if spec.variant in _FORCED:
            self._unit = spec.forcing_damping() * forcing_profile(spec, fd)
        else:
            self.transform = _fd_transform(spec, fd)
            self._damp = damping_factors(self.transform.bases, spec.survival, spec.spread)

    def __call__(
        self, values: np.ndarray, dt: float, t: float, lagged: np.ndarray | None = None
    ) -> np.ndarray:
        spec = self.spec
        if spec.variant in _FORCED:
            source = spec.forcing_value(t) * self._unit
            if spec.variant is Variant.MODE_FORCED_BIRTH and spec.birth is not None:
                source = source + np.asarray(spec.birth(values), dtype=float)
        else:
            if lagged is None:
                if spec.delay != 0.0:
                    raise ValueError(
                        "the reference integrator handles maturation variants only "
                        "without delay (pass the lagged field explicitly otherwise)"
                    )
                lagged = values
            birth = spec.birth
            if isinstance(birth, ModeSeed):
                lagged, birth = birth.field(self.transform.grid, t - spec.delay), (lambda w: w)
            a, b = damped_births(lagged, birth, self._damp, self.transform)
            source = self.transform.synthesize_values(a, b)
        lap = fd_laplacian(values, spec, self.fd)
        return values + dt * (spec.diffusion * lap - spec.mortality * values + source)


def reference_fd_step(
    values: np.ndarray,
    spec: ModelSpec,
    fd: FDGrid,
    dt: float,
    t: float = 0.0,
    lagged: np.ndarray | None = None,
) -> np.ndarray:
    """One forward-Euler update on the FD mesh.

    Supports the forced variants directly; the maturation variants are
    accepted without delay (the lagged field defaults to the current one),
    evaluated through the same spectral kernel on the midpoint mesh, with
    the truncation capped to what the mesh resolves.
    """
    if dt > fd_stability_limit(spec, fd):
        raise ValueError(
            f"dt={dt:g} exceeds the explicit stability bound "
            f"{fd_stability_limit(spec, fd):g} for this mesh"
        )
    return _FDStepper(spec, fd)(values, dt, t, lagged)


def integrate_fd(
    spec: ModelSpec,
    fd: FDGrid,
    values: np.ndarray,
    t_end: float,
    dt: float | None = None,
    safety: float = 0.8,
) -> tuple[np.ndarray, float]:
    """March the FD scheme to t_end; returns (final values, dt used).

    Equivalent to chaining reference_fd_step, with the static pieces of
    the source built once for the (stability-bounded, hence long) loop.
    """
    limit = fd_stability_limit(spec, fd)
    if dt is None:
        dt = safety * limit
    n_steps = max(1, int(math.ceil(t_end / dt - 1e-12)))
    dt = t_end / n_steps
    if dt > limit:
        raise ValueError("requested dt violates the stability bound")

    stepper = _FDStepper(spec, fd)
    for s in range(n_steps):
        values = stepper(values, dt, s * dt)
    return values, dt
