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

Every coefficient array is packed (see ``transform``): one array
(n_max + 1, 2, j_max) per state, cosine and sine slots side by side. The
decay, the phi1 weight and the recruitment damping of a mode depend on its
order and index only, and are packed the same way. So each state costs one
AB2 stage, one update and one blow-up maximum, and a block advances all its
states under one ``np.errstate`` (a lagged birth law runs under one more).

The recruitment damping underflows to exactly 0 past some radial index, so
the lagged births of ``full_*`` (a density-dependent birth law) are
analysed only up to the last index with a nonzero damping factor, and each
of its blocks is synthesised only up to its stack's last nonzero index;
that index shrinks once the full-width tail of the analysed initial state
has decayed. Every other source (forced, forced birth, seeded birth,
radial) is taken to span every index, and its blocks transform every
column. The damped births of ``full_*``, the decay factors and, where a
block scans, its stepped coefficients are stored as 0 below the smallest
normal float, so no subnormal operand slows a transform.

A deliberately simple finite-difference integrator on the cell-centered
polar mesh ``DiskGrid.cell_centered`` (forward Euler, conservative
five-point Laplacian) is an independent cross-check, run by ``integrate``
under ``Scheme.REFERENCE_FD``. Its source is the model's: the radial
variant feeds only the angular mean of the field to the order-zero kernel.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .bessel import BesselBasis, BoundaryKind
from .kernel import damped_births, damping_factors
from .model import ModelSpec, ModeSeed, Variant, forcing_profile, linear_rates
from .model import rhs  # noqa: F401  (bound here for tools that wrap solver.rhs)
from .transform import DiskField, DiskGrid, DiskTransform, SpectralField, build_bases, default_grid

__all__ = [
    "Scheme",
    "SolverConfig",
    "HistoryBuffer",
    "SimulationResult",
    "BlowUpError",
    "SpectralIntegrator",
    "resolve_time_step",
    "integrate",
    "fd_stability_limit",
    "fd_laplacian",
]

CONVERGED_STREAK = 100
# Byte budget for the two value-sized stacks a block keeps live at once
# (its grid samples and their angular moments): 5 states on a 194 x 66 grid.
_BLOCK_BYTES = 1 << 20
# Magnitudes below the smallest normal float are stored as 0 (see _flush).
_TINY = np.finfo(float).tiny
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

    ``coeffs`` are the packed coefficients of the head state, ``values`` its
    grid samples and ``peak`` an upper bound on |coeffs| (inf if unknown).
    ``births`` holds the packed damped birth coefficients of the last
    lag_steps + 1 states, oldest first, so ``births[m]`` is the source m
    steps after the head time; it stays empty for the forced variants and
    seeded births, whose source reads no past state.
    """

    dt: float
    coeffs: np.ndarray
    values: np.ndarray
    births: deque
    steps: int = 0
    prev_source: Optional[np.ndarray] = None
    peak: float = math.inf

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
    (``HistoryBuffer.births``). Steps run on packed coefficient arrays: a
    ``SpectralField`` is built only for the result's ``final_state``.

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
        # Per-mode factors in the packed layout. They are finite and every
        # source is 0 at the order-0 sine slot, so that slot stays exactly 0.
        self._decay = _flush(np.exp(-self.rates * self.dt))
        self._phi = _phi1(self.rates, self.dt)
        self._damp = damping_factors(self.bases, spec.survival, spec.spread)
        # Static source pieces: the damped forcing mode scaled by f(t), or a
        # seeded birth mode scaled by its amplitude at t - delay.
        self._forcing = self._seed = None
        # Birth law applied to the head (forced birth) or to each state as it
        # enters the ring (maturation variants); None where no law applies.
        self._local_birth = self._lagged_birth = None
        # The lagged births of ``full_*`` are 0 past radial index ``_reach``,
        # where every damping factor has underflowed to 0, and are analysed
        # that wide only. Every other source is taken to span every index.
        self._reach = spec.j_max
        birth = spec.birth
        if spec.variant in _FORCED:
            unit = spec.forcing_damping() * forcing_profile(spec, self.grid)
            self._forcing = self.transform.analyze_values(unit)
            if spec.variant is Variant.MODE_FORCED_BIRTH:
                self._local_birth = birth
        elif isinstance(birth, ModeSeed):
            self._seed = self._damp * self.transform.analyze_values(birth.profile(self.grid))
        else:
            self._lagged_birth = birth
            if spec.variant is not Variant.RADIAL:
                self._reach = _span(self._damp)
        # Past ``_reach`` the states are 0 once the tail of the analysed
        # initial state has decayed, so ``step`` synthesises each block up to
        # its stack's last nonzero index.
        self._scan = self._reach < spec.j_max
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
            raw = w0(i * self.dt, r, th)
            if entry is None or not np.array_equal(raw, sample):
                sample = np.array(raw, dtype=float)  # a copy: w0 may reuse its array
                values = DiskField(self.grid, sample + np.zeros_like(r)).values
                coeffs = self.transform.analyze_values(values)
                synthesized = self.transform.synthesize_values(coeffs)
                stack = coeffs[:, :, None]
                entry = (coeffs, synthesized, self._births(stack, synthesized[None].copy(), i, 0))
            births.extend(entry[2])
        coeffs, synthesized, _ = entry
        return HistoryBuffer(self.dt, coeffs, synthesized, births, peak=float(np.abs(coeffs).max()))

    def _births(self, stack: np.ndarray, values: np.ndarray, first: int, step_index: int) -> list:
        """Packed damped birth coefficients, one per state of the packed stack
        ``stack`` (sampled as ``values``), that each adds to the source once
        it is the lagged state; empty where the source reads no past state.

        State m is step ``first + m``: its birth law overwrites ``values[m]``,
        and an overflow there is a blow-up at ``step_index + m``. The radial
        variant keeps order zero only.
        """
        birth = self._lagged_birth
        if birth is None:
            return []
        radial = self.spec.variant is Variant.RADIAL
        samples = self.transform.synthesize_profile(stack[0, 0]) if radial else values
        m = 0
        try:
            with np.errstate(over="raise", invalid="raise"):
                for m, sample in enumerate(samples):
                    samples[m] = birth(sample)
                # A batched transform overflows only near the float range;
                # such an overflow is reported at the block's first step.
                m = 0
                births = np.zeros(stack.shape)
                if radial:
                    births[0, 0] = self._damp[0, 0] * self.transform.analyze_profile(samples)
                else:
                    reach = self._reach
                    analysis = self.transform.analyze_values(samples, reach)
                    live = births[..., :reach]
                    _flush(np.multiply(self._damp[:, :, None, :reach], analysis, out=live))
        except FloatingPointError:
            raise BlowUpError((first + m) * self.dt, step_index + m, math.inf) from None
        return [births[:, :, m] for m in range(len(samples))]

    def source(self, buffer: HistoryBuffer, ahead: int = 0) -> np.ndarray:
        """Packed source coefficients at the head time plus ``ahead`` steps.

        The forced birth reads the head state, so it has no source ahead.
        """
        t = (buffer.steps + ahead) * self.dt
        if self._forcing is not None:
            src = self.spec.forcing_value(t) * self._forcing
            if self._local_birth is not None:
                births = np.asarray(self._local_birth(buffer.values), dtype=float)
                src += self.transform.analyze_values(births)
            return src
        if self._seed is not None:
            return float(self.spec.birth.amplitude(t - self.spec.delay)) * self._seed
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
        n1, _, j_max = buffer.coeffs.shape
        stack = np.empty((n1, 2, states, j_max))
        coeffs, prev = buffer.coeffs, buffer.prev_source
        peaks = []
        blowup = None
        with np.errstate(over="raise", invalid="raise"):
            for m in range(states):
                try:
                    src = self.source(buffer, m)
                    stage = src if prev is None else 1.5 * src - 0.5 * prev
                    coeffs = np.add(self._decay * coeffs, self._phi * stage, out=stack[:, :, m])
                except FloatingPointError:
                    blowup = BlowUpError((first + m) * self.dt, step_index + m, math.inf)
                    break
                peak = float(np.abs(coeffs).max())
                if not peak <= self.config.blowup_threshold:  # NaN fails too
                    blowup = BlowUpError((first + m) * self.dt, step_index + m, peak)
                    break
                prev = src
                peaks.append(peak)
            states = len(peaks)
            stack = stack[:, :, :states]
            if states:
                width = _span(_flush(stack)) if self._scan else None
                try:
                    values = self.transform.synthesize_values(stack, self._values[:states], width)
                except FloatingPointError:
                    # Only coefficients near the float range overflow here.
                    raise BlowUpError(first * self.dt, step_index, math.inf) from None
        if states:
            if record is not None:
                coeffs, peak = buffer.coeffs, buffer.peak
                for m in range(states):
                    # |difference| <= peaks[m] + peak bounds the norm's squares.
                    change = stack[:, :, m] - coeffs
                    rate = self.transform.weighted_l2(change, peaks[m] + peak) / self.dt
                    record(step_index + m, (first + m) * self.dt, values[m], rate)
                    coeffs, peak = stack[:, :, m], peaks[m]
            buffer.coeffs, buffer.peak = stack[:, :, -1], peaks[-1]
            buffer.values = values[-1].copy()
            buffer.births.extend(self._births(stack, values, first, step_index))
            buffer.prev_source = prev
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
        final_state = SpectralField(self.bases, buffer.coeffs)
        return recorder.result(final_state, buffer.values, self.spec, self.dt)


def _flush(coeffs: np.ndarray) -> np.ndarray:
    """Set the subnormal entries of ``coeffs`` to 0 in place and return it.

    On x86 an arithmetic operation on a subnormal operand can take a
    hundred times longer than on a normal one, and so small a term changes
    no sum it enters.
    """
    coeffs[np.abs(coeffs) < _TINY] = 0.0
    return coeffs


def _span(coeffs: np.ndarray) -> int:
    """One past the last radial index (last axis) where ``coeffs`` is
    nonzero, or 0 if it is 0 everywhere."""
    nonzero = np.flatnonzero(coeffs.any(axis=tuple(range(coeffs.ndim - 1))))
    return int(nonzero[-1]) + 1 if nonzero.size else 0


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
    requested dt cadence rather than every internal step. The transform of
    the source and the terminal projection is truncated to what the mesh
    resolves.
    """
    grid = DiskGrid.cell_centered(spec.radius, config.fd_n_r, config.fd_n_theta)
    n_max = min(spec.n_max, (grid.n_theta - 2) // 2)
    j_max = min(spec.j_max, grid.n_r - 2)
    transform = DiskTransform(grid, build_bases(n_max, j_max, spec.radius, spec.bc))
    stepper = _FDStepper(spec, transform)
    dt_fd = 0.8 * fd_stability_limit(spec, grid)
    inner = max(1, math.ceil(config.dt / dt_fd - 1e-12))
    dt_fd = config.dt / inner
    n_records = _step_count(config.t_end, config.dt)

    r, th = grid.mesh()
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


def fd_stability_limit(spec: ModelSpec, grid: DiskGrid) -> float:
    """Explicit-Euler dt bound for the diffusion operator on the
    cell-centered mesh ``grid``.

    Gershgorin bound on the discrete operator: every row of the negated
    Laplacian satisfies diag + |offdiag| <= 4/dr^2 + 4/(r^2 dtheta^2),
    worst at the innermost cell r = dr/2.
    """
    dr = grid.radius / grid.n_r
    r0 = 0.5 * dr
    spectral_radius = 4.0 / dr**2 + 4.0 / (r0**2 * grid.theta_spacing**2)
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


def fd_laplacian(values: np.ndarray, spec: ModelSpec, grid: DiskGrid) -> np.ndarray:
    """Conservative five-point polar Laplacian with ghost-cell edges on the
    cell-centered mesh ``grid`` (cells of width dr = radius / n_r).

    The inner face of the first cell sits at r = 0 and carries no area,
    which removes the coordinate singularity without special casing.
    """
    dr, dth = grid.radius / grid.n_r, grid.theta_spacing
    r = grid.r_nodes[:, None]
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


class _FDStepper:
    """Forward-Euler update on the grid of ``transform`` with the static
    source pieces built once.

    Forced variants scale the damped seeded-mode profile by f(t); the
    maturation variants, which it accepts only without delay, evaluate the
    spectral kernel through ``transform`` and its stored tables: the full
    variants on the whole field, the radial variant on its angular mean, as
    ``model.rhs`` does.
    """

    def __init__(self, spec: ModelSpec, transform: DiskTransform):
        if spec.variant not in _FORCED and spec.delay != 0.0:
            raise ValueError("the reference integrator runs maturation variants only without delay")
        self.spec = spec
        self.transform = transform
        self.grid = transform.grid
        if spec.variant in _FORCED:
            self._unit = spec.forcing_damping() * forcing_profile(spec, self.grid)
        else:
            self._damp = damping_factors(transform.bases, spec.survival, spec.spread)

    def __call__(self, values: np.ndarray, dt: float, t: float) -> np.ndarray:
        spec = self.spec
        if spec.variant in _FORCED:
            source = spec.forcing_value(t) * self._unit
            if spec.variant is Variant.MODE_FORCED_BIRTH and spec.birth is not None:
                source = source + np.asarray(spec.birth(values), dtype=float)
        elif spec.variant is Variant.RADIAL:
            births = np.asarray(spec.birth(values.mean(axis=1)), dtype=float)
            coeffs = self._damp[0, 0] * self.transform.analyze_profile(births)
            source = self.transform.synthesize_profile(coeffs)[:, None]
        else:
            lagged, birth = values, spec.birth
            if isinstance(birth, ModeSeed):
                lagged, birth = birth.field(self.grid, t - spec.delay), (lambda w: w)
            births = damped_births(lagged, birth, self._damp, self.transform)
            source = self.transform.synthesize_values(births)
        lap = fd_laplacian(values, spec, self.grid)
        return values + dt * (spec.diffusion * lap - spec.mortality * values + source)
