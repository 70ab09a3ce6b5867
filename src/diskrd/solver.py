"""Time integration for the delayed disk models.

The spectral scheme propagates the diagonal linear part exactly,
``c <- exp(-lam dt) c``, and treats the analysed source with a two-step
Adams-Bashforth weight under the phi1 integrating factor:

    c_new = exp(-lam dt) c + phi1(lam, dt) (3/2 N_t - 1/2 N_{t-dt}),
    phi1 = (1 - exp(-lam dt)) / lam   (dt in the lam -> 0 limit).

Every source is one rule in coefficient space,

    N_t = amplitude(t) * static + births[t],

where ``static`` is a fixed mode (the damped forcing mode of the forced
variants, or a seeded birth mode) and ``births[t]`` the analysed births of
the state a birth law reads: the state at t - delay, damped per mode, for
the maturation variants, and the head itself, undamped (lag 0), for the
forced birth. So the marching state is coefficients only: the head and a
ring of the births of the last lag + 1 states, each queued as its state is
synthesised. dt is rounded down so the delay is an integer number of steps
and the lagged births are a lookup, never an interpolation. The next
lag + 1 states read only births already in the ring, so they are marched
as one block (the method of steps), with one batched synthesis and one
batched analysis of their births.

Every coefficient array is packed (see ``transform``): one array
(n_max + 1, 2, j_max) per state, cosine and sine slots side by side. The
decay, the phi1 weight and the recruitment damping of a mode depend on its
order and index only, and are packed the same way. So a state costs one
AB2 stage and one update, and the rest is done once per block: one
blow-up maximum over the block's coefficients (the failing state is
located only when it fails) and one synthesis, under the updates'
``np.errstate``; one call of the diagnostics recorder with the block's
rows and its AB2 changes (one subtraction), outside it, so a diagnostic
past the float range is stored as inf with a warning; and, under an
``np.errstate`` of their own, the birth law on chunks of the block's grid
samples (as many states as fit an eighth of ``_BLOCK_BYTES``) and one
analysis.

The recruitment damping underflows to exactly 0 past some radial index, so
the lagged births of ``full_*`` and ``radial`` (``full_*`` at n_max = 0)
are analysed only up to the last index with a nonzero damping factor, and
where that is below j_max each block is synthesised only up to its stack's
last nonzero index, which shrinks once the full-width tail of the analysed
initial state has decayed. Every other source (forced, forced birth,
seeded birth) is taken to span every index, and its blocks transform every
column. The damped lagged births, the decay factors and, where a block
scans, its stepped coefficients are stored as 0 below the smallest normal
float, so no subnormal operand slows a transform.

A deliberately simple finite-difference integrator on the cell-centered
polar mesh ``DiskGrid.cell_centered`` (forward Euler, conservative
five-point Laplacian) is an independent cross-check, run by
``reference_fd``. It steps with ``model.grid_source``, the rule
``model.rhs`` wraps, built once per run, and refuses a run that needs more
than ``_MAX_STEPS`` Euler steps. Each scheme takes and checks its own mesh
and step count; ``SolverConfig`` holds only what both read.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .kernel import damping_factors
from .model import _FORCED, ModelSpec, ModeSeed, grid_source, linear_rates
from .model import rhs  # noqa: F401  (bound here for tools that wrap solver.rhs)
from .transform import DiskField, DiskGrid, DiskTransform, SpectralField, build_bases, default_grid

__all__ = [
    "SolverConfig",
    "HistoryBuffer",
    "SimulationResult",
    "BlowUpError",
    "SpectralIntegrator",
    "resolve_time_step",
    "reference_fd",
    "fd_stability_limit",
    "fd_laplacian",
]

CONVERGED_STREAK = 100
# Byte budget for the two value-sized stacks a block keeps live at once
# (its grid samples and their angular moments): 5 states on a 194 x 66 grid.
# The birth law runs on chunks of an eighth of it (128 KiB of samples: 51
# states on a 159 x 2 grid, one on a 194 x 66 grid), so its temporaries add
# little to the peak memory.
_BLOCK_BYTES = 1 << 20
# Magnitudes below the smallest normal float are stored as 0 (see _flush).
_TINY = np.finfo(float).tiny
# Most steps in one run or one delay: each keeps a diagnostics row or a ring entry.
_MAX_STEPS = 10**8


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping knobs both schemes read. Each scheme checks the step
    count against the dt it steps with."""

    dt: float = 0.01
    t_end: float = 400.0
    snapshot_every: int = 2000
    convergence_tol: float = 1e-6
    blowup_threshold: float = 1e12

    def __post_init__(self) -> None:
        if not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if self.t_end < 0.0:
            raise ValueError("t_end must be nonnegative")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be at least 1")


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

    ``coeffs`` are the packed coefficients of the head state and ``peak`` an
    upper bound on |coeffs| (inf if unknown). ``births`` holds the packed
    birth coefficients of the last lag + 1 states, oldest first, so
    ``births[m]`` is the state-dependent source m steps after the head time;
    it stays empty where no birth law applies (the forced variant and a
    seeded birth, whose source reads no state). The head is at time
    ``steps * dt`` of the integrator's dt, so it never drifts.
    """

    coeffs: np.ndarray
    births: deque
    steps: int = 0
    prev_source: Optional[np.ndarray] = None
    peak: float = math.inf


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
    """Exact-linear/explicit-source marching of one configured model, on
    its bases and the grid ``default_grid(bases, n_r, n_theta)``: a size of
    0 is picked automatically, a positive one is taken as given.

    The source is built in coefficient space (see the module docstring) and
    each state, the t = 0 one included, is synthesised once; those grid
    values give its diagnostics row and the births it queues.
    Steps run on packed coefficient arrays: a ``SpectralField`` is built
    only for the result's ``final_state``.

    States are marched in blocks of ``block`` (method of steps): the births
    the next lag + 1 states read are already queued, so a block advances its
    coefficients one state at a time and then tests them for blow-up,
    synthesises them, records their diagnostics rows and analyses their
    births in one call each. ``block`` is min(lag + 1, cap) where a birth
    law applies (lag_steps for the maturation variants, 0 for the forced
    birth), and the cap where none does (the forced variant and a seeded
    birth, whose source is known for all t).
    """

    def __init__(self, spec: ModelSpec, config: SolverConfig, n_r: int = 0, n_theta: int = 0):
        self.spec = spec
        self.config = config
        self.dt, self.lag_steps = resolve_time_step(config.dt, spec.delay)
        _step_count(max(config.t_end, spec.delay), self.dt, "t_end or delay over the rounded dt")
        self.bases = build_bases(spec.n_max, spec.j_max, spec.radius, spec.bc)
        self.grid = default_grid(self.bases, n_r, n_theta)
        self.transform = DiskTransform(self.grid, self.bases)
        # Per-mode factors in the packed layout. They are finite and every
        # source is 0 at the order-0 sine slot, so that slot stays exactly 0.
        with np.errstate(over="ignore"):
            self.rates = linear_rates(spec, self.bases)
            if not np.all(np.isfinite(self.rates)):
                raise ValueError(
                    "diffusion * k^2 + mortality overflows: diffusion or mortality is too "
                    "large for this radius and j_max"
                )
            # Where rates * dt overflows, exp(-rates dt) is 0 and phi1 1 / rates.
            self._decay = _flush(np.exp(-self.rates * self.dt))
            self._phi = _phi1(self.rates, self.dt)
        self._damp = damping_factors(self.bases, spec.survival, spec.spread)
        # The fixed mode of the source and its time factor: the damped
        # forcing mode scaled by f(t - delay), or a seeded birth mode by its
        # amplitude at t - delay; None where the source has no fixed mode.
        self._static = self._amplitude = None
        # The birth law, the steps its births lag the source, and their
        # per-mode damping (None: undamped); no law for a forced or seeded mode.
        self._birth, self._birth_lag, self._birth_damp = None, 0, None
        # Lagged births are 0 past radial index ``_reach``, where every
        # damping factor has underflowed to 0, and are analysed that wide
        # only. Every other source is taken to span every index.
        self._reach = spec.j_max
        birth = spec.birth
        if spec.variant in _FORCED:
            seed = ModeSeed(spec.forcing_value, spec.forcing_mode_k)
            unit = spec.forcing_damping() * seed.profile(self.grid)
            self._static, self._amplitude = self.transform.analyze_values(unit), seed.amplitude
            self._birth = birth  # the forced birth reads the head: lag 0, undamped
        elif isinstance(birth, ModeSeed):
            self._static = self._damp * self.transform.analyze_values(birth.profile(self.grid))
            self._amplitude = lambda t: float(birth.amplitude(t - spec.delay))
        else:
            self._birth, self._birth_lag, self._birth_damp = birth, self.lag_steps, self._damp
            self._reach = _span(self._damp)
        # Past ``_reach`` the states are 0 once the tail of the analysed
        # initial state has decayed, so ``step`` synthesises each block up to
        # its stack's last nonzero index.
        self._scan = self._reach < spec.j_max
        state_bytes = self.grid.n_r * self.grid.n_theta * 8
        cap = max(1, _BLOCK_BYTES // (2 * state_bytes))
        self.block = cap if self._birth is None else min(self._birth_lag + 1, cap)
        # States per call of the birth law (see _BLOCK_BYTES).
        self._chunk = max(1, _BLOCK_BYTES // 8 // state_bytes)
        # Grid samples of one block, reused: the birth law overwrites them.
        self._values = np.empty((self.block, self.grid.n_r, self.grid.n_theta))

    def initialize_history(
        self,
        w0: Callable[[float, np.ndarray, np.ndarray], np.ndarray],
        record: Callable[[int, np.ndarray, np.ndarray], None] | None = None,
    ) -> HistoryBuffer:
        """Analyse w0(t, r, theta) at t = 0 and queue the births of the
        history the birth law reads; ``record(0, values, rates)``, if given,
        takes the grid values (1, n_r, n_theta) of the analysed t = 0 state
        and its rate, 0.

        Only a lagged birth law reads past states, so only then is w0 sampled
        before t = 0, at t = i dt for i = -lag_steps .. 0. A run of equal
        samples is one state, analysed once and synthesised at most once; its
        births are queued when the run ends. An overflow in its transforms or
        births is a blow-up at the run's first step.
        """
        r, th = self.grid.mesh()
        births = deque(maxlen=self._birth_lag + 1)
        sample = None
        for i in range(-self._birth_lag, 1):
            raw = w0(i * self.dt, r, th)
            # Samples that broadcast to the same grid values are one state.
            if sample is not None and (sample == raw).all():
                continue
            if sample is not None:  # the run from step ``first`` ends at i - 1
                births.extend(self._births(values, first) * (i - first))
            sample = np.array(raw, dtype=float)  # a copy: w0 may reuse its array
            values = DiskField(self.grid, sample + np.zeros_like(r)).values
            with np.errstate(over="raise", invalid="raise"):
                try:
                    stack = self.transform.analyze_values(values[None])
                    # Only a birth law or the recorder reads a state's grid
                    # values; without a law the history is the t = 0 state.
                    if self._birth is not None or record is not None:
                        values = self.transform.synthesize_values(stack, self._values[:1])
                except FloatingPointError:
                    raise BlowUpError(i * self.dt, i, math.inf) from None
            first = i
        if record is not None:
            record(0, values, np.zeros(1))
        births.extend(self._births(values, first) * (1 - first))
        coeffs = stack[:, :, 0]
        return HistoryBuffer(coeffs, births, peak=float(np.abs(coeffs).max()))

    def _births(self, values: np.ndarray, first: int) -> list:
        """Packed birth coefficients, one per state, that each adds to the
        source once the birth law reads its state; empty where no birth law
        applies.

        ``values`` are the states' grid samples (K, n_r, n_theta), which the
        birth law overwrites, ``_chunk`` states per call. State m is step
        ``first + m``. An overflow in the law of state m is a blow-up at
        that step, one in the batched analysis (only near the float range)
        at the block's first step. The forced birth is analysed undamped at
        full width.
        """
        birth, damp = self._birth, self._birth_damp
        if birth is None:
            return []
        with np.errstate(over="raise", invalid="raise"):
            for lo in range(0, len(values), self._chunk):
                chunk = values[lo : lo + self._chunk]
                try:
                    chunk[...] = birth(chunk)
                except FloatingPointError:
                    # The law is pointwise: the first state whose own law raises.
                    for m in range(lo, lo + len(chunk)):
                        try:
                            birth(values[m])
                        except FloatingPointError:
                            break
                    raise BlowUpError((first + m) * self.dt, first + m, math.inf) from None
            try:
                if damp is None:
                    births = self.transform.analyze_values(values)
                else:
                    reach = self._reach
                    analysis = self.transform.analyze_values(values, reach)
                    births = np.zeros(analysis.shape[:-1] + (self.spec.j_max,))
                    _flush(np.multiply(damp[:, :, None, :reach], analysis, out=births[..., :reach]))
            except FloatingPointError:
                raise BlowUpError(first * self.dt, first, math.inf) from None
        return list(births.transpose(2, 0, 1, 3))

    def source(self, buffer: HistoryBuffer, ahead: int = 0) -> np.ndarray:
        """Packed source coefficients at the head time plus ``ahead`` steps:
        amplitude(t) * static + births[ahead], each term where it applies."""
        if self._static is None:
            return buffer.births[ahead]
        src = self._amplitude((buffer.steps + ahead) * self.dt) * self._static
        if self._birth is not None:
            src += buffer.births[ahead]
        return src

    def step(
        self,
        buffer: HistoryBuffer,
        states: int = 1,
        record: Callable[[int, np.ndarray, np.ndarray], None] | None = None,
    ) -> HistoryBuffer:
        """Advance ``states`` dt steps (at most ``block``) past the head; the
        first step of a run uses the one-step Euler weights.

        State m is step ``buffer.steps + 1 + m``. The states are advanced in
        order, then checked for blow-up together; a blow-up at state p is
        raised after states 0 .. p-1 are finished. Those are synthesised in
        one call, passed to ``record(first, values, rates)`` as one block of
        diagnostics rows, and their births analysed in one call; the buffer
        takes the states only then, so an overflow in their births leaves it
        as it was.
        """
        if not 1 <= states <= self.block:
            raise ValueError(f"states must lie in [1, {self.block}]")
        first = buffer.steps + 1
        # Slot 0 holds the head and slot m + 1 state m, each contiguous, so
        # the AB2 changes are one subtraction; ``stack`` is the packed view.
        slots = np.empty((states + 1,) + buffer.coeffs.shape)
        slots[0] = buffer.coeffs
        decay, phi, prev = self._decay, self._phi, buffer.prev_source
        done = states
        blowup = None
        with np.errstate(over="raise", invalid="raise"):
            try:
                for m in range(states):
                    src = self.source(buffer, m)
                    stage = src if prev is None else 1.5 * src - 0.5 * prev
                    np.add(decay * slots[m], phi * stage, out=slots[m + 1])
                    prev = src
            except FloatingPointError:
                done, blowup = m, BlowUpError((first + m) * self.dt, first + m, math.inf)
            new = slots[1 : done + 1]
            if done:
                top = float(np.maximum.reduce(np.abs(new), axis=None))
                if not top <= self.config.blowup_threshold:  # NaN fails too
                    peaks = np.abs(new).max(axis=(1, 2, 3))
                    p = int(np.argmin(peaks <= self.config.blowup_threshold))
                    blowup = BlowUpError((first + p) * self.dt, first + p, float(peaks[p]))
                    if p:  # the source and peak of the last finished state
                        prev, top = self.source(buffer, p - 1), float(peaks[:p].max())
                    done, new = p, new[:p]
            if done:
                stack = new.transpose(1, 2, 0, 3)
                width = _span(_flush(stack)) if self._scan else None
                try:
                    values = self.transform.synthesize_values(stack, self._values[:done], width)
                except FloatingPointError:  # only near the float range
                    raise BlowUpError(first * self.dt, first, math.inf) from None
        if done:
            if record is not None:
                # |change| <= |state| + |previous state| bounds the norms' squares.
                bound = top + max(top, buffer.peak)
                rates = self.transform.weighted_l2(new - slots[:done], bound)
                record(first, values, rates / self.dt)
            births = self._births(values, first)
            buffer.coeffs, buffer.peak = slots[done], top
            buffer.births.extend(births)
            buffer.prev_source = prev
            buffer.steps += done
        if blowup is not None:
            raise blowup
        return buffer

    def integrate(self, w0) -> SimulationResult:
        n_steps = _step_count(self.config.t_end, self.dt)
        recorder = _Recorder(np.arange(n_steps + 1) * self.dt, self.grid, self.config)
        buffer = self.initialize_history(w0, recorder.record)
        # The partition depends on n_steps and the block length only.
        while buffer.steps < n_steps:
            self.step(buffer, min(self.block, n_steps - buffer.steps), recorder.record)
        return recorder.result(SpectralField(self.bases, buffer.coeffs), self.spec, self.dt)


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


def _step_count(t_end: float, dt: float, keys: str = "t_end / dt") -> int:
    """Number of dt-spaced diagnostics rows after the initial one; more than
    ``_MAX_STEPS`` raises a ``ValueError`` naming ``keys``."""
    steps = t_end / dt - 1e-9
    if not steps <= _MAX_STEPS:
        raise ValueError(f"{keys} needs more than {_MAX_STEPS:.0e} steps")
    return math.ceil(steps) if t_end else 0


class _Recorder:
    """Diagnostics rows, convergence streak and snapshots of one run whose
    rows fall at ``times``."""

    def __init__(self, times: np.ndarray, grid: DiskGrid, config: SolverConfig):
        self.n_steps = len(times) - 1
        self.grid = grid
        self.config = config
        self.rows = np.empty((5, len(times)))
        self.rows[0] = times
        self.snapshots: list = []
        self.converged_at: Optional[float] = None
        self.streak = 0

    def record(self, first: int, values: np.ndarray, rates: np.ndarray) -> None:
        """Rows ``first`` .. ``first + K - 1`` from the grid values
        (K, n_r, n_theta) of K consecutive states and their rates (K,)."""
        rows = self.rows[1:, first : first + len(values)]
        samples = values.reshape(len(values), -1)
        np.maximum.reduce(samples, axis=1, out=rows[0])
        np.minimum.reduce(samples, axis=1, out=rows[1])
        np.add.reduce(np.matmul(self.grid.area_weights, values), axis=1, out=rows[2])
        rows[3] = rates
        times, tol, every = self.rows[0], self.config.convergence_tol, self.config.snapshot_every
        for i, rate in enumerate(rates.tolist(), first):
            if i > 0:
                self.streak = self.streak + 1 if rate < tol else 0
                if self.streak >= CONVERGED_STREAK and self.converged_at is None:
                    self.converged_at = float(times[i])
            if i == 0 or i == self.n_steps or i % every == 0:
                # A copy: the caller may reuse ``values`` once the row is taken.
                field = DiskField(self.grid, values[i - first].copy())
                self.snapshots.append((float(times[i]), field))

    def result(self, final_state: SpectralField, spec: ModelSpec, dt: float) -> SimulationResult:
        # The last row is always a snapshot: its field is the final one.
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
            final_field=self.snapshots[-1][1],
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
    x = np.where(small, x, 0.0)  # the series only where it is taken: no overflow
    series = dt * (1.0 - x / 2.0 + x**2 / 6.0 - x**3 / 24.0)
    return np.where(small, series, direct)


def reference_fd(
    spec: ModelSpec, config: SolverConfig, w0, fd_n_r: int = 32, fd_n_theta: int = 24
) -> SimulationResult:
    """SimulationResult-shaped run of the FD scheme on the fd_n_r x
    fd_n_theta cell-centered mesh; it suits short cross-check horizons.

    The FD step is stability-bounded, so diagnostics are recorded on the
    requested dt cadence rather than every internal step. The transform of
    the source and the terminal projection is truncated to what the mesh
    resolves.
    """
    # Three radial cells keep at least one radial mode on the FD mesh.
    if fd_n_r < 3:
        raise ValueError("fd_n_r must be at least 3")
    if fd_n_theta < 2:
        raise ValueError("fd_n_theta must be at least 2")
    if spec.variant not in _FORCED and spec.delay != 0.0:
        raise ValueError("the reference integrator runs maturation variants only without delay")
    grid = DiskGrid.cell_centered(spec.radius, fd_n_r, fd_n_theta)
    n_records = _step_count(config.t_end, config.dt)
    dt_fd = 0.8 * fd_stability_limit(spec, grid)  # may underflow to 0; kept > 0 below
    if not max(n_records, 1) * config.dt <= _MAX_STEPS * dt_fd:
        raise ValueError(
            f"reference_fd needs more than {_MAX_STEPS:.0e} Euler steps at this diffusion "
            f"and mortality on the {grid.n_r} x {grid.n_theta} FD mesh (fd_n_r, fd_n_theta)"
        )
    inner = max(1, math.ceil(config.dt / dt_fd - 1e-12))
    dt_fd = config.dt / inner
    n_max = min(spec.n_max, (grid.n_theta - 2) // 2)
    j_max = min(spec.j_max, grid.n_r - 2)
    transform = DiskTransform(grid, build_bases(n_max, j_max, spec.radius, spec.bc))
    source = grid_source(spec, transform)

    values = DiskField.from_polar(grid, lambda r, th: w0(0.0, r, th)).values
    recorder = _Recorder(np.arange(n_records + 1) * inner * dt_fd, grid, config)
    recorder.record(0, values[None], np.zeros(1))
    for i in range(1, n_records + 1):
        for s in range((i - 1) * inner, i * inner):
            lap = spec.diffusion * fd_laplacian(values, spec, grid)
            change = lap - spec.mortality * values + source(s * dt_fd, values, values)
            previous, values = values, values + dt_fd * change
        t = i * inner * dt_fd
        peak = float(np.max(np.abs(values)))
        if not np.isfinite(peak) or peak > config.blowup_threshold:
            raise BlowUpError(t, i, peak)
        rate = math.sqrt(grid.integrate((values - previous) ** 2)) / dt_fd
        recorder.record(i, values[None], np.array([rate]))
    return recorder.result(transform.analyze(DiskField(grid, values)), spec, dt_fd)


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
    """Ghost-cell values for A dw/dr + B w = 0 at the outer face, from the
    one-sided difference and the face average: exactly -edge (Dirichlet) or
    edge (zero flux). A and B share a sign and are not both 0, so the
    denominator is not 0."""
    a, b = spec.bc.coefficients()
    return edge * ((a / dr - 0.5 * b) / (a / dr + 0.5 * b))


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
