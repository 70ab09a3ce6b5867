"""Time integration for the delayed disk models.

The spectral scheme propagates the diagonal linear part exactly,
``c <- exp(-lam dt) c``, and treats the analysed source with a two-step
Adams-Bashforth weight under the phi1 integrating factor:

    c_new = exp(-lam dt) c + phi1(lam, dt) (3/2 N_t - 1/2 N_{t-dt}),
    phi1 = (1 - exp(-lam dt)) / lam   (dt in the lam -> 0 limit).

Every source is one rule in coefficient space,

    N_t = f(t - delay) * static + births[t],

where ``static`` is the damped forcing mode of the forced variants (see
``ModelSpec.forcing_profile``) and ``births[t]`` the analysed births of
the state a birth law reads: the state at t - delay, damped per mode, for
the maturation variants, and the head itself, undamped (lag 0), for the
forced birth. So the marching state is coefficients only: the head and a
ring of the births of the last lag + 1 states, each queued as its state is
synthesised. dt is rounded down so the delay is an integer number of steps
and the lagged births are a lookup, never an interpolation. The next
lag + 1 states read only births already in the ring, so they are marched
as one block (the method of steps), with one batched synthesis and one
batched analysis of their births. At lag 0 a state's births are the next
state's source: a block synthesises each state and analyses its births as
it advances it, one state a call, and does the rest once (see ``step``).

Every coefficient array is packed (see ``transform``): one array
(n_max + 1, 2, j_max) per state, cosine and sine slots side by side. The
decay, the phi1 weight and the recruitment damping of a mode depend on its
order and index only, and are packed the same way. So a state costs one
AB2 stage and one update, and the rest is done once per block: the
blow-up test and one synthesis; one call of the diagnostics recorder with
the block's rows and its AB2 changes (one subtraction), so a diagnostic
past the float range is stored as inf with a warning; and the birth law on
chunks of the block's grid samples (as many states as fit an eighth of
``_BLOCK_BYTES``), which it overwrites, and one analysis. At lag 0 the law
runs on each state's samples as the state is advanced, and its own result
is analysed, so the samples stay for the recorder.

Blow-up is one test, ``not max|c| <= limit`` over a state's coefficients,
with limit = min(blowup_threshold, float max / packed size). It runs on
each distinct history sample and once per block, and only a block that
fails it looks for its first failing state, which is raised with its
magnitude (inf if that is not finite). NaN and inf fail it, and below it
no synthesis overflows, as |J_n|, |cos| and |sin| are at most 1. Everything
but the recorder runs with overflow and invalid operations ignored: IEEE
754 inf and NaN carry through every later sum, so births that overflow
stay in the ring as inf or NaN and fail the test at the state they enter.
A block that fails commits nothing: no diagnostics row, no births (a lag-0
block's reach the ring only once it passes) and no change to the run.

An analysis of samples of magnitude at most max|v| rounds each coefficient
by at most its rounding floor, (n_r + n_theta) eps gain_nj max|v|, with
gain_nj the analysis gain of the slot (``DiskTransform.analysis_gain``: the
coefficient scale, the radial weights' sum and the slot's sum of |cos n
theta| or |sin n theta|); below it an analysed coefficient is taken as 0.
That floor is the reflection rule. The diagonal linear part, the per-mode
damping and the pointwise birth law all commute with theta -> -theta, so a
state even in theta stays even, its births and the next state too, as long
as the static mode is even. A run is even when the sine slots of every
distinct history sample and of the analysed forcing mode lie at or below
the floor of their own analysis; every history the CLI builds is even, and
so is the forcing mode J_1(k r) cos theta. An even run stores its sine
slots as exact 0 and marches on the half circle (see ``transform``): each
state is synthesised on the first n_theta // 2 + 1 angles, the birth law
runs there, the births are analysed by the folded cosine rows, and the
recorder takes the extrema there, the population with the fold weights and
a snapshot unfolded to every angle, whose mirrored columns are then equal
bit for bit. Its blocks and chunks are sized by the half-circle state. Any
other run marches the whole circle, as if the rule were not there.

Each transform covers only a live box, the leading orders 0 .. N - 1 and
radial indices 0 .. J - 1 outside which every coefficient is at most
tol = 2^-53 / (packed size) of a reference: the dropped magnitudes sum
below 2^-53 of it, and as |J_n|, |cos| and |sin| are at most 1, so does the
change of any grid sample. The source box is set once: a static mode's
from its entries above the rounding floor (orders 0 .. 1 for the forcing
mode, which lives in order 1); the lagged births' (``full_*``, and
``radial`` at n_max = 0) from the bound damp_nj * gain_nj * max|b| on their
coefficients against survival * max|b|, which bounds the damped births'
field; every mode for the undamped forced birth. The phi1 weights and the
queued births are kept over it, the static mode over its own live box (exact
0 elsewhere), and outside the source box a mode only decays. Where it is the
whole basis no block scans, and the next two paragraphs do not apply. A
lag-0 run that scans (``full_*`` without delay where the damping underflows)
marches one state a block: its drop precedes its births.

Elsewhere a run marches only the live spectrum. Each state, the t = 0 one
included, stores as exact 0 every entry outside the source box that is
subnormal or at or below tol times the state's peak over the source box.
Nothing there feeds the source box, so a block drops them after its
updates, and an entry once dropped stays 0, exactly as if each state had
been dropped as it was advanced. A block advances its states over the
leading box ``reach``, the source box and the head's entries outside it,
and runs its AB2 stages, blow-up test, scan and rates there; ``coeffs``
keeps the packed layout, with 0 outside that box. A state's rate is summed
over the source box where the state before it lies in that box, else over
the packed layout, so it depends on those two states and not on the block.
For the recorder a block synthesises on the run grid the union of its
states' boxes, each state's against tol times that state's own peak.

A run that scans with lagged births also takes births on a births grid: a
second ``DiskTransform`` of the bases cut to the source box, on the run
grid's angles and the radial nodes ``default_grid`` picks for those bases,
built only if that is at most half the run grid's. On the same angles the
trapezoid rule aliases exactly as on the run grid, as it is exact below
degree n_theta, and the radial rule is sized to the box. A state whose
entries lie in the source box is synthesised on it over that box, and the
birth law runs and its births are analysed and damped there; every other
state, the history and the recorder keep the run grid. On the benchmark's
``full_disk_delayed`` (4224 modes) the source box is 21 orders x 7 indices,
the births grid 44 x 66 against the run grid's 194 x 66, and the blocks'
boxes are 12 x 5 by the second block and 3 x 2 by t = 5. Its outputs agree
with a march of every mode on the run grid within 4.6e-14 of each column's
scale (``dwdt_norm``; 6e-16 for the rest). The damped births, the decay
factors and, where a block scans, its stepped coefficients are stored as 0
below the smallest normal float, so no subnormal operand slows an
operation.

A lag-0 run that does not scan cuts its births' analysis at the rounding
floor (``DiskTransform.analyze_values``). In an order its AB2 stage did not
feed a state only decays: there an entry is stored as exact 0 once it is
subnormal or at or below tol times the state's peak, state by state, and the
state is synthesised over the leading orders that hold a nonzero entry.

A deliberately simple finite-difference integrator on the cell-centered
polar mesh ``DiskGrid.cell_centered`` (forward Euler, conservative
five-point Laplacian) is an independent cross-check, run by
``reference_fd``. It steps with ``model.grid_source``, the rule
``model.rhs`` wraps, built once per run, tests each recorded field with the
same blow-up test, its mesh values in place of coefficients, and refuses a
run that needs more than ``_MAX_STEPS`` Euler steps. Each scheme takes and checks its own mesh
and step count; ``SolverConfig`` holds only what both read.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bessel import BesselBasis
from .kernel import damping_factors
from .model import _FORCED, ModelSpec, grid_source, linear_rates
from .model import rhs  # noqa: F401  (bound here for tools that wrap solver.rhs)
from .transform import (
    DiskField,
    DiskGrid,
    DiskTransform,
    SpectralField,
    build_bases,
    default_grid,
    default_sizes,
)

__all__ = [
    "SolverConfig",
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
# Magnitudes below the smallest normal float are stored as 0 (see _flush
# and SpectralIntegrator._drop, which drops those at or below the largest
# subnormal).
_TINY = np.finfo(float).tiny
_SUBNORMAL = np.nextafter(_TINY, 0.0)
_FLOAT_MAX = np.finfo(float).max
_EPS = np.finfo(float).eps
# Most steps in one run or one delay: each keeps a diagnostics row or a ring entry.
_MAX_STEPS = 10**8
# record(first, values, rates) takes the diagnostics rows of a block of states.
_Record = Callable[[int, np.ndarray, np.ndarray], None]


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
        if not 0.0 <= self.t_end < math.inf:
            raise ValueError("t_end must be nonnegative and finite")
        if not isinstance(self.snapshot_every, numbers.Integral) or self.snapshot_every < 1:
            raise ValueError("snapshot_every must be an integer of at least 1")
        if not 0.0 < self.convergence_tol < math.inf:
            raise ValueError("convergence_tol must be positive and finite")
        # inf leaves only the float-range test; NaN or <= 0 would flag every state.
        if not self.blowup_threshold > 0.0:
            raise ValueError("blowup_threshold must be positive")


def resolve_time_step(dt: float, delay: float) -> tuple[float, int]:
    """Largest dt' <= dt with delay an exact multiple of dt'.

    Returns (dt', lag_steps); a zero delay keeps dt and needs no lag.
    """
    if delay == 0.0:
        return dt, 0
    lag = max(1, math.ceil(delay / dt - 1e-12))
    return delay / lag, lag


class BlowUpError(RuntimeError):
    """A state failed the blow-up test: its largest magnitude is not finite
    or is past the threshold or the float-range bound."""

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
    each state, the t = 0 one included, is synthesised once on the run grid;
    those grid values give its diagnostics row and, unless the births grid
    takes the state (see the module docstring), the births it queues.
    Steps run on packed coefficient arrays: a ``SpectralField`` is built
    only for the result's ``final_state``.

    States are marched in blocks of ``block`` (method of steps): the births
    the next lag + 1 states read are already queued, so a block advances its
    coefficients one state at a time and then tests them for blow-up,
    synthesises them, records their diagnostics rows and analyses their
    births in one call each; at lag 0 (the forced birth, and the maturation
    variants without delay) over the whole basis, each state is synthesised
    and its births taken as it is advanced, for the next state's source.
    ``block`` is the cap, a byte budget, where no birth law applies
    (``mode_forced``, whose source is known for all t) or its births are
    taken so, and else min(lag + 1, cap): 1 for a lag-0 run that scans.

    ``source_box`` is the (orders, width) box the source is kept in (see the
    module docstring); ``source`` and the queued births cover it only.

    It holds one run, which ``initialize_history`` starts and ``step``
    advances: the packed head state ``coeffs`` at time ``steps * dt``, the
    source of the step before it, ``prev_source`` (None at t = 0), and
    ``births``, the births of the last lag + 1 states over the source box,
    oldest first (empty where no birth law applies).
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
        # Below it a synthesis, a sum of at most rates.size terms, is finite.
        self._limit = min(config.blowup_threshold, _FLOAT_MAX / self.rates.size)
        # The worst-case rounding of an analysis per unit of max|values|.
        self._floor = (self.grid.n_r + self.grid.n_theta) * _EPS * self.transform.analysis_gain()
        # The birth law (None for mode_forced), the steps its births lag the
        # source and their per-mode damping (None: undamped); the analysed
        # fixed mode of the source, the damped forcing mode that
        # f(t - delay) scales (None: the source has no fixed mode), and its
        # entries above the rounding floor.
        self._birth, self._forcing, forcing_live = spec.birth, None, None
        if spec.variant in _FORCED:  # the forced birth reads the head: lag 0, undamped
            self._birth_lag, self._birth_damp = 0, None
            profile = spec.forcing_profile(self.grid)
            self._forcing = self.transform.analyze_values(profile)
            forcing_live = self._live(self._forcing, profile)
        else:
            self._birth_lag = self.lag_steps
            self._birth_damp = damping_factors(self.bases, spec.survival, spec.spread)
        self._even_forcing = forcing_live is None or not forcing_live[:, 1].any()
        self._set_source_box(forcing_live)
        # Lag-0 births over the whole basis, taken in the state loop (``step``)
        # and cut at the rounding floor (``analyze_values``).
        self._inline = self._birth is not None and not (self._birth_lag or self._scan)
        self._births_box = (None, self.source_box[1]) if self._inline else self.source_box
        self._set_births_grid()
        self._samples = np.empty(0)
        self._march_on(self.grid.n_theta)

    def _live(self, coeffs: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Mask of the packed analysis ``coeffs`` of ``values`` that lies
        above the analysis' own rounding floor, (n_r + n_theta) eps
        gain_nj max|values|; the entries below it are rounding."""
        return np.abs(coeffs) > self._floor * np.maximum.reduce(np.abs(values), axis=None)

    def _march_on(self, angles: int) -> None:
        """March on the first ``angles`` grid angles: the whole circle, or
        the half circle of an even run. A state there sizes the blocks and
        the block's sample buffers, on the run grid and the births grid; the
        source's static mode is the forcing mode, without its sine slots on
        the half circle."""
        state_bytes = self.grid.n_r * angles * 8
        cap = max(1, _BLOCK_BYTES // (2 * state_bytes))
        self.block = cap if self._birth is None or self._inline else min(self._birth_lag + 1, cap)
        # Grid samples of one block on the run grid and, after them, on the
        # births grid, reused: the birth law overwrites them (but for lag-0
        # births, see ``step``). One buffer, grown on demand, serves both circles.
        births_grid = self._births_transform and self._births_transform.grid
        run = self.block * self.grid.n_r * angles
        size = run + (births_grid.n_r * angles * self.block if births_grid else 0)
        if self._samples.size < size:
            self._samples = np.empty(size)
        self._values = self._samples[:run].reshape(self.block, self.grid.n_r, angles)
        if births_grid:
            self._births_values = self._samples[run:size].reshape(self.block, births_grid.n_r, angles)
        self._static = self._forcing
        if self._forcing is not None and angles != self.grid.n_theta:
            self._static = self._forcing.copy()
            self._static[:, 1] = 0.0

    def _set_source_box(self, forcing_live: np.ndarray | None) -> None:
        """Keep the source in its live box (see the module docstring): the
        static mode, the births' damping and the phi1 weights are cut to it
        once, and a block scans its states only where the box is not full."""
        # Dropped magnitudes, summed over every packed entry, stay below
        # 2^-53 of their reference.
        self._tol = 2.0**-53 / self.rates.size
        full = (self.spec.n_max + 1, self.spec.j_max)
        boxes = []
        if forcing_live is not None:
            boxes.append(_box(forcing_live))
        if self._birth_damp is not None:
            # A birth mode's coefficient is at most damp * gain * max|b|, and
            # survival * max|b| bounds the damped births' field.
            unit = damping_factors(self.bases, 1.0, self.spec.spread)
            boxes.append(_box(unit * self.transform.analysis_gain() > self._tol))
        elif self._birth is not None:
            boxes.append(full)
        self.source_box = tuple(max(sizes) for sizes in zip(*boxes))
        orders, width = self.source_box
        self._full = full
        self._scan = self.source_box != full
        self._cut = np.s_[:orders, :, :width]
        self._phi_box = self._phi[self._cut].copy()
        if self._forcing is not None:  # over its own live box; the rest is rounding
            own_orders, own_width = _box(forcing_live)
            self._forcing[own_orders:], self._forcing[..., own_width:] = 0.0, 0.0
            self._forcing = self._forcing[self._cut].copy()
        if self._birth_damp is not None:
            self._birth_damp = self._birth_damp[:orders, :, None, :width].copy()

    def _set_births_grid(self) -> None:
        """Build the births grid of a run that scans with lagged births: a
        ``DiskTransform`` of the bases cut to the source box, on the run
        grid's angles and the radial nodes ``default_grid`` picks for those
        bases, kept only if that is at most half the run grid's.

        The trapezoid rule on the run grid's angles aliases the births of a
        state in the source box exactly as the run grid does, and the
        radial rule is sized to that box."""
        self._births_transform = None
        if not self._scan or self._birth_damp is None:
            return
        orders, width = self.source_box
        cut = tuple(
            BesselBasis(b.order, b.radius, b.bc, b.eigenvalues[:width], b.norms[:width])
            for b in self.bases[:orders]
        )
        n_r, n_theta = default_sizes(cut, 0, self.grid.n_theta)
        if 2 * n_r <= self.grid.n_r:
            grid = DiskGrid.gauss_legendre(self.spec.radius, n_r, n_theta)
            self._births_transform = DiskTransform(grid, cut)

    def _drop(self, stack: np.ndarray, size: np.ndarray) -> np.ndarray:
        """Store as exact 0 each entry outside the source box of a
        state-first stack (K, orders, 2, width) of consecutive states over a
        leading box, magnitudes ``size``, from the first state where it is
        subnormal or at or below tol times that state's peak over the source
        box. Outside that box a mode only decays, and the box does not read
        it, so an entry once dropped stays 0 and each drop is the one a
        single state would take. Returns the mask of the entries kept there.
        """
        orders, width = self.source_box
        peaks = size[:, :orders, :, :width].max(axis=(1, 2, 3), initial=0.0)
        kept = size > np.maximum(self._tol * peaks, _SUBNORMAL)[:, None, None, None]
        kept[:, :orders, :, :width] = False
        np.logical_and.accumulate(kept, axis=0, out=kept)
        dropped = ~kept
        dropped[:, :orders, :, :width] = False
        stack[dropped] = 0.0
        return kept

    def _hold(self, state: np.ndarray, stage: np.ndarray, held: int) -> int:
        """The leading orders of a lag-0 ``state`` that hold a nonzero entry once it
        takes its drop, given its AB2 ``stage`` and ``held``, the last state's."""
        fed = _orders(stage)
        if held <= fed:
            return fed
        tail = state[fed:held]
        peak = np.maximum.reduce(np.abs(state), axis=None)
        tail[np.abs(tail) <= max(self._tol * peak, _SUBNORMAL)] = 0.0
        return fed + _orders(tail)

    def initialize_history(
        self, w0: Callable[[float, np.ndarray, np.ndarray], np.ndarray], record: _Record | None = None
    ) -> None:
        """Start the run from w0(t, r, theta), replacing any earlier one
        unless a sample fails the blow-up test: analyse w0 at t = 0 and queue
        the births of the history the birth law reads; ``record(0, values,
        rates)``, if given, takes the grid values (1, n_r, angles) of the
        analysed t = 0 state and its rate, 0.

        Only a lagged birth law reads past states, so only then is w0 sampled
        before t = 0, at t = i dt for i = -lag_steps .. 0. A run of equal
        samples is one state, analysed once and tested for blow-up; once
        every sample is analysed the reflection rule (see the module
        docstring) picks the circle the run marches on, and each state is
        synthesised there at most once and its births queued.
        """
        r, th = self.grid.mesh()
        runs = []  # (first step, packed stack) of each run of equal samples
        even, sample = self._even_forcing, None
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(-self._birth_lag, 1):
                raw = w0(i * self.dt, r, th)
                # Samples that broadcast to the same grid values are one state.
                if sample is not None and (sample == raw).all():
                    continue
                sample = np.array(raw, dtype=float)  # a copy: w0 may reuse its array
                values = DiskField(self.grid, sample + np.zeros_like(r)).values
                stack = self.transform.analyze_values(values[None])
                _test(np.abs(stack.transpose(2, 0, 1, 3)), self._limit, i, self._time)
                even = even and not self._live(stack[:, :, 0], values)[:, 1].any()
                runs.append((i, stack))
        self._march_on(self.grid.half_angles if even else self.grid.n_theta)
        births = deque(maxlen=self._birth_lag + 1)
        ends = [first for first, _ in runs[1:]] + [1]
        for (first, stack), end in zip(runs, ends):
            if even:
                stack[:, 1] = 0.0
            # Only a birth law or the recorder reads a state's grid values;
            # without a law the history is the t = 0 state.
            if self._birth is not None or record is not None:
                with np.errstate(over="ignore", invalid="ignore"):
                    values = self.transform.synthesize_values(stack, self._values[:1])
            if end == 1 and record is not None:
                record(0, values, np.zeros(1))
            births.extend(self._births(values, self.transform) * (end - first))
        coeffs, reach = stack[:, :, 0], self._full
        if self._scan:  # the t = 0 state takes the stepped states' drop
            reach = _union(self.source_box, _box(self._drop(coeffs[None], np.abs(coeffs)[None])))
        self.coeffs, self.births, self.steps, self.prev_source = coeffs, births, 0, None
        # The leading orders the head holds, which a lag-0 block starts from.
        self._reach, self._held = reach, _orders(coeffs)

    def _births(self, values: np.ndarray, transform: DiskTransform) -> list:
        """Packed birth coefficients, one per state, that each adds to the
        source once the birth law reads its state; empty where no birth law
        applies.

        ``values`` are the states' grid samples (K, n_r, n_theta) on the
        grid of ``transform``, which the birth law overwrites, as many
        states per call as fit an eighth of ``_BLOCK_BYTES``. Births that
        overflow are returned as inf or NaN: they fail the blow-up test at
        the state they enter.
        """
        if self._birth is None:
            return []
        chunk = max(1, _BLOCK_BYTES // 8 // (values.nbytes // len(values)))
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, len(values), chunk):
                part = values[lo : lo + chunk]
                part[...] = self._birth(part)
            return list(self._analyse_births(values, transform).transpose(2, 0, 1, 3))

    def _analyse_births(self, samples: np.ndarray, transform: DiskTransform) -> np.ndarray:
        """The packed stack of births of the birth law's ``samples`` on the
        grid of ``transform``: analysed over the source box, then damped."""
        births = transform.analyze_values(samples, self._births_box)
        if self._birth_damp is not None:
            births *= self._birth_damp
            _flush(births)
        return births

    def _time(self, step: int) -> float:
        return step * self.dt

    def source(self, ahead: int = 0) -> np.ndarray:
        """Packed source coefficients at the head time plus ``ahead`` steps,
        over the source box (orders, 2, width) only: f(t - delay) * static +
        births[ahead], each term where it applies."""
        if self._static is None:
            return self.births[ahead]
        src = self.spec.forcing_value((self.steps + ahead) * self.dt) * self._static
        if self._birth is not None:
            src += self.births[ahead]
        return src

    def step(self, states: int = 1, record: _Record | None = None) -> None:
        """Advance the run ``states`` dt steps (at most ``block``) past the
        head; the first step of a run uses the one-step Euler weights.

        State m is step ``steps + 1 + m``. The states are advanced in order
        over the leading box ``reach`` (see the module docstring: the whole
        basis where no block scans), outside which every state is 0; at lag
        0 without a scan each takes its drop, is synthesised over its live
        orders and has its births, cut at the rounding floor, queued for
        ``source(m + 1)`` as it is advanced. They then take the blow-up test
        together; a block that fails it raises at its first failing state
        and leaves the run, its ring too, as it was. Otherwise, where
        ``reach`` passes the source box, they take their drop; any not yet
        synthesised are, on the run grid in one call; they are passed to
        ``record(first, values, rates)`` as one block of diagnostics rows;
        births not yet taken are taken on the births grid for the states
        that lie in the source box and on the run grid for the rest; and the
        run takes them.
        """
        if not 1 <= states <= self.block:
            raise ValueError(f"states must lie in [1, {self.block}]")
        first, source_box = self.steps + 1, self.source_box
        orders, width = reach = self._reach
        confined = reach == source_box
        # Slot 0 holds the head and slot m + 1 state m over ``reach``, each
        # contiguous, so the AB2 changes are one subtraction.
        slots = np.empty((states + 1, orders, 2, width))
        head, decay, phi, cut = self.coeffs, self._decay, self._phi_box, self._cut
        if reach != self._full:
            # A contiguous operand keeps the per-state update on numpy's fast loop.
            head, decay = head[:orders, :, :width], np.ascontiguousarray(decay[:orders, :, :width])
        slots[0] = head
        prev, new, ring, held = self.prev_source, slots[1:], self.births, self._held
        if self._inline:  # source(m + 1) reads the births of state m
            self.births = list(ring)
        ab2, term = np.empty((2,) + phi.shape)  # the stage and its phi1 term, reused
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                for m in range(states):
                    src = self.source(m)
                    stage = src
                    if prev is not None:
                        stage = np.multiply(src, 1.5, out=ab2)
                        stage -= np.multiply(prev, 0.5, out=term)
                    state = slots[m + 1]
                    np.multiply(decay, slots[m], state)
                    # Outside the source box a mode only decays.
                    box = state if confined else state[cut]
                    box += np.multiply(phi, stage, out=term)
                    prev = src
                    if self._inline:  # its live orders; the recorder reads the law's samples
                        held = self._hold(state, stage, held)
                        values = self._values[m : m + 1]
                        self.transform.synthesize_values(state, values, (held, width))
                        born = self._analyse_births(self._birth(values), self.transform)
                        self.births.append(born[:, :, 0])
                magnitude = np.abs(new)
                _test(magnitude, self._limit, first, self._time)
            finally:  # the ring takes a lag-0 block's births once the block passes
                births, self.births = self.births[len(ring) :] if self._inline else [], ring
            outside, live, next_reach = 0, None, reach
            if not confined:
                # A state that keeps an entry outside the source box follows
                # only such states: they lead the block, ``outside`` of them.
                kept = self._drop(new, magnitude)
                outside = int(np.count_nonzero(kept.any(axis=(1, 2, 3))))
                next_reach = _union(source_box, _box(kept[-1]))
                magnitude = np.abs(new)
            if self._scan:  # each state's box against its own peak
                new[magnitude < _TINY] = 0.0
                peaks = magnitude.max(axis=(1, 2, 3), keepdims=True)
                live = _box(magnitude > self._tol * peaks)
            values = self._values[:states]
            if not self._inline:
                self.transform.synthesize_values(new.transpose(1, 2, 0, 3), values, live)
        if record is not None:
            # A state's rate is summed over the source box where the state
            # before it lies in that box, else over the whole packed layout.
            # Every state passed the test, so |change| <= 2 limit.
            change, bound = new - slots[:states], 2 * self._limit
            if confined:  # ``change`` is over the source box
                rates = self.transform.weighted_l2(change, bound)
            else:  # the head lies outside the box, and so do ``outside`` states
                wide = min(states, outside + 1)
                whole = np.zeros((wide,) + self.rates.shape)
                whole[:, :orders, :, :width] = change[:wide]
                rates = [self.transform.weighted_l2(whole, bound)]
                if wide < states:
                    rates.append(self.transform.weighted_l2(change[(np.s_[wide:],) + cut], bound))
                rates = np.concatenate(rates)
            record(first, values, rates / self.dt)
        # The leading states whose births take the run grid, if not taken yet.
        on_run = states if self._births_transform is None else outside
        if on_run and not self._inline:
            births = self._births(values if on_run == states else values[:on_run], self.transform)
        if on_run < states:
            inner = new[(np.s_[on_run:],) + cut].transpose(1, 2, 0, 3)
            births_values = self._births_values[: states - on_run]
            self._births_transform.synthesize_values(inner, births_values)
            births += self._births(births_values, self._births_transform)
        self.births.extend(births)
        coeffs = slots[states]
        if reach != self._full:
            coeffs = np.zeros(self.rates.shape)
            coeffs[:orders, :, :width] = slots[states]
        self.coeffs, self.prev_source, self.steps = coeffs, prev, self.steps + states
        self._reach, self._held = next_reach, held

    def integrate(self, w0) -> SimulationResult:
        """Run w0 to t_end: ``initialize_history`` and then blocks of ``step``."""
        n_steps = _step_count(self.config.t_end, self.dt)
        recorder = _Recorder(np.arange(n_steps + 1) * self.dt, self.grid, self.config)
        self.initialize_history(w0, recorder.record)
        # The partition depends on n_steps and the block length only.
        while self.steps < n_steps:
            self.step(min(self.block, n_steps - self.steps), recorder.record)
        return recorder.result(SpectralField(self.bases, self.coeffs), self.spec, self.dt)


def _flush(coeffs: np.ndarray) -> np.ndarray:
    """Set the subnormal entries of ``coeffs`` to 0 in place and return it.

    On x86 an arithmetic operation on a subnormal operand can take a
    hundred times longer than on a normal one, and so small a term changes
    no sum it enters.
    """
    coeffs[np.abs(coeffs) < _TINY] = 0.0
    return coeffs


def _test(magnitude: np.ndarray, limit: float, first: int, time: Callable[[int], float]) -> None:
    """The blow-up test of a state-first stack of magnitudes (K, ...), state
    m at step ``first + m`` and time ``time(first + m)``: one comparison of
    its maximum with ``limit``, which NaN fails too. Only past it is the first
    failing state located; it is raised with its magnitude, or inf if that is
    not finite."""
    if np.maximum.reduce(magnitude, axis=None) <= limit:
        return
    peaks = magnitude.reshape(len(magnitude), -1).max(axis=1)
    p = int(np.argmin(peaks <= limit))
    peak = float(peaks[p])
    raise BlowUpError(time(first + p), first + p, peak if peak < math.inf else math.inf)


def _union(box: tuple[int, int], other: tuple[int, int]) -> tuple[int, int]:
    """The least leading box that holds both boxes."""
    return max(box[0], other[0]), max(box[1], other[1])


def _orders(coeffs: np.ndarray) -> int:
    """The leading orders of a packed array (orders, 2, width) that hold
    every nonzero entry, NaN included."""
    nonzero = coeffs.reshape(-1) != 0.0
    last = nonzero.size - 1 - int(nonzero[::-1].argmax())
    return last // (nonzero.size // len(coeffs)) + 1 if nonzero[last] else 0


def _box(live: np.ndarray) -> tuple[int, int]:
    """The leading (orders, width) box that holds every True entry of a
    packed mask (orders, 2, width), or of a state-first stack of them
    (K, orders, 2, width); (0, 0) if there is none."""
    n1, _, j_max = live.shape[-3:]
    rows = live.reshape(-1, n1, 2 * j_max).any(axis=0).reshape(n1, 2, j_max).any(axis=1)
    orders, width = np.flatnonzero(rows.any(axis=1)), np.flatnonzero(rows.any(axis=0))
    return (int(orders[-1]) + 1, int(width[-1]) + 1) if orders.size else (0, 0)


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
        self._fold = grid.fold_weights()
        self.config = config
        self.rows = np.empty((5, len(times)))
        self.rows[0] = times
        self.snapshots: list = []
        self.converged_at: Optional[float] = None
        self.streak = 0

    def record(self, first: int, values: np.ndarray, rates: np.ndarray) -> None:
        """Rows ``first`` .. ``first + K - 1`` from the grid values
        (K, n_r, n_theta) of K consecutive states and their rates (K,), or
        from their values on the half circle (K, n_r, half_angles) if the
        states are even in theta: the rest of the circle mirrors them, so
        the extrema are the same, the population takes the fold weights and
        a snapshot is unfolded to every angle."""
        rows = self.rows[1:, first : first + len(values)]
        samples = values.reshape(len(values), -1)
        np.maximum.reduce(samples, axis=1, out=rows[0])
        np.minimum.reduce(samples, axis=1, out=rows[1])
        sums = np.matmul(self.grid.area_weights, values)
        whole = values.shape[-1] == self.grid.n_theta
        if whole:
            np.add.reduce(sums, axis=1, out=rows[2])
        else:  # one dot a row, as in ``weighted_l2``: the same bits in any block
            np.matmul(sums[:, None, :], self._fold[:, None], out=rows[2, :, None, None])
        rows[3] = rates
        times, tol, every = self.rows[0], self.config.convergence_tol, self.config.snapshot_every
        for i, rate in enumerate(rates.tolist(), first):
            if i > 0:
                self.streak = self.streak + 1 if rate < tol else 0
                if self.streak >= CONVERGED_STREAK and self.converged_at is None:
                    self.converged_at = float(times[i])
            if i == 0 or i == self.n_steps or i % every == 0:
                # A copy: the caller may reuse ``values`` once the row is taken.
                state = values[i - first]
                field = DiskField(self.grid, state.copy() if whole else self.grid.unfold(state))
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
    requested dt cadence rather than every internal step, and each recorded
    field takes the blow-up test (see ``_test``). The transform of
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
    # The spectral scheme's limit, with the mesh values as the state.
    limit = min(config.blowup_threshold, _FLOAT_MAX / values.size)
    recorder.record(0, values[None], np.zeros(1))
    for i in range(1, n_records + 1):
        for s in range((i - 1) * inner, i * inner):
            lap = spec.diffusion * fd_laplacian(values, spec, grid)
            change = lap - spec.mortality * values + source(s * dt_fd, values, values)
            previous, values = values, values + dt_fd * change
        _test(np.abs(values)[None], limit, i, lambda step: step * inner * dt_fd)
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
