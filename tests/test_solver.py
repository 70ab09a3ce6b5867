import dataclasses
import math
from collections import deque

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq
from scipy.special import jv, lambertw

from diskrd.bessel import BesselBasis, BoundaryCondition, find_eigenvalues
from diskrd.model import Identity, Logistic, ModelSpec, ModeSeed, RickerQuadratic, Variant, rhs
from diskrd import solver
from diskrd.kernel import damping_factors
from diskrd.transform import DiskField, DiskGrid, DiskTransform, SpectralField, build_bases
from diskrd.solver import (
    BlowUpError,
    SolverConfig,
    SpectralIntegrator,
    fd_laplacian,
    fd_stability_limit,
    reference_fd,
    resolve_time_step,
)

from oracles import bessel_zero

ZERO_FLUX = BoundaryCondition.zero_flux()
DIRICHLET = BoundaryCondition.dirichlet()


def forced_spec(**kw):
    base = dict(
        variant=Variant.MODE_FORCED,
        diffusion=5.0,
        mortality=0.01,
        survival=0.1,
        spread=0.1,
        delay=1.0,
        radius=1.0,
        bc=ZERO_FLUX,
        forcing=lambda t: 1.0,
        forcing_mode_k=3.8317,
        n_max=4,
        j_max=6,
    )
    base.update(kw)
    return ModelSpec(**base)


def patch_w0(t, r, th):
    x = r * np.cos(th)
    y = r * np.sin(th)
    return 0.2 + 0.02 * np.sin(3 * x) * np.cos(2 * y)


class TestSolverConfig:
    """Each scheme checks its own mesh and its step count at the dt it steps with."""

    def test_fd_mesh_needs_three_radial_cells(self):
        # Two cells leave the FD-mesh transform no radial mode at all.
        config = SolverConfig(dt=0.01, t_end=0.01)
        with pytest.raises(ValueError, match="fd_n_r"):
            reference_fd(forced_spec(), config, patch_w0, fd_n_r=2)
        assert reference_fd(forced_spec(), config, patch_w0, fd_n_r=3).grid.n_r == 3

    @pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0])
    def test_dt_must_be_positive_and_finite(self, dt):
        # An infinite dt would be rounded down to the delay, a NaN one fail
        # in the rounding without naming dt.
        with pytest.raises(ValueError, match="dt"):
            SolverConfig(dt=dt)

    @pytest.mark.parametrize(
        "run",
        [
            lambda spec, config: SpectralIntegrator(spec, config),
            lambda spec, config: reference_fd(spec, config, patch_w0),
        ],
        ids=["spectral", "reference_fd"],
    )
    def test_more_than_1e8_steps_is_rejected(self, run):
        with pytest.raises(ValueError, match="t_end"):
            run(forced_spec(delay=0.0), SolverConfig(dt=1e-3, t_end=2e5))


class TestResolveTimeStep:
    def test_exact_divisor_kept(self):
        assert resolve_time_step(0.25, 1.0) == (0.25, 4)

    def test_rounds_down(self):
        dt, lag = resolve_time_step(0.03, 1.0)
        assert lag == 34
        assert dt == pytest.approx(1.0 / 34.0)
        assert dt <= 0.03

    def test_zero_delay(self):
        assert resolve_time_step(0.01, 0.0) == (0.01, 0)


class TestInitializeHistory:
    def test_zero_history(self):
        ig = SpectralIntegrator(forced_spec(), SolverConfig(dt=0.1, t_end=1.0))
        buf = ig.initialize_history(lambda t, r, th: np.zeros_like(r))
        assert not np.any(buf.coeffs)

    def test_constant_patch_fills_identical_states(self):
        spec = forced_spec(variant=Variant.FULL_ZERO_FLUX, birth=RickerQuadratic(0.25, 0.1))
        ig = SpectralIntegrator(spec, SolverConfig(dt=0.1, t_end=1.0))
        buf = ig.initialize_history(patch_w0)
        assert len(buf.births) == 11
        for births in buf.births:
            assert np.array_equal(births, buf.births[-1])
        # Zero-flux: the constant mode carries the 0.2 mean of the patch.
        assert buf.coeffs[0, 0, 0] == pytest.approx(0.2, abs=1e-10)

    def test_single_mode_history(self):
        ig = SpectralIntegrator(forced_spec(), SolverConfig(dt=0.1, t_end=1.0))
        k = ig.bases[0].eigenvalues[1]
        buf = ig.initialize_history(lambda t, r, th: jv(0, k * r))
        assert buf.coeffs[0, 0, 1] == pytest.approx(1.0, abs=1e-10)
        rest = buf.coeffs.copy()
        rest[0, 0, 1] = 0.0
        assert np.max(np.abs(rest)) < 1e-8

    def test_time_varying_history(self):
        # Identity births, all surviving and undamped: the births queued
        # for the head time are the history at t = -delay.
        spec = forced_spec(
            variant=Variant.FULL_ZERO_FLUX, birth=Identity(), survival=1.0, spread=0.0, delay=0.5
        )
        ig = SpectralIntegrator(spec, SolverConfig(dt=0.25, t_end=1.0))
        buf = ig.initialize_history(lambda t, r, th: np.exp(t) * np.ones_like(r))
        assert buf.births[0][0, 0, 0] == pytest.approx(np.exp(-0.5), abs=1e-10)
        assert buf.coeffs[0, 0, 0] == pytest.approx(1.0, abs=1e-10)


class TestStep:
    def test_phi1_takes_the_series_only_where_it_is_small(self):
        # A huge rate overflows the series' square, which is discarded there;
        # the series entries are the plain series, bit for bit.
        lam, dt = np.array([1e300, 5.0, 1e-3, 0.0]), 0.01
        got = solver._phi1(lam, dt)  # RuntimeWarnings fail the suite
        x = lam[2:] * dt
        assert np.array_equal(got[2:], dt * (1.0 - x / 2.0 + x**2 / 6.0 - x**3 / 24.0))
        assert got[0] == 1e-300 and got[1] == pytest.approx(-np.expm1(-0.05) / 5.0, rel=1e-14)

    def test_decay_past_the_float_range_is_zero(self):
        # diffusion * k^2 is finite, but its product with dt overflows: the
        # mode decays to 0 in one step, with no warning.
        spec = forced_spec(diffusion=1e305, delay=0.0)
        ig = SpectralIntegrator(spec, SolverConfig(dt=100.0, t_end=200.0))
        over = ig.rates > np.finfo(float).max / ig.dt
        assert over.any() and np.all(np.isfinite(ig.rates))
        assert np.all(ig._decay[over] == 0.0)
        assert np.array_equal(ig._phi[over], 1.0 / ig.rates[over])
        assert np.all(np.isfinite(ig.integrate(patch_w0).max_density))

    def test_pure_linear_mode_exact_propagation(self):
        spec = forced_spec(forcing=lambda t: 0.0, delay=0.0)
        config = SolverConfig(dt=0.5, t_end=10.0, snapshot_every=10)
        ig = SpectralIntegrator(spec, config)
        k = ig.bases[1].eigenvalues[0]
        lam = spec.diffusion * k**2 + spec.mortality
        buf = ig.initialize_history(lambda t, r, th: jv(1, k * r) * np.cos(th))
        c0 = buf.coeffs[1, 0, 0]
        for s in range(1, 21):
            ig.step(buf)
            expected = np.exp(-lam * s * 0.5) * c0
            # Exponential integrator: exact per-mode decay for any dt.
            assert buf.coeffs[1, 0, 0] == pytest.approx(expected, rel=1e-12)

    def test_zero_state_is_fixed_point(self):
        spec = forced_spec(
            variant=Variant.MODE_FORCED_BIRTH,
            forcing=lambda t: 0.0,
            birth=RickerQuadratic(0.25, 0.1),
        )
        ig = SpectralIntegrator(spec, SolverConfig(dt=0.05, t_end=1.0))
        buf = ig.initialize_history(lambda t, r, th: np.zeros_like(r))
        for s in range(10):
            ig.step(buf)
        assert not np.any(buf.coeffs)

    def test_blowup_detection(self):
        spec = forced_spec(forcing=lambda t: 1e20)
        ig = SpectralIntegrator(spec, SolverConfig(dt=0.01, t_end=1.0))
        buf = ig.initialize_history(lambda t, r, th: np.zeros_like(r))
        with pytest.raises(BlowUpError):
            for s in range(50):
                ig.step(buf)

    def test_delayed_eigenmode_amplitude_in_source(self):
        # Exponentially growing single-mode history: the source must carry
        # the lagged amplitude exp(-sigma tau) A(t) when survival is one
        # and no smoothing is applied.
        sigma, tau = 0.3, 0.5
        spec = forced_spec(
            variant=Variant.FULL_ZERO_FLUX,
            birth=Identity(),
            survival=1.0,
            spread=0.0,
            delay=tau,
        )
        ig = SpectralIntegrator(spec, SolverConfig(dt=0.05, t_end=1.0))
        tr = ig.transform
        k = ig.bases[0].eigenvalues[1]

        def w0(t, r, th):
            return np.exp(sigma * t) * jv(0, k * r)

        buf = ig.initialize_history(w0)
        lagged = tr.analyze(DiskField.from_polar(ig.grid, lambda r, th: w0(-tau, r, th)))
        head = SpectralField(ig.bases, buf.coeffs)
        _, source = rhs(buf.steps * ig.dt, head, tr.synthesize(lagged), spec, tr)
        expected = np.exp(-sigma * tau) * buf.coeffs[0, 0, 1]
        assert tr.analyze_values(source.values)[0, 0, 1] == pytest.approx(expected, abs=1e-9)
        assert ig.source(buf)[0, 0, 1] == pytest.approx(expected, abs=1e-9)


def drifting_patch(t, r, th):
    """Non-radial, time-dependent history, so head and lagged states differ."""
    return (1.0 + 0.5 * t) * patch_w0(t, r, th) + 0.05 * r * np.sin(th)


SEED = ModeSeed(amplitude=lambda t: 1.0 + 0.3 * np.sin(2.0 * t), mode_k=3.8317)

SOURCE_CASES = {
    "mode_forced": dict(variant=Variant.MODE_FORCED, forcing=lambda t: 1.0 + 0.5 * t),
    "mode_forced_birth": dict(
        variant=Variant.MODE_FORCED_BIRTH, birth=RickerQuadratic(0.25, 0.1)
    ),
    "full_zero_flux": dict(variant=Variant.FULL_ZERO_FLUX, birth=RickerQuadratic(0.25, 0.1)),
    "full_dirichlet": dict(
        variant=Variant.FULL_DIRICHLET, bc=DIRICHLET, birth=RickerQuadratic(0.25, 0.1)
    ),
    "full_zero_flux_seed": dict(variant=Variant.FULL_ZERO_FLUX, birth=SEED),
    "full_dirichlet_seed": dict(variant=Variant.FULL_DIRICHLET, bc=DIRICHLET, birth=SEED),
    "radial": dict(variant=Variant.RADIAL, bc=DIRICHLET, birth=RickerQuadratic(0.25, 0.1), n_max=0),
}


class TestCoefficientSource:
    """The coefficient-space source against the grid round trip through rhs."""

    @staticmethod
    def integrator(case):
        spec = forced_spec(delay=0.2, **SOURCE_CASES[case])
        return SpectralIntegrator(spec, SolverConfig(dt=0.05, t_end=1.0))

    @pytest.mark.parametrize("case", sorted(SOURCE_CASES))
    def test_matches_grid_round_trip(self, case):
        ig = self.integrator(case)
        buf = ig.initialize_history(drifting_patch)
        tr = ig.transform
        # The integrator keeps no past states, so the test keeps them: the
        # history at t = i dt, i = -lag_steps .. 0, then each stepped head.
        r, th = ig.grid.mesh()
        states = deque(
            (tr.analyze_values(drifting_patch(i * ig.dt, r, th)) for i in range(-ig.lag_steps, 1)),
            maxlen=ig.lag_steps + 1,
        )
        # Check on the history, then once the lagged state is a stepped one.
        for s in range(7):
            if s in (0, 6):
                lagged = DiskField(ig.grid, tr.synthesize_values(states[0]))
                head = SpectralField(ig.bases, buf.coeffs)
                _, field = rhs(buf.steps * ig.dt, head, lagged, ig.spec, tr)
                expected = tr.analyze_values(field.values)
                scale = np.max(np.abs(expected))
                assert np.max(np.abs(ig.source(buf) - expected)) <= 1e-12 * scale
            ig.step(buf)
            states.append(buf.coeffs)

    @pytest.mark.parametrize(
        "case, analyses",
        [
            ("mode_forced", 0),
            ("mode_forced_birth", 1),
            ("full_zero_flux", 1),
            ("full_dirichlet", 1),
            ("full_zero_flux_seed", 0),
            ("full_dirichlet_seed", 0),
            ("radial", 1),
        ],
    )
    def test_transforms_per_step(self, monkeypatch, case, analyses):
        # Steps run on raw coefficient arrays: no SpectralField is built.
        ig = self.integrator(case)
        assert ig.block > 1 or case == "mode_forced_birth"
        buf = ig.initialize_history(patch_w0)
        counts = {"analyze": 0, "synthesize": 0, "radial_table": 0, "spectral_field": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for owner, attr, name in (
            (DiskTransform, "analyze_values", "analyze"),
            (DiskTransform, "synthesize_values", "synthesize"),
            (BesselBasis, "radial_table", "radial_table"),
            (SpectralField, "__post_init__", "spectral_field"),
        ):
            monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))
        for s in range(1, 6):
            ig.step(buf)
        # A whole block costs what one state does: one stacked call each.
        ig.step(buf, ig.block)
        assert counts == {
            "analyze": 6 * analyses,
            "synthesize": 6,
            "radial_table": 0,
            "spectral_field": 0,
        }

    @pytest.mark.parametrize("case", sorted(SOURCE_CASES))
    def test_order_zero_sine_slot_stays_zero(self, case):
        # sin(0 theta) = 0: the packed slot is not a mode and is never filled.
        ig = self.integrator(case)
        buf = ig.initialize_history(drifting_patch)
        assert np.all(buf.coeffs[0, 1] == 0.0)
        for s in range(1, 51):
            ig.step(buf)
        assert np.all(buf.coeffs[0, 1] == 0.0)
        assert all(np.all(births[0, 1] == 0.0) for births in buf.births)

    @staticmethod
    def count_analyses(monkeypatch):
        calls = []
        original = DiskTransform.analyze_values

        def counting(self, values, width=None):
            calls.append(1)
            return original(self, values, width)

        monkeypatch.setattr(DiskTransform, "analyze_values", counting)
        return calls

    def test_constant_history_is_analysed_once(self, monkeypatch):
        ig = self.integrator("full_zero_flux")
        calls = self.count_analyses(monkeypatch)
        buf = ig.initialize_history(patch_w0)
        # One analysis of the state, one of its births, for all five samples.
        assert len(calls) == 2
        assert len(buf.births) == ig.lag_steps + 1

    def test_forced_history_samples_only_t0(self, monkeypatch):
        # The forced source reads no past state, so a time-varying history
        # is sampled once, at t = 0, and analysed once.
        ig = self.integrator("mode_forced")
        assert ig.lag_steps == 4
        calls = self.count_analyses(monkeypatch)
        times = []

        def w0(t, r, th):
            times.append(t)
            return drifting_patch(t, r, th)

        ig.initialize_history(w0)
        assert times == [0.0] and len(calls) == 1

    @pytest.mark.parametrize("case", sorted(SOURCE_CASES))
    def test_births_queued_only_where_the_source_reads_them(self, case):
        ig = self.integrator(case)
        # The lagged births of the last lag_steps + 1 states; the forced
        # birth reads the head's own births (lag 0); no law, no births.
        reads_lagged = case in ("full_zero_flux", "full_dirichlet", "radial")
        expected = ig.lag_steps + 1 if reads_lagged else int(case == "mode_forced_birth")
        buf = ig.initialize_history(drifting_patch)
        assert len(buf.births) == expected
        for s in range(1, 4):
            ig.step(buf)
            assert len(buf.births) == expected


class TestBlockedDriver:
    """``integrate`` marches blocks of states; single-state ``step`` calls are its oracle."""

    @staticmethod
    def integrator(case, **config):
        spec = forced_spec(delay=0.2, **SOURCE_CASES[case])
        return SpectralIntegrator(spec, SolverConfig(**{"dt": 0.05, "t_end": 2.1, **config}))

    @staticmethod
    def chain(ig, w0):
        """Diagnostics rows, grid samples and final buffer from one step at a
        time, with every diagnostic computed on the test side."""
        buf = ig.initialize_history(w0)
        tr = ig.transform
        values = tr.synthesize_values(buf.coeffs)
        rows = [(0.0, values.max(), values.min(), ig.grid.integrate(values), 0.0)]
        samples = [values]
        for i in range(1, round(ig.config.t_end / ig.dt) + 1):
            previous = buf.coeffs
            ig.step(buf)
            values = tr.synthesize_values(buf.coeffs)
            rate = tr.weighted_l2((buf.coeffs - previous)[None])[0] / ig.dt
            t = buf.steps * ig.dt
            rows.append((t, values.max(), values.min(), ig.grid.integrate(values), rate))
            samples.append(values)
        return np.array(rows).T, samples, buf

    @pytest.mark.parametrize("case", sorted(SOURCE_CASES))
    def test_integrate_matches_single_steps(self, case):
        ig = self.integrator(case, snapshot_every=3)
        if case == "mode_forced_birth":  # the birth law reads the head state
            assert ig.block == 1
        elif case in ("full_zero_flux", "full_dirichlet", "radial"):
            assert ig.block == ig.lag_steps + 1
        else:  # forced or seeded: the source is known, the cap alone applies
            assert ig.block > ig.lag_steps + 1
        rows, samples, buf = self.chain(self.integrator(case), drifting_patch)
        result = ig.integrate(drifting_patch)
        columns = (
            result.times,
            result.max_density,
            result.min_density,
            result.total_population,
            result.dwdt_norm,
        )
        for got, want in zip(columns, rows):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        got = result.final_state.coeffs
        assert np.max(np.abs(got - buf.coeffs)) <= 1e-12 * np.max(np.abs(buf.coeffs[:, 0]))
        final = samples[-1]
        assert np.max(np.abs(result.final_field.values - final)) <= 1e-12 * np.max(np.abs(final))
        # Snapshots fall inside blocks (every third step); each keeps its own
        # state although the block's samples are overwritten by its births.
        assert [t for t, _ in result.snapshots] == [i * ig.dt for i in range(0, 42, 3)] + [42 * ig.dt]
        for t, field in result.snapshots:
            want = samples[round(t / ig.dt)]
            assert np.max(np.abs(field.values - want)) <= 1e-12 * np.max(np.abs(want))

    @staticmethod
    def one_state_transforms(monkeypatch):
        """Run every transform one state at a time. The BLAS kernel a
        stacked product takes depends on its shape, so its rounding may
        differ from a one-state product; this makes a block's arithmetic a
        chain's."""
        analyze, synthesize = DiskTransform.analyze_values, DiskTransform.synthesize_values

        def analyze_each(self, values, width=None):
            if values.ndim == 2:
                return analyze(self, values, width)
            return np.stack([analyze(self, state.copy(), width) for state in values], axis=2)

        def synthesize_each(self, coeffs, out=None, width=None):
            if coeffs.ndim == 3:
                return synthesize(self, coeffs, out, width)
            states = [
                synthesize(self, coeffs[:, :, m].copy(), None, width)
                for m in range(coeffs.shape[2])
            ]
            if out is None:
                return np.stack(states)
            out[...] = states
            return out

        monkeypatch.setattr(DiskTransform, "analyze_values", analyze_each)
        monkeypatch.setattr(DiskTransform, "synthesize_values", synthesize_each)

    @staticmethod
    def persistence_spec(birth):
        """The radial model past its critical patch radius, as the
        ``radial_persistence`` benchmark runs it."""
        return forced_spec(
            variant=Variant.RADIAL,
            bc=DIRICHLET,
            birth=birth,
            n_max=0,
            j_max=64,
            delay=1.0,
            radius=3.5,
            diffusion=1.0,
            mortality=0.1,
            survival=0.8,
            spread=0.05,
        )

    @pytest.mark.parametrize(
        "case, block", [("radial", 101), ("full_zero_flux", 5), ("mode_forced", 40)]
    )
    def test_blocked_equals_chained_bit_for_bit(self, monkeypatch, case, block):
        # Blocks do their bookkeeping (blow-up test, birth law, diagnostics
        # rows, rates) once per block or chunk; one state at a time must
        # give the same bits.
        self.one_state_transforms(monkeypatch)
        if case == "radial":
            spec = self.persistence_spec(Logistic(1.0, 1.0))
            ig = SpectralIntegrator(spec, SolverConfig(dt=0.01, t_end=2.5, snapshot_every=7))
            assert ig._chunk < ig.block  # a block takes more than one call of the law
        else:
            ig = self.integrator(case, t_end=5.0, snapshot_every=7)
        assert ig.block == block
        blocked = ig.integrate(drifting_patch)
        n_steps = len(blocked.times) - 1
        assert n_steps > 2 * block
        recorder = solver._Recorder(np.arange(n_steps + 1) * ig.dt, ig.grid, ig.config)
        buf = ig.initialize_history(drifting_patch, recorder.record)
        while buf.steps < n_steps:
            ig.step(buf, 1, recorder.record)
        chained = recorder.result(SpectralField(ig.bases, buf.coeffs), ig.spec, ig.dt)
        for attr in ("times", "max_density", "min_density", "total_population", "dwdt_norm"):
            assert np.array_equal(getattr(blocked, attr), getattr(chained, attr)), attr
        assert np.array_equal(blocked.final_state.coeffs, chained.final_state.coeffs)
        assert blocked.converged_at == chained.converged_at
        assert len(blocked.snapshots) == len(chained.snapshots) > 3
        for (t1, f1), (t2, f2) in zip(blocked.snapshots, chained.snapshots):
            assert t1 == t2 and np.array_equal(f1.values, f2.values)

    def test_bookkeeping_runs_once_per_chunk_and_block(self, monkeypatch):
        # A structural guard for the radial_persistence model: the birth law
        # runs once per chunk of states and the diagnostics once per block.
        law, chunks = Logistic(1.0, 1.0), []

        def counting_law(w):
            chunks.append(len(w))
            return law(w)

        blocks = []
        record = solver._Recorder.record

        def counting_record(self, first, values, rates):
            blocks.append(len(values))
            record(self, first, values, rates)

        monkeypatch.setattr(solver._Recorder, "record", counting_record)
        spec = self.persistence_spec(counting_law)
        ig = SpectralIntegrator(spec, SolverConfig(dt=0.01, t_end=2.5))
        assert (ig.block, ig._chunk) == (101, 51)
        ig.integrate(lambda t, r, th: 0.1 * (1.0 - (r / 3.5) ** 2))
        # The history is one state; blocks of 101, 101 and 48 states follow.
        assert chunks == [1, 51, 50, 51, 50, 48]
        assert blocks == [1, 101, 101, 48]

    def test_snapshot_survives_the_next_block(self):
        ig = self.integrator("full_zero_flux", snapshot_every=2)
        assert ig.block == 5
        buf = ig.initialize_history(drifting_patch)
        recorder = solver._Recorder(np.arange(11) * ig.dt, ig.grid, ig.config)
        ig.step(buf, 5, recorder.record)
        taken = [(t, field.values.copy()) for t, field in recorder.snapshots]
        assert [t for t, _ in taken] == [2 * ig.dt, 4 * ig.dt]
        ig.step(buf, 5, recorder.record)
        for (t, before), (t_after, field) in zip(taken, recorder.snapshots):
            assert t == t_after and np.array_equal(field.values, before)

    def test_births_overflow_leaves_the_buffer_as_it_was(self):
        # The birth law overflows while the block's coefficients are finite.
        spec = dataclasses.replace(self.growing_spec(Identity()), birth=np.exp)
        ig = SpectralIntegrator(spec, SolverConfig(dt=0.05, t_end=100.0))
        buf = ig.initialize_history(patch_w0)
        with pytest.raises(BlowUpError) as info:
            while True:
                steps, peak, prev = buf.steps, buf.peak, buf.prev_source
                coeffs, births = buf.coeffs.copy(), [b.copy() for b in buf.births]
                ig.step(buf, ig.block)
        assert math.isinf(info.value.magnitude) and info.value.step_index > steps
        assert (buf.steps, buf.peak) == (steps, peak) and buf.prev_source is prev
        assert np.array_equal(buf.coeffs, coeffs)
        assert all(np.array_equal(got, want) for got, want in zip(buf.births, births, strict=True))
        # The head is the state of step ``buf.steps``.
        replay = ig.initialize_history(patch_w0)
        while replay.steps < buf.steps:
            ig.step(replay, ig.block)
        assert replay.steps == buf.steps and np.array_equal(replay.coeffs, buf.coeffs)

    @pytest.mark.parametrize("case", ["mode_forced_birth", "full_zero_flux"])
    def test_more_states_than_the_block_are_rejected(self, case):
        ig = self.integrator(case)
        buf = ig.initialize_history(patch_w0)
        with pytest.raises(ValueError, match="states"):
            ig.step(buf, ig.block + 1)

    @staticmethod
    def growing_spec(birth):
        # Every state survives and none diffuses away, so the mean grows.
        return forced_spec(
            variant=Variant.FULL_ZERO_FLUX, birth=birth, survival=1.0, spread=0.0, delay=0.2
        )

    @staticmethod
    def first_blowup(run):
        with pytest.raises(BlowUpError) as info:
            run()
        return info.value

    BLOWUPS = {
        # A finite coefficient crosses the threshold.
        "coefficient_threshold": (dict(birth=Identity()), 20.0),
        # The birth law of a state overflows while its coefficients are small.
        "birth_law_overflow": (dict(birth=np.exp), 1e12),
        # The same on a two-angle grid, where the 5-state block is one call of the law.
        "birth_law_overflow_order_zero": (dict(birth=np.exp, n_max=0), 1e12),
        # The forcing, and so a coefficient, overflows; no threshold applies.
        "coefficient_overflow": (
            dict(
                variant=Variant.MODE_FORCED, birth=None, forcing=lambda t: np.power(10.0, 100.0 * t)
            ),
            math.inf,
        ),
    }

    @pytest.mark.parametrize("case", sorted(BLOWUPS))
    def test_blowup_reports_the_chain_step(self, case):
        changes, threshold = self.BLOWUPS[case]
        spec = self.growing_spec(Identity())
        spec = dataclasses.replace(spec, **changes)
        config = SolverConfig(dt=0.05, t_end=100.0, blowup_threshold=threshold)

        def chain():
            ig = SpectralIntegrator(spec, config)
            buf = ig.initialize_history(patch_w0)
            for i in range(1, 2001):
                ig.step(buf)

        ig = SpectralIntegrator(spec, config)
        blocked = self.first_blowup(lambda: ig.integrate(patch_w0))
        single = self.first_blowup(chain)
        assert blocked.step_index == single.step_index
        assert blocked.t == single.t and blocked.magnitude == single.magnitude
        assert (blocked.step_index - 1) % ig.block != 0  # raised mid-block
        assert math.isinf(blocked.magnitude) == (case != "coefficient_threshold")

    def test_forced_birth_overflow_is_reported_at_its_state(self):
        # The forced birth's law runs as its state enters the ring, so an
        # overflow there is reported at that state: here the initial one.
        spec = forced_spec(variant=Variant.MODE_FORCED_BIRTH, birth=np.exp)
        ig = SpectralIntegrator(spec, SolverConfig(dt=0.05, t_end=1.0))
        blowup = self.first_blowup(lambda: ig.integrate(lambda t, r, th: np.full_like(r, 1e3)))
        assert (blowup.step_index, blowup.t, blowup.magnitude) == (0, 0.0, math.inf)

    def test_block_finishes_states_before_a_coefficient_blowup(self):
        config = SolverConfig(dt=0.05, t_end=100.0, blowup_threshold=20.0)
        ig = SpectralIntegrator(self.growing_spec(Identity()), config)
        states = []
        buf = ig.initialize_history(patch_w0)
        for i in range(1, 2001):
            try:
                ig.step(buf)
            except BlowUpError as exc:
                bad = exc.step_index
                break
            states.append(buf.coeffs)
        buf = ig.initialize_history(patch_w0)
        first = bad - (bad - 1) % ig.block
        for i in range(1, first, ig.block):
            ig.step(buf, ig.block)
        with pytest.raises(BlowUpError):
            ig.step(buf, ig.block)
        # States first .. bad - 1 of the failing block were completed.
        assert buf.steps == bad - 1 > first - 1
        want = states[bad - 2]
        assert np.max(np.abs(buf.coeffs - want)) <= 1e-12 * np.max(np.abs(want[:, 0]))

    @pytest.mark.parametrize("case", ["mode_forced", "full_dirichlet", "radial"])
    def test_repeated_runs_are_identical(self, case):
        ig = self.integrator(case, snapshot_every=4)
        runs = [ig.integrate(drifting_patch), ig.integrate(drifting_patch)]
        runs.append(self.integrator(case, snapshot_every=4).integrate(drifting_patch))
        first = runs[0]
        for other in runs[1:]:
            for attr in ("times", "max_density", "min_density", "total_population", "dwdt_norm"):
                assert np.array_equal(getattr(first, attr), getattr(other, attr))
            assert np.array_equal(first.final_state.coeffs, other.final_state.coeffs)
            assert np.array_equal(first.final_field.values, other.final_field.values)
            for (t1, f1), (t2, f2) in zip(first.snapshots, other.snapshots, strict=True):
                assert t1 == t2 and np.array_equal(f1.values, f2.values)


class TestDeadBand:
    """Past the damped width every recruit is exactly 0: blocks analyse and
    synthesise only the radial indices that can be nonzero."""

    SPEC = dict(
        variant=Variant.FULL_ZERO_FLUX,
        birth=RickerQuadratic(0.25, 0.1),
        spread=1.0,
        delay=0.1,
        n_max=4,
        j_max=16,
    )

    @classmethod
    def integrator(cls, **changes):
        spec = forced_spec(**{**cls.SPEC, **changes})
        return SpectralIntegrator(spec, SolverConfig(dt=0.02, t_end=2.0, snapshot_every=10))

    @staticmethod
    def ignore_width(monkeypatch):
        """Transforms that take every radial index whatever the width."""
        analyze, synthesize = DiskTransform.analyze_values, DiskTransform.synthesize_values

        def full_analysis(self, values, width=None):
            return analyze(self, values)[..., :width]

        def full_synthesis(self, coeffs, out=None, width=None):
            return synthesize(self, coeffs, out)

        monkeypatch.setattr(DiskTransform, "analyze_values", full_analysis)
        monkeypatch.setattr(DiskTransform, "synthesize_values", full_synthesis)

    RADIAL = dict(variant=Variant.RADIAL, bc=DIRICHLET, n_max=0)

    def test_matches_the_run_with_the_width_ignored(self, monkeypatch):
        cases, runs = ({}, self.RADIAL), []
        for changes in cases:
            ig = self.integrator(**changes)
            damp = damping_factors(ig.bases, ig.spec.survival, ig.spec.spread)
            assert not np.any(damp[..., -1])  # the run has a dead band
            runs.append(ig.integrate(patch_w0))
        self.ignore_width(monkeypatch)
        twins = [self.integrator(**changes).integrate(patch_w0) for changes in cases]
        for got, want in zip(runs, twins, strict=True):
            for attr in ("times", "max_density", "min_density", "total_population", "dwdt_norm"):
                assert np.array_equal(getattr(got, attr), getattr(want, attr))
            assert np.array_equal(got.final_state.coeffs, want.final_state.coeffs)
            for (t1, f1), (t2, f2) in zip(got.snapshots, want.snapshots, strict=True):
                assert t1 == t2 and np.array_equal(f1.values, f2.values)

    def test_ring_and_states_hold_no_subnormal(self):
        tiny = np.finfo(float).tiny

        def subnormal(coeffs):
            return np.any((coeffs != 0.0) & (np.abs(coeffs) < tiny))

        ig = self.integrator()
        tr = ig.transform
        damp = damping_factors(ig.bases, ig.spec.survival, ig.spec.spread)
        buf = ig.initialize_history(drifting_patch)
        for i in range(1, 101):
            ig.step(buf)
            assert not subnormal(buf.coeffs)
            assert not any(subnormal(births) for births in buf.births)
            # The newest births against a full-width analysis: equal, and 0
            # exactly where the full-width product is below the normal range.
            want = damp * tr.analyze_values(ig.spec.birth(tr.synthesize_values(buf.coeffs)))
            got = buf.births[-1]
            assert np.array_equal(got != 0.0, np.abs(want) >= tiny)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_subnormal_decay_factors_are_stored_as_zero(self):
        tiny = np.finfo(float).tiny
        # dt puts the fastest mode's exp(-lam dt) at e^-720, below the normal range.
        lam = self.integrator().rates.max()
        spec = forced_spec(**{**self.SPEC, "delay": 0.0})
        ig = SpectralIntegrator(spec, SolverConfig(dt=720.0 / lam, t_end=1.0))
        raw = np.exp(-ig.rates * ig.dt)
        assert np.any((raw > 0.0) & (raw < tiny))
        assert np.array_equal(ig._decay, np.where(raw < tiny, 0.0, raw))

    def test_blocks_after_the_first_synthesise_fewer_columns(self, monkeypatch):
        widths = []
        synthesize = DiskTransform.synthesize_values

        def recording(self, coeffs, out=None, width=None):
            widths.append(width)
            if width is not None:  # the skipped indices are 0, the last kept one is not
                assert not np.any(coeffs[..., width:]) and np.any(coeffs[..., width - 1])
            return synthesize(self, coeffs, out, width)

        ig = self.integrator()
        monkeypatch.setattr(DiskTransform, "synthesize_values", recording)
        ig.integrate(patch_w0)
        # The t = 0 state's one synthesis, for its births and row 0, then one
        # per block of the 100 steps.
        assert len(widths) == 1 + math.ceil(100 / ig.block)
        assert all(width < ig.spec.j_max for width in widths[2:])

    @pytest.mark.parametrize(
        "changes",
        [
            dict(variant=Variant.MODE_FORCED, birth=None),
            dict(variant=Variant.MODE_FORCED_BIRTH),
            dict(birth=SEED),
        ],
        ids=["mode_forced", "mode_forced_birth", "seeded_birth"],
    )
    def test_only_lagged_full_births_scan(self, changes, monkeypatch):
        ig = self.integrator(**changes)
        scans = []
        span = solver._span
        monkeypatch.setattr(solver, "_span", lambda coeffs: scans.append(1) or span(coeffs))
        ig.integrate(patch_w0)
        assert scans == []

    def test_births_overflow_is_a_blowup(self, monkeypatch):
        # Every recruit survives, so the field grows until the analysis of
        # its births overflows; no threshold applies.
        spec = forced_spec(**{**self.SPEC, "birth": Identity(), "survival": 1.0})
        config = SolverConfig(dt=0.05, t_end=1000.0, blowup_threshold=math.inf)

        def first_blowup():
            with pytest.raises(BlowUpError) as info:
                SpectralIntegrator(spec, config).integrate(patch_w0)
            return info.value

        got = first_blowup()
        self.ignore_width(monkeypatch)
        want = first_blowup()
        assert math.isinf(got.magnitude)
        assert (got.step_index, got.t, got.magnitude) == (want.step_index, want.t, want.magnitude)


class TestDelayOracle:
    """ETD-AB2 against the method of steps for c' = -lam c + beta c(t - tau).

    With an identity birth law each mode evolves on its own. A constant
    history c0 gives, with c1 = c(tau) and s = t - tau on [tau, 2 tau],

        c(s) = beta^2 c0 / lam^2 + beta c0 (1 - beta/lam) s e^{-lam s}
               + (c1 - beta^2 c0 / lam^2) e^{-lam s}.
    """

    C0, TAU = 0.7, 1.0

    def exact(self, t, lam, beta):
        c0, tau = self.C0, self.TAU
        s = t - tau
        c1 = c0 * (beta / lam + (1.0 - beta / lam) * np.exp(-lam * tau))
        plateau = beta**2 * c0 / lam**2
        return (
            plateau
            + beta * c0 * (1.0 - beta / lam) * s * np.exp(-lam * s)
            + (c1 - plateau) * np.exp(-lam * s)
        )

    def max_error(self, spec, index, dt):
        ig = SpectralIntegrator(spec, SolverConfig(dt=dt, t_end=2.0 * self.TAU))
        k = ig.bases[0].eigenvalues[index]
        lam = spec.diffusion * k**2 + spec.mortality
        beta = spec.survival * np.exp(-(k**2) * spec.spread)
        buf = ig.initialize_history(lambda t, r, th: self.C0 * jv(0, k * r))
        worst = 0.0
        for s in range(1, 2 * ig.lag_steps + 1):
            ig.step(buf)
            if s >= ig.lag_steps:
                err = abs(buf.coeffs[0, 0, index] - self.exact(buf.steps * ig.dt, lam, beta))
                worst = max(worst, err)
        return worst

    @pytest.mark.parametrize(
        "variant, bc, index",
        [(Variant.FULL_ZERO_FLUX, ZERO_FLUX, 2), (Variant.FULL_DIRICHLET, DIRICHLET, 0)],
        ids=["zero_flux_k7.016", "dirichlet_k2.405"],
    )
    def test_second_order_in_dt(self, variant, bc, index):
        spec = ModelSpec(
            variant=variant,
            diffusion=0.05,
            mortality=0.3,
            survival=0.9,
            spread=0.01,
            delay=self.TAU,
            radius=1.0,
            bc=bc,
            birth=Identity(),
            n_max=2,
            j_max=6,
        )
        errors = [self.max_error(spec, index, dt) for dt in (0.04, 0.02, 0.01)]
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all((orders >= 1.9) & (orders <= 2.1)), (errors, orders)


class TestNonlinearDelayConvergence:
    """Self-convergence in dt of the density-dependent delayed model.

    No closed form is known, so the successive differences of the final
    coefficients over dt = 0.04 .. 0.0025 stand in for the errors: a
    second-order scheme divides each by 4 as dt halves. The history
    (w ~ 20) lies between the two positive flat states of survival * b(w) =
    mortality * w (about 1.5 and 36), so the Ricker law's nonlinearity
    shapes all ten delays of the run.
    """

    @pytest.mark.parametrize(
        "variant, bc",
        [
            (Variant.FULL_ZERO_FLUX, ZERO_FLUX),
            (Variant.FULL_DIRICHLET, DIRICHLET),
            (Variant.RADIAL, DIRICHLET),
        ],
        ids=["full_zero_flux", "full_dirichlet", "radial"],
    )
    def test_second_order_in_dt(self, variant, bc):
        spec = ModelSpec(
            variant=variant,
            diffusion=0.02,
            mortality=0.3,
            survival=0.9,
            spread=0.01,
            delay=1.0,
            radius=1.0,
            bc=bc,
            birth=RickerQuadratic(0.25, 0.1),
            n_max=0 if variant is Variant.RADIAL else 4,
            j_max=8,
        )

        def w0(t, r, th):
            return 100.0 * patch_w0(t, r, th)

        finals = [
            SpectralIntegrator(spec, SolverConfig(dt=dt, t_end=10.0)).integrate(w0).final_state.coeffs
            for dt in (0.04, 0.02, 0.01, 0.005, 0.0025)
        ]
        changes = np.array([np.max(np.abs(a - b)) for a, b in zip(finals, finals[1:])])
        orders = np.log2(changes[:-1] / changes[1:])
        assert np.all((orders >= 1.9) & (orders <= 2.1)), (changes, orders)


class TestLongHorizonDelayOracle:
    """Leading growth rate of c' = -lam c + beta c(t - tau) through ``integrate``.

    With an identity birth law one eigenmode evolves on its own. Its
    characteristic equation s + lam = beta e^{-s tau} has the real root
    s = -lam + W0(beta tau e^{lam tau}) / tau (Lambert W, principal branch),
    which dominates once the complex roots have decayed. The log-slope of
    the mode's amplitude over t in [5 tau, 20 tau] must match s within
    0.02 dt^2: ETD-AB2 is second order, and the observed error is
    0.0018 dt^2 (zero flux, k = 3.832) and 0.0067 dt^2 (Dirichlet, k = 2.405).
    """

    TAU = 1.0

    @pytest.mark.parametrize("dt", [0.1, 0.05])
    @pytest.mark.parametrize(
        "variant, bc, index",
        [(Variant.FULL_ZERO_FLUX, ZERO_FLUX, 1), (Variant.FULL_DIRICHLET, DIRICHLET, 0)],
        ids=["zero_flux_k3.832", "dirichlet_k2.405"],
    )
    def test_log_slope_matches_lambert_w_root(self, variant, bc, index, dt):
        spec = ModelSpec(
            variant=variant,
            diffusion=0.05,
            mortality=0.3,
            survival=0.9,
            spread=0.01,
            delay=self.TAU,
            radius=1.0,
            bc=bc,
            birth=Identity(),
            n_max=2,
            j_max=6,
        )
        ig = SpectralIntegrator(spec, SolverConfig(dt=dt, t_end=20.0 * self.TAU))
        n_steps = round(20.0 * self.TAU / ig.dt)
        assert 1 < ig.block < n_steps and n_steps % ig.block  # many blocks, a partial last one
        k = ig.bases[0].eigenvalues[index]
        lam = spec.diffusion * k**2 + spec.mortality
        beta = spec.survival * np.exp(-(k**2) * spec.spread)
        s = -lam + lambertw(beta * self.TAU * np.exp(lam * self.TAU)).real / self.TAU
        result = ig.integrate(lambda t, r, th: 0.7 * jv(0, k * r))
        # The field is c(t) J0(k r) with c > 0, so its grid maximum is c(t)
        # times a fixed factor.
        window = (result.times >= 5.0 * self.TAU - 1e-9) & (result.times <= 20.0 * self.TAU + 1e-9)
        slope = np.polyfit(result.times[window], np.log(result.max_density[window]), 1)[0]
        assert abs(slope - s) <= 0.02 * dt**2, (slope, s)


class TestCriticalPatchRadius:
    """Persistence threshold of the radial model under a lethal edge.

    Linearised about w = 0, the first radial mode (k = j01 / R) obeys
    c' = -lam c + beta c(t - tau), lam = D k^2 + mu, beta = survival *
    b'(0) * exp(-k^2 spread); with beta > 0 it grows iff beta > lam. The
    critical radius R* solves D j01^2 / R^2 + mu = survival b'(0)
    exp(-j01^2 spread / R^2).
    """

    D, MU, SURVIVAL, SPREAD, SLOPE = 1.0, 0.1, 0.8, 0.05, 1.0

    def critical_radius(self):
        j01 = bessel_zero(0, 1)

        def excess(radius):
            k2 = (j01 / radius) ** 2
            return self.SURVIVAL * self.SLOPE * np.exp(-k2 * self.SPREAD) - (
                self.D * k2 + self.MU
            )

        return brentq(excess, 0.5, 20.0, xtol=1e-12)

    def first_mode_ratio(self, radius):
        """c(20) / c(10) of the first radial coefficient from a small seed."""
        spec = ModelSpec(
            variant=Variant.RADIAL,
            diffusion=self.D,
            mortality=self.MU,
            survival=self.SURVIVAL,
            spread=self.SPREAD,
            delay=1.0,
            radius=radius,
            bc=DIRICHLET,
            birth=Logistic(self.SLOPE, 1.0),
            n_max=0,
            j_max=8,
        )
        ig = SpectralIntegrator(spec, SolverConfig(dt=0.05, t_end=20.0))
        k = ig.bases[0].eigenvalues[0]
        buf = ig.initialize_history(lambda t, r, th: 1e-3 * jv(0, k * r))
        for s in range(1, 401):
            ig.step(buf)
            if s == 200:
                middle = buf.coeffs[0, 0, 0]
        return buf.coeffs[0, 0, 0] / middle

    def test_decays_below_and_grows_above(self):
        r_star = self.critical_radius()
        assert 2.5 < r_star < 3.5
        assert self.first_mode_ratio(0.9 * r_star) < 0.8
        assert self.first_mode_ratio(1.1 * r_star) > 1.2

    def full_disk_ratio(self, radius, order):
        """c(20) / c(10) of the first order-``order`` mode of ``full_dirichlet``,
        each from its own ``integrate`` run on the same small seed."""
        spec = ModelSpec(
            variant=Variant.FULL_DIRICHLET,
            diffusion=self.D,
            mortality=self.MU,
            survival=self.SURVIVAL,
            spread=self.SPREAD,
            delay=1.0,
            radius=radius,
            bc=DIRICHLET,
            birth=Logistic(self.SLOPE, 1.0),
            n_max=1,
            j_max=8,
        )
        coefficients = []
        for t_end in (10.0, 20.0):
            ig = SpectralIntegrator(spec, SolverConfig(dt=0.05, t_end=t_end))
            k = ig.bases[order].eigenvalues[0]
            result = ig.integrate(lambda t, r, th: 1e-3 * jv(order, k * r) * np.cos(order * th))
            coefficients.append(result.final_state.a[order, 0])
        return coefficients[1] / coefficients[0]

    def test_full_dirichlet_shares_the_threshold(self):
        # The 2-D model's order-0 mode obeys the radial model's linearisation,
        # so it crosses over at the same R*; the first order-1 mode (k = j11 / R,
        # j11 = 3.832) is still far below its own threshold at 1.1 R*.
        r_star = self.critical_radius()
        assert self.full_disk_ratio(0.9 * r_star, 0) < 0.8
        assert self.full_disk_ratio(1.1 * r_star, 0) > 1.2
        assert self.full_disk_ratio(1.1 * r_star, 1) < 0.5


class TestIntegrate:
    def test_zero_t_end_returns_projection(self):
        spec = forced_spec()
        ig = SpectralIntegrator(spec, SolverConfig(dt=0.01, t_end=0.0))
        result = ig.integrate(patch_w0)
        assert result.times.size == 1
        assert len(result.snapshots) == 1
        buf = ig.initialize_history(patch_w0)
        projected = ig.transform.synthesize_values(buf.coeffs)
        assert_allclose(result.final_field.values, projected, atol=1e-14)

    def test_diagnostics_lengths_and_monotone_time(self):
        spec = forced_spec()
        config = SolverConfig(dt=0.05, t_end=0.5, snapshot_every=5)
        result = SpectralIntegrator(spec, config).integrate(patch_w0)
        assert result.times.size == 11
        assert np.all(np.diff(result.times) > 0.0)
        assert result.times[-1] == pytest.approx(0.5)
        assert len(result.snapshots) == 3  # t = 0, 0.25, 0.5

    @pytest.mark.parametrize("dt, t_end, n", [(0.01, 1.0, 100), (0.3, 0.9, 4)])
    def test_times_are_exact_step_multiples(self, dt, t_end, n):
        # Times are a step count times dt, not a running sum of dt; the
        # count uses dt after rounding to the delay (0.3 -> 0.25).
        ig = SpectralIntegrator(forced_spec(), SolverConfig(dt=dt, t_end=t_end))
        result = ig.integrate(patch_w0)
        assert result.times.size == n + 1
        assert np.array_equal(result.times, np.arange(n + 1) * result.dt)

    def test_radial_is_full_dirichlet_at_order_zero(self):
        # The radial reduction is the full model at n_max = 0: same rule,
        # same grid, same numbers.
        radial, full = (
            SpectralIntegrator(
                forced_spec(variant=v, bc=DIRICHLET, birth=Logistic(2.0, 1.0), n_max=0, j_max=8),
                SolverConfig(dt=0.05, t_end=2.0, snapshot_every=7),
            ).integrate(drifting_patch)
            for v in (Variant.RADIAL, Variant.FULL_DIRICHLET)
        )
        assert radial.grid.n_theta == 2
        for attr in ("times", "max_density", "min_density", "total_population", "dwdt_norm"):
            assert np.array_equal(getattr(radial, attr), getattr(full, attr))
        assert np.array_equal(radial.final_state.coeffs, full.final_state.coeffs)
        for (t1, f1), (t2, f2) in zip(radial.snapshots, full.snapshots, strict=True):
            assert t1 == t2 and np.array_equal(f1.values, f2.values)

    def test_convergence_flag_for_decaying_run(self):
        spec = forced_spec(forcing=lambda t: 0.0, diffusion=5.0, mortality=1.0, delay=0.0)
        config = SolverConfig(dt=0.01, t_end=30.0, convergence_tol=1e-8)
        result = SpectralIntegrator(spec, config).integrate(lambda t, r, th: 0.1 * np.ones_like(r))
        assert result.converged
        assert result.converged_at is not None
        assert result.dwdt_norm[-1] < 1e-8

    def test_reference_scheme_matches_spectral_on_short_horizon(self):
        spec = forced_spec()
        config = SolverConfig(dt=0.01, t_end=0.5)
        spectral = SpectralIntegrator(spec, config).integrate(patch_w0)
        reference = reference_fd(spec, config, patch_w0, fd_n_r=24, fd_n_theta=16)
        assert reference.times[-1] == pytest.approx(0.5)
        assert reference.max_density[-1] == pytest.approx(
            spectral.max_density[-1], rel=2e-3
        )
        assert reference.total_population[-1] == pytest.approx(
            spectral.total_population[-1], rel=2e-3
        )


def fd_config(dt, t_end=None):
    """Recording every dt up to t_end (default: one record at dt)."""
    return SolverConfig(dt=dt, t_end=dt if t_end is None else t_end)


class TestReferenceFD:
    def test_zero_field_stays_zero(self):
        spec = forced_spec(forcing=lambda t: 0.0)
        result = reference_fd(spec, fd_config(0.01), lambda t, r, th: np.zeros_like(r), 16, 8)
        assert np.all(result.final_field.values == 0.0)
        assert np.all(result.max_density == 0.0) and np.all(result.min_density == 0.0)

    def test_constant_conserved_under_zero_flux(self):
        spec = forced_spec(forcing=lambda t: 0.0, mortality=0.0)
        result = reference_fd(spec, fd_config(0.01), lambda t, r, th: np.full_like(r, 0.7), 16, 8)
        assert np.array_equal(result.final_field.values, np.full((16, 8), 0.7))

    @pytest.mark.parametrize(
        "bc",
        [DIRICHLET, ZERO_FLUX, BoundaryCondition.mixed(1.0, 1.0)],
        ids=["dirichlet", "zero_flux", "mixed"],
    )
    def test_eigenmode_decay_rate_within_one_percent(self, bc):
        # The first decaying radial mode of each edge condition.
        spec = forced_spec(forcing=lambda t: 0.0, diffusion=1.0, mortality=0.0, bc=bc, delay=0.0)
        k = next(k for k in find_eigenvalues(0, 1.0, bc, 2).eigenvalues if k > 0.0)
        lam = spec.diffusion * k**2
        t_end = 0.02
        result = reference_fd(spec, fd_config(t_end), lambda t, r, th: jv(0, k * r), 128, 8)
        initial = result.snapshots[0][1].values
        rates = -np.log(result.final_field.values[:, 0] / initial[:, 0]) / t_end
        assert abs(rates[0] - lam) / lam < 0.01
        # The edge cell reads the ghost cell. Its Dirichlet value is O(dr),
        # so its rate carries a first-order error: 1.7% on 128 cells.
        assert abs(rates[-1] - lam) / lam < 0.02

    def test_laplacian_of_radial_quadratic(self):
        # Laplacian(r^2) = 4; the conservative stencil reproduces it
        # exactly away from the boundary row.
        spec = forced_spec(forcing=lambda t: 0.0)
        grid = DiskGrid.cell_centered(1.0, 64, 8)
        r, _ = grid.mesh()
        lap = fd_laplacian(r**2, spec, grid)
        assert_allclose(lap[:-1], 4.0, rtol=1e-10)

    def test_maturation_variant_without_delay(self):
        spec = forced_spec(
            variant=Variant.FULL_ZERO_FLUX,
            birth=Identity(),
            survival=0.5,
            spread=0.0,
            delay=0.0,
            mortality=0.0,
            n_max=2,
            j_max=4,
        )
        dt = 0.5 * fd_stability_limit(spec, DiskGrid.cell_centered(1.0, 24, 12))
        result = reference_fd(spec, fd_config(dt), lambda t, r, th: np.ones_like(r), 24, 12)
        assert result.dt == dt  # one Euler step
        # Flat field: diffusion is silent and the source is survival * w,
        # up to the midpoint-quadrature accuracy of the projection.
        assert_allclose((result.final_field.values - 1.0) / dt, 0.5, rtol=1e-2)

    def test_radial_source_is_the_order_zero_reduction(self):
        # The radial variant's source is the order-zero births of the field,
        # constant in theta, as in rhs and the spectral solver; one Euler
        # step recovers it.
        spec = forced_spec(
            variant=Variant.RADIAL,
            bc=DIRICHLET,
            birth=Logistic(2.0, 1.0),
            diffusion=1.0,
            mortality=0.1,
            survival=0.8,
            spread=0.02,
            delay=0.0,
            n_max=0,
            j_max=8,
        )
        grid = DiskGrid.cell_centered(1.0, 24, 12)
        dt = 0.5 * fd_stability_limit(spec, grid)

        def w0(t, r, th):
            return 0.4 + 0.3 * r * np.cos(th) + 0.2 * r**2 * np.sin(2.0 * th)

        result = reference_fd(spec, fd_config(dt), w0, 24, 12)
        assert result.dt == dt
        values = result.snapshots[0][1].values
        source = (result.final_field.values - values) / dt
        source += spec.mortality * values - spec.diffusion * fd_laplacian(values, spec, grid)
        bases = build_bases(spec.n_max, spec.j_max, spec.radius, spec.bc)
        transform = DiskTransform(grid, bases)
        _, expected = rhs(0.0, SpectralField.zeros(bases), DiskField(grid, values), spec, transform)
        scale = np.max(np.abs(expected.values))
        assert scale > 0.1
        assert np.max(np.abs(source - expected.values)) <= 1e-9 * scale
        assert np.max(np.ptp(source, axis=1)) <= 1e-9 * scale

    @pytest.mark.parametrize(
        "changes",
        [dict(variant=Variant.MODE_FORCED_BIRTH, birth=Logistic(2.0, 1.0)), dict(birth=SEED)],
        ids=["mode_forced_birth", "seeded_birth"],
    )
    def test_source_is_the_rhs_source(self, changes):
        # One Euler step recovers the FD source. The initial field is a
        # synthesis on the mesh, so rhs reads the same values from its state.
        spec = forced_spec(
            **{"variant": Variant.FULL_ZERO_FLUX, **changes},
            diffusion=1.0,
            mortality=0.1,
            survival=0.8,
            spread=0.02,
            delay=0.0,
            n_max=3,
            j_max=8,
        )
        grid = DiskGrid.cell_centered(1.0, 24, 12)
        dt = 0.5 * fd_stability_limit(spec, grid)
        bases = build_bases(spec.n_max, spec.j_max, spec.radius, spec.bc)
        transform = DiskTransform(grid, bases)
        patch = DiskField.from_polar(grid, lambda r, th: 0.4 + 0.3 * r * np.cos(th))
        state = transform.analyze(patch)
        values = transform.synthesize(state).values

        result = reference_fd(spec, fd_config(dt), lambda t, r, th: values, 24, 12)
        assert result.dt == dt
        source = (result.final_field.values - values) / dt
        source += spec.mortality * values - spec.diffusion * fd_laplacian(values, spec, grid)
        _, expected = rhs(0.0, state, DiskField(grid, values), spec, transform)
        scale = np.max(np.abs(expected.values))
        assert scale > 0.1
        assert np.max(np.abs(source - expected.values)) <= 1e-9 * scale

    def test_seeded_birth_field_is_built_once(self, monkeypatch):
        # The seeded source is amplitude(t) times one damped field: its
        # profile is evaluated once per run, not once per Euler step.
        calls = []
        profile = ModeSeed.profile

        def counting(seed, grid):
            calls.append(grid)
            return profile(seed, grid)

        monkeypatch.setattr(ModeSeed, "profile", counting)
        spec = forced_spec(
            variant=Variant.FULL_ZERO_FLUX, birth=SEED, diffusion=1.0, delay=0.0, n_max=2, j_max=4
        )
        w0 = lambda t, r, th: np.ones_like(r)  # noqa: E731
        result = reference_fd(spec, fd_config(0.002, 0.004), w0, 12, 8)
        assert result.dt < 0.001 and len(calls) == 1

    def test_maturation_runs_build_bases_once(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return build_bases(*args)

        monkeypatch.setattr(solver, "build_bases", counting)
        spec = forced_spec(
            variant=Variant.FULL_ZERO_FLUX,
            birth=Identity(),
            diffusion=1.0,
            delay=0.0,
            n_max=2,
            j_max=4,
        )
        reference_fd(spec, fd_config(0.002, 0.004), lambda t, r, th: np.ones_like(r), 12, 8)
        assert len(calls) == 1

    def test_maturation_reference_caps_truncation_to_mesh(self):
        # The default n_max=16, j_max=32 exceed what the 32 x 24 mesh
        # resolves; the source and the terminal projection use the cap.
        spec = forced_spec(
            variant=Variant.FULL_ZERO_FLUX,
            birth=Identity(),
            diffusion=1.0,
            delay=0.0,
            n_max=16,
            j_max=32,
        )
        result = reference_fd(spec, SolverConfig(dt=2e-4, t_end=4e-4), patch_w0)
        assert result.times.size == 3
        assert (result.final_state.n_max, result.final_state.j_max) == (11, 30)
        assert np.all(np.isfinite(result.final_field.values))

    @pytest.mark.parametrize("changes", [dict(diffusion=1e300), dict(mortality=1e300)])
    def test_unbounded_inner_step_count_is_rejected(self, changes):
        # The Euler step shrinks as 1 / (diffusion + mortality); the run
        # is refused before its first step.
        with pytest.raises(ValueError, match="diffusion.*mortality.*FD mesh"):
            reference_fd(forced_spec(**changes), fd_config(0.01), patch_w0, 16, 8)

    def test_maturation_variant_with_delay_requires_lagged(self):
        # The FD scheme keeps no past fields, so a maturation variant with a
        # delay has no lagged field to read and is rejected before stepping.
        spec = forced_spec(variant=Variant.FULL_ZERO_FLUX, birth=Identity(), delay=1.0)
        with pytest.raises(ValueError, match="delay"):
            reference_fd(spec, fd_config(0.01), lambda t, r, th: np.zeros_like(r), 16, 8)


@pytest.mark.slow
class TestTimeStepRefinement:
    def test_halving_dt_leaves_terminal_diagnostics_unchanged(self):
        # Establishment scenario: the converged terminal state must be
        # insensitive to dt (second-order source treatment plus an exact
        # linear propagator).
        spec = forced_spec(
            variant=Variant.MODE_FORCED_BIRTH,
            birth=RickerQuadratic(0.25, 0.1),
            n_max=16,
            j_max=32,
        )
        coarse = SpectralIntegrator(spec, SolverConfig(dt=0.01, t_end=400.0)).integrate(patch_w0)
        fine = SpectralIntegrator(spec, SolverConfig(dt=0.005, t_end=400.0)).integrate(patch_w0)
        for attr in ("max_density", "min_density", "total_population"):
            a = getattr(coarse, attr)[-1]
            b = getattr(fine, attr)[-1]
            assert abs(a - b) / abs(b) < 1e-4
