import dataclasses
import math
import runpy
from collections import Counter, deque
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq
from scipy.special import jv, lambertw

from diskrd.bessel import BesselBasis, BoundaryCondition, find_eigenvalues
from diskrd.model import Identity, Logistic, ModelSpec, RickerQuadratic, Variant, rhs
from diskrd import cli, solver
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

from oracles import bessel_zero, whole_basis_lag0_march

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
        "key, value",
        [
            ("t_end", math.nan),
            ("t_end", math.inf),
            ("blowup_threshold", math.nan),
            ("blowup_threshold", -1.0),
            ("blowup_threshold", 0.0),
        ],
    )
    def test_t_end_finite_and_blowup_threshold_positive(self, key, value):
        # A non-finite t_end surfaced as a step count past 1e8, and a NaN or
        # negative threshold reported a healthy run as blown up at step 1.
        with pytest.raises(ValueError, match=key):
            SolverConfig(**{key: value})
        assert SolverConfig(blowup_threshold=math.inf).blowup_threshold == math.inf

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_convergence_tol_positive_and_finite(self, tol):
        # No rate falls below a tolerance <= 0 or NaN, so no run converged
        # and none said why.
        with pytest.raises(ValueError, match="convergence_tol"):
            SolverConfig(convergence_tol=tol)

    @pytest.mark.parametrize("every", [2.5, 4.0, "4"])
    def test_snapshot_every_must_be_an_integer(self, every):
        # i % 2.5 == 0 put the snapshots of a 2.5 on multiples of 5.
        with pytest.raises(ValueError, match="snapshot_every"):
            SolverConfig(snapshot_every=every)
        assert SolverConfig(snapshot_every=np.int64(4)).snapshot_every == 4

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
        ig.initialize_history(lambda t, r, th: np.zeros_like(r))
        assert not np.any(ig.coeffs)

    def test_constant_patch_fills_identical_states(self):
        spec = forced_spec(variant=Variant.FULL_ZERO_FLUX, birth=RickerQuadratic(0.25, 0.1))
        ig = SpectralIntegrator(spec, SolverConfig(dt=0.1, t_end=1.0))
        ig.initialize_history(patch_w0)
        assert len(ig.births) == 11
        for births in ig.births:
            assert np.array_equal(births, ig.births[-1])
        # Zero-flux: the constant mode carries the 0.2 mean of the patch.
        assert ig.coeffs[0, 0, 0] == pytest.approx(0.2, abs=1e-10)

    def test_single_mode_history(self):
        ig = SpectralIntegrator(forced_spec(), SolverConfig(dt=0.1, t_end=1.0))
        k = ig.bases[0].eigenvalues[1]
        ig.initialize_history(lambda t, r, th: jv(0, k * r))
        assert ig.coeffs[0, 0, 1] == pytest.approx(1.0, abs=1e-10)
        rest = ig.coeffs.copy()
        rest[0, 0, 1] = 0.0
        assert np.max(np.abs(rest)) < 1e-8

    def test_time_varying_history(self):
        # Identity births, all surviving and undamped: the births queued
        # for the head time are the history at t = -delay.
        spec = forced_spec(
            variant=Variant.FULL_ZERO_FLUX, birth=Identity(), survival=1.0, spread=0.0, delay=0.5
        )
        ig = SpectralIntegrator(spec, SolverConfig(dt=0.25, t_end=1.0))
        ig.initialize_history(lambda t, r, th: np.exp(t) * np.ones_like(r))
        assert ig.births[0][0, 0, 0] == pytest.approx(np.exp(-0.5), abs=1e-10)
        assert ig.coeffs[0, 0, 0] == pytest.approx(1.0, abs=1e-10)


    def test_a_history_that_blows_up_leaves_the_run_as_it_was(self):
        spec = forced_spec(variant=Variant.FULL_ZERO_FLUX, birth=RickerQuadratic(0.25, 0.1))
        ig = SpectralIntegrator(spec, SolverConfig(dt=0.1, t_end=1.0))
        ig.initialize_history(patch_w0)
        ig.step(3)
        prev, coeffs, births, shape = ig.prev_source, ig.coeffs, list(ig.births), ig._values.shape
        # An odd history: had it been taken, the run would march the whole circle.
        with pytest.raises(BlowUpError):
            ig.initialize_history(lambda t, r, th: 1e20 * r * np.sin(th))
        assert ig.steps == 3 and ig.prev_source is prev and ig.coeffs is coeffs
        assert all(a is b for a, b in zip(ig.births, births, strict=True))
        assert ig._values.shape == shape == (ig.block, ig.grid.n_r, ig.grid.half_angles)


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
        ig.initialize_history(lambda t, r, th: jv(1, k * r) * np.cos(th))
        c0 = ig.coeffs[1, 0, 0]
        for s in range(1, 21):
            ig.step()
            expected = np.exp(-lam * s * 0.5) * c0
            # Exponential integrator: exact per-mode decay for any dt.
            assert ig.coeffs[1, 0, 0] == pytest.approx(expected, rel=1e-12)

    def test_zero_state_is_fixed_point(self):
        spec = forced_spec(
            variant=Variant.MODE_FORCED_BIRTH,
            forcing=lambda t: 0.0,
            birth=RickerQuadratic(0.25, 0.1),
        )
        ig = SpectralIntegrator(spec, SolverConfig(dt=0.05, t_end=1.0))
        ig.initialize_history(lambda t, r, th: np.zeros_like(r))
        for s in range(10):
            ig.step()
        assert not np.any(ig.coeffs)

    def test_blowup_detection(self):
        spec = forced_spec(forcing=lambda t: 1e20)
        ig = SpectralIntegrator(spec, SolverConfig(dt=0.01, t_end=1.0))
        ig.initialize_history(lambda t, r, th: np.zeros_like(r))
        with pytest.raises(BlowUpError):
            for s in range(50):
                ig.step()

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

        ig.initialize_history(w0)
        lagged = tr.analyze(DiskField.from_polar(ig.grid, lambda r, th: w0(-tau, r, th)))
        head = SpectralField(ig.bases, ig.coeffs)
        _, source = rhs(ig.steps * ig.dt, head, tr.synthesize(lagged), spec, tr)
        expected = np.exp(-sigma * tau) * ig.coeffs[0, 0, 1]
        assert tr.analyze_values(source.values)[0, 0, 1] == pytest.approx(expected, abs=1e-9)
        assert ig.source()[0, 0, 1] == pytest.approx(expected, abs=1e-9)


def packed_source(ig, ahead=0):
    """``ig.source``, which covers the source box only, padded with 0 to
    the whole packed shape."""
    full = np.zeros_like(ig.coeffs)
    src = ig.source(ahead)
    full[: src.shape[0], :, : src.shape[-1]] = src
    return full


def drifting_patch(t, r, th):
    """Non-radial, time-dependent history, so head and lagged states differ."""
    return (1.0 + 0.5 * t) * patch_w0(t, r, th) + 0.05 * r * np.sin(th)


def drifting_even(t, r, th):
    """The even part of ``drifting_patch``: a run of it marches the half circle."""
    return (1.0 + 0.5 * t) * patch_w0(t, r, th)


SOURCE_CASES = {
    "mode_forced": dict(variant=Variant.MODE_FORCED, forcing=lambda t: 1.0 + 0.5 * t),
    "mode_forced_birth": dict(
        variant=Variant.MODE_FORCED_BIRTH, birth=RickerQuadratic(0.25, 0.1)
    ),
    "full_zero_flux": dict(variant=Variant.FULL_ZERO_FLUX, birth=RickerQuadratic(0.25, 0.1)),
    "full_dirichlet": dict(
        variant=Variant.FULL_DIRICHLET, bc=DIRICHLET, birth=RickerQuadratic(0.25, 0.1)
    ),
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
        ig.initialize_history(drifting_patch)
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
                head = SpectralField(ig.bases, ig.coeffs)
                _, field = rhs(ig.steps * ig.dt, head, lagged, ig.spec, tr)
                expected = tr.analyze_values(field.values)
                scale = np.max(np.abs(expected))
                assert np.max(np.abs(packed_source(ig) - expected)) <= 1e-12 * scale
            ig.step()
            states.append(ig.coeffs)

    @pytest.mark.parametrize(
        "case, analyses",
        [
            ("mode_forced", 0),
            ("mode_forced_birth", 1),
            ("full_zero_flux", 1),
            ("full_dirichlet", 1),
            ("radial", 1),
        ],
    )
    def test_transforms_per_step(self, monkeypatch, case, analyses):
        # Steps run on raw coefficient arrays: no SpectralField is built.
        ig = self.integrator(case)
        assert ig.block > 1
        ig.initialize_history(patch_w0)
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
            ig.step()
        # A whole block costs what one state does: one stacked call each;
        # a lag-0 block, whose births the next state reads, one call a state.
        ig.step(ig.block)
        calls = 5 + (ig.block if case == "mode_forced_birth" else 1)
        assert counts == {
            "analyze": calls * analyses,
            "synthesize": calls,
            "radial_table": 0,
            "spectral_field": 0,
        }

    @pytest.mark.parametrize("case", sorted(SOURCE_CASES))
    def test_order_zero_sine_slot_stays_zero(self, case):
        # sin(0 theta) = 0: the packed slot is not a mode and is never filled.
        ig = self.integrator(case)
        ig.initialize_history(drifting_patch)
        assert np.all(ig.coeffs[0, 1] == 0.0)
        for s in range(1, 51):
            ig.step()
        assert np.all(ig.coeffs[0, 1] == 0.0)
        assert all(np.all(births[0, 1] == 0.0) for births in ig.births)

    @staticmethod
    def count_analyses(monkeypatch):
        calls = []
        original = DiskTransform.analyze_values

        def counting(self, values, live=None):
            calls.append(1)
            return original(self, values, live)

        monkeypatch.setattr(DiskTransform, "analyze_values", counting)
        return calls

    def test_constant_history_is_analysed_once(self, monkeypatch):
        ig = self.integrator("full_zero_flux")
        calls = self.count_analyses(monkeypatch)
        ig.initialize_history(patch_w0)
        # One analysis of the state, one of its births, for all five samples.
        assert len(calls) == 2
        assert len(ig.births) == ig.lag_steps + 1

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
        ig.initialize_history(drifting_patch)
        assert len(ig.births) == expected
        for s in range(1, 4):
            ig.step()
            assert len(ig.births) == expected


class TestBlockedDriver:
    """``integrate`` marches blocks of states; single-state ``step`` calls are its oracle."""

    @staticmethod
    def integrator(case, **config):
        spec = forced_spec(delay=0.2, **SOURCE_CASES[case])
        return SpectralIntegrator(spec, SolverConfig(**{"dt": 0.05, "t_end": 2.1, **config}))

    @staticmethod
    def chain(ig, w0):
        """Diagnostics rows, grid samples and final coefficients from one step
        at a time, with every diagnostic computed on the test side."""
        ig.initialize_history(w0)
        tr = ig.transform
        values = tr.synthesize_values(ig.coeffs)
        rows = [(0.0, values.max(), values.min(), ig.grid.integrate(values), 0.0)]
        samples = [values]
        for i in range(1, round(ig.config.t_end / ig.dt) + 1):
            previous = ig.coeffs
            ig.step()
            values = tr.synthesize_values(ig.coeffs)
            rate = tr.weighted_l2((ig.coeffs - previous)[None])[0] / ig.dt
            t = ig.steps * ig.dt
            rows.append((t, values.max(), values.min(), ig.grid.integrate(values), rate))
            samples.append(values)
        return np.array(rows).T, samples, ig.coeffs

    @pytest.mark.parametrize("case", sorted(SOURCE_CASES))
    def test_integrate_matches_single_steps(self, case):
        ig = self.integrator(case, snapshot_every=3)
        if case in ("full_zero_flux", "full_dirichlet", "radial"):
            assert ig.block == ig.lag_steps + 1
        else:  # the source is known, or reads the head's births: the cap alone applies
            assert ig.block == solver._BLOCK_BYTES // (2 * ig._values[0].nbytes) > ig.lag_steps + 1
        rows, samples, coeffs = self.chain(self.integrator(case), drifting_patch)
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
        assert np.max(np.abs(got - coeffs)) <= 1e-12 * np.max(np.abs(coeffs[:, 0]))
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

        def analyze_each(self, values, live=None):
            if values.ndim == 2:
                return analyze(self, values, live)
            return np.stack([analyze(self, state.copy(), live) for state in values], axis=2)

        def synthesize_each(self, coeffs, out=None, live=None):
            if coeffs.ndim == 3:
                return synthesize(self, coeffs, out, live)
            if out is None:
                out = np.empty((coeffs.shape[2], self.grid.n_r, self.grid.n_theta))
            # Each state on the circle ``out`` asks for (see synthesize_values).
            for m in range(coeffs.shape[2]):
                synthesize(self, coeffs[:, :, m].copy(), out[m], live)
            return out

        monkeypatch.setattr(DiskTransform, "analyze_values", analyze_each)
        monkeypatch.setattr(DiskTransform, "synthesize_values", synthesize_each)

    @staticmethod
    def count_grids_and_reaches(monkeypatch, ig):
        """The states, the history's included, whose births each grid takes,
        and the box each block marches over."""
        grids, reaches = Counter(), []
        births, step = SpectralIntegrator._births, SpectralIntegrator.step

        def counting_births(self, values, transform):
            grids["run" if transform is self.transform else "births"] += len(values)
            return births(self, values, transform)

        def recording_step(self, states=1, record=None):
            reaches.append(self._reach)
            return step(self, states, record)

        monkeypatch.setattr(SpectralIntegrator, "_births", counting_births)
        monkeypatch.setattr(SpectralIntegrator, "step", recording_step)
        return grids, reaches

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

    BLOCKED = [
        ("radial", 101, drifting_patch),
        ("full_zero_flux", 5, drifting_patch),
        ("full_zero_flux", 5, drifting_even),
        ("mode_forced", 40, drifting_patch),
        ("mode_forced", 79, drifting_even),
        ("full_disk", 5, drifting_patch),
        ("mode_forced_birth", 40, drifting_patch),
        ("mode_forced_birth", 79, drifting_even),
        ("delay_0", 40, drifting_patch),
        ("delay_0", 79, drifting_even),
        ("delay_0_full_disk", 1, drifting_even),
        ("establishment", 19, drifting_even),
    ]

    @pytest.mark.parametrize(
        "case, block, w0",
        BLOCKED,
        ids=[f"{case}-{block}" + "-even" * (w0 is drifting_even) for case, block, w0 in BLOCKED],
    )
    def test_blocked_equals_chained_bit_for_bit(self, monkeypatch, case, block, w0):
        # Blocks do their bookkeeping (blow-up test, birth law, diagnostics
        # rows, rates) once per block or chunk; one state at a time must
        # give the same bits, on the whole circle and on the half circle.
        grids = boxes = None
        if case == "radial":
            spec = self.persistence_spec(Logistic(1.0, 1.0))
            ig = SpectralIntegrator(spec, SolverConfig(dt=0.01, t_end=2.5, snapshot_every=7))
            # A block takes more than one call of the law (see _births).
            assert solver._BLOCK_BYTES // 8 // ig._values[0].nbytes < ig.block
        elif case in ("full_disk", "delay_0_full_disk"):
            # Full-disk sizes: the first block marches the whole basis and
            # takes its births on the run grid, the later ones march the
            # source box and take them on the births grid. At delay 0 the
            # drop comes before the births, so a block is one state.
            delay = 0.05 if case == "full_disk" else 0.0
            spec = forced_spec(**SOURCE_CASES["full_zero_flux"], n_max=32, j_max=64, delay=delay)
            ig = SpectralIntegrator(spec, SolverConfig(dt=0.01, t_end=0.3, snapshot_every=7))
            grids, reaches = self.count_grids_and_reaches(monkeypatch, ig)
        elif case == "delay_0":  # every birth mode kept: the block takes the cap
            spec = forced_spec(**SOURCE_CASES["full_zero_flux"], delay=0.0, spread=0.0)
            ig = SpectralIntegrator(spec, SolverConfig(dt=0.05, t_end=10.0, snapshot_every=7))
        elif case == "establishment":  # the preset's size: its states' orders shrink in a block
            spec = forced_spec(**SOURCE_CASES["mode_forced_birth"], n_max=16, j_max=32)
            ig = SpectralIntegrator(spec, SolverConfig(dt=0.01, t_end=1.0, snapshot_every=7))
            boxes = TestLag0LiveOrders.record_boxes(monkeypatch)
        else:
            ig = self.integrator(case, t_end=10.0, snapshot_every=7)
        # Births read from the head are taken one state at a time, so their
        # transforms are a chain's already.
        if not ig._inline:
            self.one_state_transforms(monkeypatch)
        assert ig._inline == (case in ("mode_forced_birth", "delay_0", "establishment"))
        blocked = ig.integrate(w0)
        assert ig.block == block
        if boxes is not None:
            assert boxes[0] > boxes[block - 1]
        if grids is not None:
            assert reaches[0] == ig._full != ig.source_box == reaches[-1]
            assert grids["run"] > 0 and grids["births"] > 0
        n_steps = len(blocked.times) - 1
        assert n_steps > 2 * block
        recorder = solver._Recorder(np.arange(n_steps + 1) * ig.dt, ig.grid, ig.config)
        ig.initialize_history(w0, recorder.record)
        while ig.steps < n_steps:
            ig.step(1, recorder.record)
        chained = recorder.result(SpectralField(ig.bases, ig.coeffs), ig.spec, ig.dt)
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
        assert ig.block == 101
        ig.integrate(lambda t, r, th: 0.1 * (1.0 - (r / 3.5) ** 2))
        # The history is one state; blocks of 101, 101 and 48 states follow.
        assert chunks == [1, 51, 50, 51, 50, 48]
        assert blocks == [1, 101, 101, 48]

    def test_snapshot_survives_the_next_block(self):
        ig = self.integrator("full_zero_flux", snapshot_every=2)
        assert ig.block == 5
        ig.initialize_history(drifting_patch)
        recorder = solver._Recorder(np.arange(11) * ig.dt, ig.grid, ig.config)
        ig.step(5, recorder.record)
        taken = [(t, field.values.copy()) for t, field in recorder.snapshots]
        assert [t for t, _ in taken] == [2 * ig.dt, 4 * ig.dt]
        ig.step(5, recorder.record)
        for (t, before), (t_after, field) in zip(taken, recorder.snapshots):
            assert t == t_after and np.array_equal(field.values, before)

    @pytest.mark.parametrize("case", ["mode_forced_birth", "full_zero_flux"])
    def test_more_states_than_the_block_are_rejected(self, case):
        ig = self.integrator(case)
        ig.initialize_history(patch_w0)
        with pytest.raises(ValueError, match="states"):
            ig.step(ig.block + 1)

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
        # The birth law of a state overflows while its coefficients are small;
        # its births fail the test at the state they enter.
        "birth_law_overflow": (dict(birth=np.exp), math.inf),
        # The same on a two-angle grid, where the 5-state block is one call of the law.
        "birth_law_overflow_order_zero": (dict(birth=np.exp, n_max=0), math.inf),
        # The forcing, and so a coefficient, overflows; no threshold applies.
        "coefficient_overflow": (
            dict(
                variant=Variant.MODE_FORCED, birth=None, forcing=lambda t: np.power(10.0, 100.0 * t)
            ),
            math.inf,
        ),
        # The forced birth reads the head's births (lag 0): a block takes
        # each state's births in turn.
        "forced_birth_threshold": (dict(variant=Variant.MODE_FORCED_BIRTH), 20.0),
        "forced_birth_law_overflow": (
            dict(variant=Variant.MODE_FORCED_BIRTH, birth=np.exp),
            math.inf,
        ),
    }

    @pytest.mark.parametrize("case", sorted(BLOWUPS))
    def test_blowup_reports_the_chain_step(self, monkeypatch, case):
        # The magnitude is compared bit for bit, so both runs take one-state
        # transforms (see one_state_transforms).
        self.one_state_transforms(monkeypatch)
        changes, threshold = self.BLOWUPS[case]
        spec = self.growing_spec(Identity())
        spec = dataclasses.replace(spec, **changes)
        config = SolverConfig(dt=0.05, t_end=100.0, blowup_threshold=threshold)

        def chain():
            ig = SpectralIntegrator(spec, config)
            ig.initialize_history(patch_w0)
            for i in range(1, 2001):
                ig.step()

        ig = SpectralIntegrator(spec, config)
        blocked = self.first_blowup(lambda: ig.integrate(patch_w0))
        single = self.first_blowup(chain)
        assert blocked.step_index == single.step_index
        assert blocked.t == single.t and blocked.magnitude == single.magnitude
        assert (blocked.step_index - 1) % ig.block != 0  # raised mid-block
        assert ig.block > 1 and math.isinf(blocked.magnitude) == math.isinf(threshold)

    def test_forced_birth_overflow_is_reported_at_its_state(self):
        # The forced birth's births enter the source of the next state (lag
        # 0), so an overflow in the law of the initial state is reported at
        # step 1, the state its births enter.
        spec = forced_spec(variant=Variant.MODE_FORCED_BIRTH, birth=np.exp)
        ig = SpectralIntegrator(spec, SolverConfig(dt=0.05, t_end=1.0))
        blowup = self.first_blowup(lambda: ig.integrate(lambda t, r, th: np.full_like(r, 1e3)))
        assert (blowup.step_index, blowup.t, blowup.magnitude) == (1, ig.dt, math.inf)

    # Each cause of a blow-up on the growing model, and the threshold it runs at.
    CAUSES = {
        "threshold": (dict(), 20.0),
        "coefficient_overflow": (BLOWUPS["coefficient_overflow"][0], math.inf),
        "birth_law_overflow": (dict(birth=np.exp), math.inf),
        # Finite births, past w = 1.5, whose analysis overflows.
        "births_analysis_overflow": (dict(birth=lambda w: np.where(w > 1.5, 1e308, w)), math.inf),
        # Lag 0: the births that overflow are those of a state of the block
        # that fails, so the ring keeps none of them.
        "forced_birth_threshold": BLOWUPS["forced_birth_threshold"],
        "forced_birth_law_overflow": BLOWUPS["forced_birth_law_overflow"],
    }

    @pytest.mark.parametrize("case", sorted(CAUSES))
    def test_a_blowup_leaves_the_buffer_as_it_was(self, case):
        changes, threshold = self.CAUSES[case]
        spec = dataclasses.replace(self.growing_spec(Identity()), **changes)
        ig = SpectralIntegrator(spec, SolverConfig(dt=0.05, t_end=100.0, blowup_threshold=threshold))
        recorded = []  # the last step of each block of diagnostics rows

        def record(first, values, rates):
            recorded.append(first + len(values) - 1)

        ig.initialize_history(patch_w0, record)
        with pytest.raises(BlowUpError) as info:
            while True:
                steps, prev = ig.steps, ig.prev_source
                coeffs, births = ig.coeffs.copy(), [b.copy() for b in ig.births]
                ig.step(ig.block, record)
        # The block failed past its first state: nothing of it was committed.
        assert steps + 1 < info.value.step_index <= steps + ig.block
        assert ig.steps == steps == recorded[-1] and ig.prev_source is prev
        assert np.array_equal(ig.coeffs, coeffs)
        assert all(
            np.array_equal(got, want, equal_nan=True)
            for got, want in zip(ig.births, births, strict=True)
        )
        # Births that overflowed wait in the ring until the failing state reads them.
        overflowed = any(not np.isfinite(b).all() for b in ig.births)
        assert overflowed == case.startswith("birth")
        # The head is the state of step ``ig.steps``.
        replay = SpectralIntegrator(spec, ig.config)
        replay.initialize_history(patch_w0)
        while replay.steps < ig.steps:
            replay.step(replay.block)
        assert np.array_equal(replay.coeffs, ig.coeffs)

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
    """The dead band: modes whose coefficients stay below ``tol`` of their
    reference. A block transforms only the live box, the leading orders and
    radial indices outside which every coefficient is in the dead band, and
    so matches the run that transforms every mode within 1e-14 of each
    output's scale."""

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
    def full_box(monkeypatch):
        """Every box an integrator takes from here on is the whole packed
        box: no mode is dropped and no block scans."""
        monkeypatch.setattr(solver, "_box", lambda live: (live.shape[-3], live.shape[-1]))

    @staticmethod
    def assert_close(got, want):
        """Diagnostics, final state and snapshots within 1e-14 of each one's scale."""
        for attr in ("times", "max_density", "min_density", "total_population", "dwdt_norm"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b)), attr
        a, b = got.final_state.coeffs, want.final_state.coeffs
        assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))
        for (t1, f1), (t2, f2) in zip(got.snapshots, want.snapshots, strict=True):
            assert t1 == t2
            assert np.max(np.abs(f1.values - f2.values)) <= 1e-14 * np.max(np.abs(f2.values))

    def test_matches_the_run_with_the_width_ignored(self, monkeypatch):
        # Every source kind, with a damping strong enough that the lagged
        # births have a dead band.
        cases = [{"birth": None, **SOURCE_CASES[case]} for case in sorted(SOURCE_CASES)]
        runs, scans = [], []
        for changes in cases:
            ig = self.integrator(**changes)
            scans.append(ig._scan)
            runs.append(ig.integrate(drifting_patch))
        assert sum(scans) == 4  # every lagged birth, and the forced mode (live in order 1)
        self.full_box(monkeypatch)
        twins = [self.integrator(**changes).integrate(drifting_patch) for changes in cases]
        for got, want in zip(runs, twins, strict=True):
            self.assert_close(got, want)

    def test_history_mode_reaches_the_state(self, monkeypatch):
        # Order n_max is in the history only from t = -delay/2 to -delay/4,
        # not in the t = 0 state (but for rounding): its births are live and
        # enter the state in the first block, whose synthesis keeps it for
        # the births the second block reads. Identity births, all surviving,
        # and a slow diffusion keep that order well above the rounding.
        changes = dict(spread=0.1, diffusion=0.5, birth=Identity(), survival=1.0)
        k = self.integrator(**changes).bases[4].eigenvalues[0]

        def w0(t, r, th):
            pulse = 0.1 * jv(4, k * r) * np.cos(4 * th) if -0.05 <= t < -0.025 else 0.0
            return 0.2 + 0.02 * r**2 + pulse

        def heads(ig):
            ig.initialize_history(w0)
            states = [ig.coeffs.copy()]
            for _ in range(2):
                ig.step(ig.block)
                states.append(ig.coeffs.copy())
            return states

        ig = self.integrator(**changes)
        assert ig.source_box == (5, 7) and ig._scan
        got = heads(ig)
        self.full_box(monkeypatch)
        want = heads(self.integrator(**changes))
        peak = np.max(np.abs(want[0]))
        assert np.max(np.abs(got[0][4])) <= 1e-14 * peak
        assert min(np.max(np.abs(state[4])) for state in got[1:]) >= 1e-6 * peak
        for a, b in zip(got, want, strict=True):
            assert np.max(np.abs(a - b)) <= 1e-14 * peak

    def test_ring_and_states_hold_no_subnormal(self):
        tiny = np.finfo(float).tiny

        def subnormal(coeffs):
            return np.any((coeffs != 0.0) & (np.abs(coeffs) < tiny))

        ig = self.integrator()
        tr = ig.transform
        damp = damping_factors(ig.bases, ig.spec.survival, ig.spec.spread)
        orders, width = ig.source_box
        ig.initialize_history(drifting_patch)
        for i in range(1, 101):
            ig.step()
            assert not subnormal(ig.coeffs)
            assert not any(subnormal(births) for births in ig.births)
            # The newest births against a full analysis: inside the source
            # box equal, and 0 exactly where the full product is below the
            # normal range; outside it they sum below 2^-53 of survival *
            # max|b|, which bounds the damped births' field.
            law = ig.spec.birth(tr.synthesize_values(ig.coeffs))
            want = damp * tr.analyze_values(law)
            got, inside = ig.births[-1], want[:orders, :, :width]
            assert np.array_equal(got != 0.0, np.abs(inside) >= tiny)
            assert np.max(np.abs(got - inside)) <= 1e-14 * np.max(np.abs(want))
            dropped = np.abs(want)
            dropped[:orders, :, :width] = 0.0
            assert dropped.sum() <= 2.0**-53 * ig.spec.survival * np.max(np.abs(law))

    def test_subnormal_decay_factors_are_stored_as_zero(self):
        tiny = np.finfo(float).tiny
        # dt puts the fastest mode's exp(-lam dt) at e^-720, below the normal range.
        lam = self.integrator().rates.max()
        spec = forced_spec(**{**self.SPEC, "delay": 0.0})
        ig = SpectralIntegrator(spec, SolverConfig(dt=720.0 / lam, t_end=1.0))
        raw = np.exp(-ig.rates * ig.dt)
        assert np.any((raw > 0.0) & (raw < tiny))
        assert np.array_equal(ig._decay, np.where(raw < tiny, 0.0, raw))

    @staticmethod
    def record_boxes(monkeypatch, ig):
        """The ``live`` box of every synthesis on the run grid of ``ig``,
        each checked to be the least box outside which each state's
        coefficients are at most ``ig._tol`` of that state's peak. The
        births grid's syntheses are not counted."""
        boxes, tol = [], ig._tol
        synthesize = DiskTransform.synthesize_values

        def recording(self, coeffs, out=None, live=None):
            if self is not ig.transform:
                return synthesize(self, coeffs, out, live)
            boxes.append(live)
            if live is not None:
                orders, width = live
                size = np.abs(coeffs)  # (orders, 2, K, width)
                bound = tol * size.max(axis=(0, 1, 3), keepdims=True)
                dropped = size.copy()
                dropped[:orders, ..., :width] = 0.0
                assert np.all(dropped <= bound)
                assert np.any(size[orders - 1] > bound[0])
                assert np.any(size[..., width - 1] > bound[..., 0])
            return synthesize(self, coeffs, out, live)

        monkeypatch.setattr(DiskTransform, "synthesize_values", recording)
        return boxes

    def test_blocks_after_the_first_synthesise_fewer_columns(self, monkeypatch):
        ig = self.integrator()
        boxes = self.record_boxes(monkeypatch, ig)
        ig.integrate(patch_w0)
        # The t = 0 state's one synthesis, for its births and row 0, takes
        # every mode; then one per block of the 100 steps.
        assert len(boxes) == 1 + math.ceil(100 / ig.block)
        assert boxes[0] is None and all(live is not None for live in boxes[1:])
        assert all(width < ig.spec.j_max for _, width in boxes[2:])

    def test_work_at_full_disk_sizes(self, monkeypatch):
        # A work count at n_max = 32, j_max = 64 (fig3's parameters and a
        # trig patch near the flat equilibrium): every block after the
        # second synthesises at most 16 of 33 orders and 8 of 64 indices.
        spec = forced_spec(**{**self.SPEC, "spread": 0.1, "delay": 1.0, "n_max": 32, "j_max": 64})
        ig = SpectralIntegrator(spec, SolverConfig(dt=0.01, t_end=0.5))
        boxes = self.record_boxes(monkeypatch, ig)
        ig.integrate(lambda t, r, th: 47.9 + np.sin(3.7 * r * np.cos(th)) * np.cos(2.6 * r * np.sin(th)))
        assert len(boxes) == 1 + math.ceil(50 / ig.block)
        assert all(orders <= 16 and width <= 8 for orders, width in boxes[3:])

    @pytest.mark.parametrize(
        "changes",
        [
            dict(variant=Variant.MODE_FORCED, birth=None),
            dict(variant=Variant.MODE_FORCED_BIRTH),
            dict(spread=0.0),
        ],
        ids=["mode_forced", "mode_forced_birth", "undamped_births"],
    )
    def test_a_full_source_box_does_no_scan(self, changes, monkeypatch):
        # The rule: a block takes the box of its stack exactly where the
        # source box is not the whole basis. The forced birth's and the
        # undamped births' source boxes are whole by construction; the
        # forcing mode's is whatever its coefficients give.
        ig = self.integrator(**changes)
        full = ig.source_box == (ig.spec.n_max + 1, ig.spec.j_max)
        assert full or ig.spec.variant is Variant.MODE_FORCED
        scans = []
        box = solver._box
        monkeypatch.setattr(solver, "_box", lambda live: scans.append(1) or box(live))
        ig.integrate(patch_w0)
        assert (scans == []) == full

    def test_births_overflow_is_a_blowup(self, monkeypatch):
        # The Ricker law maps the t = 0 state, -6900, to a finite ~5e306
        # whose analysis over the narrow source box overflows. Those births
        # fail the test at the state they enter, lag_steps + 1; no threshold
        # applies.
        config = SolverConfig(dt=0.05, t_end=1.0, blowup_threshold=math.inf)

        def first_blowup():
            ig = SpectralIntegrator(forced_spec(**self.SPEC), config)
            with pytest.raises(BlowUpError) as info:
                ig.integrate(lambda t, r, th: np.full_like(r, -6900.0 if t == 0.0 else 0.2))
            return ig, info.value

        ig, got = first_blowup()
        assert ig.source_box[1] < ig.spec.j_max
        self.full_box(monkeypatch)
        _, want = first_blowup()
        assert math.isinf(got.magnitude) and got.step_index == ig.lag_steps + 1
        assert (got.step_index, got.t, got.magnitude) == (want.step_index, want.t, want.magnitude)


class TestBirthsGrid:
    """Births on a grid sized to the source box: the run grid's angles and
    the radial nodes ``default_grid`` picks for the bases cut to the box."""

    @staticmethod
    def full_disk(**changes):
        """The ``full_disk_delayed`` model: fig3's parameters at n_max 32, j_max 64."""
        spec = forced_spec(
            **{"variant": Variant.FULL_ZERO_FLUX, "birth": RickerQuadratic(0.25, 0.1)}, n_max=32, j_max=64
        )
        return SpectralIntegrator(dataclasses.replace(spec, **changes), SolverConfig(dt=0.01, t_end=0.5))

    @pytest.fixture(scope="class")
    def grids(self):
        """The integrator and a 400 x 512 Gauss-Legendre reference transform."""
        ig = self.full_disk()
        fine = DiskTransform(DiskGrid.gauss_legendre(1.0, 400, 512), ig.bases)
        return ig, fine

    def test_sizes(self, grids):
        ig, _ = grids
        births = ig._births_transform
        assert ig.source_box == (21, 7)
        assert (births.grid.n_r, ig.grid.n_r) == (44, 194)
        # The same angles: the trapezoid rule aliases as on the run grid.
        assert births.grid.n_theta == ig.grid.n_theta == 66
        assert np.array_equal(births.grid.theta_nodes, ig.grid.theta_nodes)
        assert [b.count for b in births.bases] == [7] * 21

    @staticmethod
    def births(transform, coeffs, law, damp, angles, box):
        """Damped births over ``box`` of the packed state ``coeffs`` (on the
        whole circle, or on the half circle for ``angles`` = half_angles)."""
        orders, width = box
        out = np.empty((1, transform.grid.n_r, angles))
        transform.synthesize_values(coeffs[:orders, :, None, :width], out)
        return damp * transform.analyze_values(law(out), box)[:, :, 0]

    @pytest.mark.parametrize("law", [Identity(), Logistic(1.0, 1.0), RickerQuadratic(0.25, 0.1)])
    @pytest.mark.parametrize("amplitude", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("even", [True, False], ids=["half_circle", "whole_circle"])
    def test_births_as_accurate_as_on_the_run_grid(self, grids, law, amplitude, even):
        # A state filling the source box about w = 47.8, its deviation at
        # most ``amplitude``; its births on the births grid, on the run grid
        # and on the reference grid.
        ig, fine = grids
        box = ig.source_box
        rng = np.random.default_rng(round(10 * amplitude) + 100 * even)
        coeffs = np.zeros(ig.rates.shape)
        coeffs[: box[0], :, : box[1]] = rng.uniform(-1.0, 1.0, (box[0], 2, box[1]))
        coeffs[0, 1] = 0.0
        if even:
            coeffs[:, 1] = 0.0
        coeffs *= amplitude / np.max(np.abs(fine.synthesize_values(coeffs)))
        coeffs[0, 0, 0] += 47.8
        damp = damping_factors(ig.bases, ig.spec.survival, ig.spec.spread)[: box[0], :, : box[1]]

        def births_on(transform):
            angles = transform.grid.half_angles if even else transform.grid.n_theta
            return self.births(transform, coeffs, law, damp, angles, box)

        want = births_on(fine)
        run_error = np.max(np.abs(births_on(ig.transform) - want))
        births_error = np.max(np.abs(births_on(ig._births_transform) - want))
        scale = np.max(np.abs(law(fine.synthesize_values(coeffs))))
        assert births_error <= max(1.5 * run_error, 1e-14 * scale)

    def test_only_where_it_halves_the_radial_nodes(self):
        # radial_persistence's source box needs 88 radial nodes against the
        # run grid's 159; the small boxes of the other test models need more
        # than half of their run grids' too.
        radial = TestBlockedDriver.persistence_spec(Logistic(1.0, 1.0))
        ig = SpectralIntegrator(radial, SolverConfig(dt=0.01, t_end=2.5))
        assert ig._scan and ig.source_box == (1, 34) and ig.grid.n_r == 159
        assert ig._births_transform is None
        for case in ("full_zero_flux", "full_dirichlet", "radial"):
            assert TestBlockedDriver.integrator(case)._births_transform is None
        # No births grid where the source box is the whole basis or no law applies.
        for changes in (dict(spread=0.0), dict(variant=Variant.MODE_FORCED, birth=None)):
            assert self.full_disk(**changes)._births_transform is None


def perfbench_workloads():
    """The benchmark's workload table (perfbench/workloads.py)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    return runpy.run_path(str(path))["WORKLOADS"]


def cli_run(tmp_path, text):
    """The integrator and history ``diskrd run`` builds from config ``text``."""
    path = tmp_path / "run.cfg"
    path.write_text(text)
    resolved = cli._resolve(cli.parse_config(path), None)
    spec, config, _ = cli._build_run(resolved)
    return SpectralIntegrator(spec, config), cli._build_w0(resolved, spec)


def sine_slots_are_zero(ig):
    """Whether the run's head and every queued birth hold exact 0 in each sine slot."""
    return not ig.coeffs[:, 1].any() and not any(births[:, 1].any() for births in ig.births)


def odd_perturbation(ig, w0, size=1e-10):
    """``w0`` plus ``size * peak * J_1(k r) sin theta``, k the first order-1
    eigenvalue and peak the largest |w0| at t = 0: an odd part far above any
    analysis' rounding and far below the outputs' tolerance."""
    r, th = ig.grid.mesh()
    peak = float(np.max(np.abs(w0(0.0, r, th))))
    k = ig.bases[1].eigenvalues[0]
    return lambda t, r, th: w0(t, r, th) + size * peak * jv(1, k * r) * np.sin(th)


class TestReflectionRule:
    """A run whose history and static mode are even in theta, but for
    sine slots at or below the analysis' rounding floor, marches its cosine
    slots on the half circle; any other run marches the whole circle."""

    @pytest.mark.parametrize("name", ["establishment", "full_disk_delayed"])
    def test_every_trig_patch_draw_is_even(self, tmp_path, name):
        workload = perfbench_workloads()[name]
        for seed in range(16):
            ig, w0 = cli_run(tmp_path, workload.config_text(seed))
            ig.initialize_history(w0)
            assert sine_slots_are_zero(ig), seed
            assert ig.grid.half_angles < ig.grid.n_theta
            assert ig._values.shape[-1] == ig.grid.half_angles

    @pytest.mark.parametrize(
        "initial",
        [
            "w0_kind = constant\nw0_value = 0.3\n",
            "w0_kind = trig_patch\nw0_base = 0.2\nw0_amp = 0.02\nw0_kx = 3.0\nw0_ky = 2.0\n",
            "w0_kind = mode\nw0_order = 3\nw0_index = 2\nw0_amp = 0.1\n",
            "w0_kind = mode\nw0_order = 0\nw0_index = 1\nw0_amp = 0.1\n",
        ],
        ids=["constant", "trig_patch", "mode_3_2", "mode_0_1"],
    )
    @pytest.mark.parametrize("variant", ["mode_forced", "mode_forced_birth", "full_zero_flux"])
    def test_every_cli_history_kind_is_even(self, tmp_path, variant, initial):
        birth = "none" if variant == "mode_forced" else "ricker_quadratic"
        ig, w0 = cli_run(
            tmp_path,
            f"variant = {variant}\nbirth = {birth}\nbc = zero_flux\nn_max = 4\nj_max = 6\n"
            f"delay = 0.05\nt_end = 0.1\n{initial}",
        )
        ig.initialize_history(w0)
        assert sine_slots_are_zero(ig)
        ig.step(ig.block)
        assert sine_slots_are_zero(ig)

    def test_lagged_time_varying_history_is_even(self):
        spec = forced_spec(
            variant=Variant.FULL_ZERO_FLUX, birth=RickerQuadratic(0.25, 0.1), delay=0.2
        )
        ig = SpectralIntegrator(spec, SolverConfig(dt=0.05, t_end=1.0))
        ig.initialize_history(drifting_even)
        assert len(ig.births) == 5 and not np.array_equal(ig.births[0], ig.births[-1])
        assert sine_slots_are_zero(ig)
        for _ in range(4):
            ig.step(ig.block)
        assert sine_slots_are_zero(ig)

    @pytest.mark.parametrize("case", ["mode_forced_birth", "full_zero_flux"])
    def test_runs_on_both_circles_in_turn_match_fresh_runs(self, case):
        # An integrator holds one run: each restart marches on the circle of
        # its own history, whatever the run before it marched on.
        spec = forced_spec(delay=0.2, **SOURCE_CASES[case])
        config = SolverConfig(dt=0.05, t_end=2.0, snapshot_every=8)
        ig = SpectralIntegrator(spec, config)
        odd = odd_perturbation(ig, drifting_patch, size=1e-3)
        for w0 in (odd, drifting_even, odd):
            got, want = ig.integrate(w0), SpectralIntegrator(spec, config).integrate(w0)
            for attr in ("times", "max_density", "min_density", "total_population", "dwdt_norm"):
                assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr
            assert np.array_equal(got.final_state.coeffs, want.final_state.coeffs)
            assert got.converged_at == want.converged_at
            for (t1, f1), (t2, f2) in zip(got.snapshots, want.snapshots, strict=True):
                assert t1 == t2 and np.array_equal(f1.values, f2.values)
            assert ig._values.shape[-1] == (ig.grid.n_theta if w0 is odd else ig.grid.half_angles)

    @pytest.mark.parametrize("case", ["mode_forced", "mode_forced_birth", "full_zero_flux", "full_dirichlet"])
    def test_an_odd_history_marches_the_whole_circle(self, case):
        spec = forced_spec(delay=0.2, **SOURCE_CASES[case])
        config = SolverConfig(dt=0.05, t_end=2.0, snapshot_every=8)
        ig = SpectralIntegrator(spec, config)
        odd = odd_perturbation(ig, patch_w0)
        ig.initialize_history(odd)
        assert ig.coeffs[1, 1].any() and ig._values.shape[-1] == ig.grid.n_theta
        got = ig.integrate(odd)
        want = SpectralIntegrator(spec, config).integrate(patch_w0)
        for attr in ("max_density", "min_density", "total_population", "dwdt_norm"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(b)), attr
        assert got.converged_at == want.converged_at
        a, b = got.final_state.coeffs, want.final_state.coeffs
        assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(b))
        for (t1, f1), (t2, f2) in zip(got.snapshots, want.snapshots, strict=True):
            assert t1 == t2
            assert np.max(np.abs(f1.values - f2.values)) <= 1e-9 * np.max(np.abs(f2.values))

    @pytest.mark.parametrize("case", ["mode_forced", "full_zero_flux"])
    def test_snapshots_of_an_even_run_mirror_bit_for_bit(self, case):
        spec = forced_spec(delay=0.2, **SOURCE_CASES[case])
        ig = SpectralIntegrator(spec, SolverConfig(dt=0.05, t_end=1.0, snapshot_every=3))
        result = ig.integrate(patch_w0)
        n_theta = ig.grid.n_theta
        assert len(result.snapshots) == 8
        for _, field in result.snapshots:
            assert field.values.shape == (ig.grid.n_r, n_theta)
            for t in range(1, n_theta):
                assert np.array_equal(field.values[:, n_theta - t], field.values[:, t])
        # The snapshot is the whole circle's synthesis of the final state.
        whole = ig.transform.synthesize_values(result.final_state.coeffs)
        assert np.max(np.abs(result.final_field.values - whole)) <= 1e-14 * np.max(np.abs(whole))


class TestTransformWork:
    """Transforms per state, and the angles each reads, on small versions
    of the benchmark's three workloads: one analysis and one synthesis per
    state (the floor), on the half circle for an even history and on the
    whole circle for one with an odd part."""

    WORKLOADS = {
        "establishment": (
            dict(variant=Variant.MODE_FORCED_BIRTH, birth=RickerQuadratic(0.25, 0.1)),
            patch_w0,
        ),
        "full_disk_delayed": (
            dict(variant=Variant.FULL_ZERO_FLUX, birth=RickerQuadratic(0.25, 0.1), delay=0.1),
            lambda t, r, th: 47.7 + 50.0 * (patch_w0(t, r, th) - 0.2),
        ),
        "radial_persistence": (
            dict(
                variant=Variant.RADIAL,
                bc=DIRICHLET,
                birth=Logistic(1.0, 1.0),
                n_max=0,
                j_max=8,
                delay=0.1,
                radius=3.5,
                diffusion=1.0,
                mortality=0.1,
                survival=0.8,
                spread=0.05,
            ),
            lambda t, r, th: 0.1 * jv(0, 2.405 / 3.5 * r),
        ),
    }

    @staticmethod
    def count(monkeypatch):
        """(kind, angles) -> states transformed."""
        states = Counter()
        analyze, synthesize = DiskTransform.analyze_values, DiskTransform.synthesize_values

        def analyze_counting(self, values, live=None):
            states["analyze", values.shape[-1]] += len(values) if values.ndim == 3 else 1
            return analyze(self, values, live)

        def synthesize_counting(self, coeffs, out=None, live=None):
            angles = self.grid.n_theta if out is None else out.shape[-1]
            states["synthesize", angles] += coeffs.shape[2] if coeffs.ndim == 4 else 1
            return synthesize(self, coeffs, out, live)

        monkeypatch.setattr(DiskTransform, "analyze_values", analyze_counting)
        monkeypatch.setattr(DiskTransform, "synthesize_values", synthesize_counting)
        return states

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    @pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
    def test_one_analysis_and_synthesis_per_state_on_the_half_circle(self, monkeypatch, name, odd):
        changes, w0 = self.WORKLOADS[name]
        spec = forced_spec(**changes)
        states = self.count(monkeypatch)
        ig = SpectralIntegrator(spec, SolverConfig(dt=0.01, t_end=0.35))
        if odd and spec.n_max:
            w0 = odd_perturbation(ig, w0)
        n_theta, half = ig.grid.n_theta, ig.grid.half_angles
        angles = n_theta if odd else half
        static = int(spec.variant is Variant.MODE_FORCED_BIRTH)
        assert states == Counter({("analyze", n_theta): static})
        steps = len(ig.integrate(w0).times) - 1
        assert steps == 35
        # The one history sample is analysed on the whole circle; every
        # state, the t = 0 one included, is synthesised once and its births
        # analysed once, on the circle of the run.
        expected = Counter({("analyze", n_theta): static + 1})
        expected["analyze", angles] += steps + 1
        expected["synthesize", angles] += steps + 1
        assert states == expected
        assert (half == n_theta) == (name == "radial_persistence")


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
        ig.initialize_history(lambda t, r, th: self.C0 * jv(0, k * r))
        worst = 0.0
        for s in range(1, 2 * ig.lag_steps + 1):
            ig.step()
            if s >= ig.lag_steps:
                err = abs(ig.coeffs[0, 0, index] - self.exact(ig.steps * ig.dt, lam, beta))
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


class TestManufacturedDelaySolution:
    """An exact oracle over time for the nonlinear delayed model.

    Any smooth coefficient trajectory c_e(t) in the source box solves the
    model with the added source s = c_e' + Lambda c_e - D o A[b(S c_e(t -
    tau))], cut to the source box (Roache 2002; Salari and Knupp 2000): S and
    A are the run's synthesis and analysis and D the births' damping. Run
    from the history c_e(t), t <= 0, the scheme's error at t = 3 is its own,
    and falls by 4 as dt halves. The check covers the step weights, the
    births ring and its lag, the block partition, the reflection rule and,
    at full-disk sizes, the confined march and the births grid; the same
    transform builds s, so it does not check the spatial operator.
    """

    # (order, slot, index, amplitude) of the modes that carry sin 2t.
    WAVES = [(0, 0, 1, 0.3), (2, 0, 1, 0.2), (1, 0, 2, 0.1)]

    @staticmethod
    def spec(**changes):
        """A slow diffusion keeps every mode of the box non-stiff at these dt."""
        model = dict(diffusion=0.02, mortality=0.3, survival=0.9, spread=0.1)
        return forced_spec(birth=RickerQuadratic(2.0, 0.5), **model, **changes)

    class Manufactured(SpectralIntegrator):
        """The integrator with ``extra(t)`` added to its source at time t."""

        def source(self, ahead=0):
            return super().source(ahead) + self.extra((self.steps + ahead) * self.dt)

    @classmethod
    def trajectory(cls, shape, waves, phase=0.0):
        """c_e(t) and c_e'(t): a flat 3 with a drift of 0.1 t, and sin(2t +
        phase) on ``waves``."""

        def c_e(t, derivative=False):
            c = np.zeros(shape)
            c[0, 0, 0] = 0.1 if derivative else 3.0 + 0.1 * t
            x = 2.0 * t + phase
            for n, slot, j, amplitude in waves:
                c[n, slot, j] = amplitude * (2.0 * np.cos(x) if derivative else np.sin(x))
            return c

        return c_e

    @classmethod
    def error(cls, spec, dt, waves, phase=0.0):
        ig = cls.Manufactured(spec, SolverConfig(dt=dt, t_end=3.0))
        c_e = cls.trajectory(ig.rates.shape, waves, phase)
        orders, width = ig.source_box
        damp = damping_factors(ig.bases, spec.survival, spec.spread)[:orders, :, :width]
        lag, tr = spec.delay, ig.transform
        forced = spec.variant is Variant.MODE_FORCED_BIRTH
        if forced:  # the head's own births, undamped, and f(t - delay) times the static mode
            lag, damp = 0.0, 1.0

        def extra(t):
            births = damp * tr.analyze_values(spec.birth(tr.synthesize_values(c_e(t - lag))))[
                :orders, :, :width
            ]
            s = (c_e(t, derivative=True) + ig.rates * c_e(t))[:orders, :, :width] - births
            return s - spec.forcing_value(t) * ig._static if forced else s

        ig.extra = extra
        result = ig.integrate(lambda t, r, th: tr.synthesize_values(c_e(t)))
        return ig, np.max(np.abs(result.final_state.coeffs - c_e(result.times[-1])))

    @pytest.mark.parametrize(
        "variant, bc, odd",
        [
            (Variant.FULL_ZERO_FLUX, ZERO_FLUX, False),
            (Variant.FULL_ZERO_FLUX, ZERO_FLUX, True),
            (Variant.FULL_DIRICHLET, DIRICHLET, False),
            (Variant.MODE_FORCED_BIRTH, ZERO_FLUX, False),
            (Variant.MODE_FORCED_BIRTH, ZERO_FLUX, True),
        ],
        ids=[
            "zero_flux_half_circle",
            "zero_flux_whole_circle",
            "dirichlet_half_circle",
            "forced_birth_half_circle",
            "forced_birth_whole_circle",
        ],
    )
    def test_second_order_in_dt(self, variant, bc, odd):
        # Errors 3.3e-4, 7.8e-5, 1.9e-5 and 4.6e-6 on the zero-flux half
        # circle. An order-1 sine mode makes the run odd: it marches the
        # whole circle. The forced birth reads the head's births (lag 0)
        # over the whole basis, so its blocks take the cap and each state's
        # births in turn; its forcing varies, so each state's source must be
        # taken at its own time. Its only history state is the t = 0 one, so
        # its waves start off their zero (phase 1), to make that state odd.
        # Errors 3.8e-4, 9.8e-5, 2.5e-5 and 6.3e-6 on its half circle.
        forced = variant is Variant.MODE_FORCED_BIRTH
        forcing = lambda t: 1.0 + 0.5 * np.sin(t)  # noqa: E731
        spec = self.spec(variant=variant, bc=bc, n_max=3, j_max=4, forcing=forcing)
        waves = self.WAVES + [(1, 1, 0, 0.2)] * odd
        runs = [self.error(spec, dt, waves, phase=1.0 * forced) for dt in (0.04, 0.02, 0.01, 0.005)]
        ig, errors = runs[0][0], np.array([error for _, error in runs])
        assert (ig.grid.half_angles if not odd else ig.grid.n_theta) == ig._values.shape[-1]
        assert ig._inline == forced and ig.block > 1
        orders = np.log2(errors[:-1] / errors[1:])
        assert np.all(np.abs(orders - 2.0) <= 0.1), (errors, orders)

    def test_second_order_at_full_disk_sizes(self):
        # c_e lies in the 21 x 7 source box of the n_max 32, j_max 64 basis.
        # Once the analysis' rounding outside that box has been dropped
        # (t ~ 1), the blocks march the box and take their births on the
        # births grid, which the states from t ~ 2 on read. Errors 3.3e-4,
        # 7.8e-5, 1.9e-5 and 4.6e-6.
        spec = self.spec(variant=Variant.FULL_ZERO_FLUX, n_max=32, j_max=64)
        waves = self.WAVES + [(20, 0, 6, 0.01)]
        runs = [self.error(spec, dt, waves) for dt in (0.04, 0.02, 0.01, 0.005)]
        ig, errors = runs[-1][0], np.array([error for _, error in runs])
        assert ig.source_box == (21, 7) and ig._births_transform is not None
        assert ig._reach == ig.source_box
        orders = np.log2(errors[:-1] / errors[1:])
        assert np.all(np.abs(orders - 2.0) <= 0.1), (errors, orders)


class TestLag0LiveOrders:
    """A lag-0 run without a scan synthesises each state over the leading
    orders that hold a nonzero entry, and analyses its births over the
    orders up to the last one above their rounding floor; the static mode is
    kept over its own live box. The run agrees with a plain march of every
    order (``whole_basis_lag0_march``) within 1e-13 of each diagnostics
    column's scale and of the peak coefficient."""

    @staticmethod
    def assert_agrees(ig, w0):
        result = ig.integrate(w0)
        steps = len(result.times) - 1
        rows, coeffs = whole_basis_lag0_march(ig.spec, ig.transform, ig.dt, w0, steps)
        columns = (
            result.times,
            result.max_density,
            result.min_density,
            result.total_population,
            result.dwdt_norm,
        )
        for name, got, want in zip(("t", "max", "min", "population", "rate"), columns, rows):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name
        got = result.final_state.coeffs
        assert np.max(np.abs(got - coeffs)) <= 1e-13 * np.max(np.abs(coeffs))
        return steps

    @staticmethod
    def record_boxes(monkeypatch):
        """The orders of each lag-0 state's synthesis, each checked to hold
        every nonzero entry of its state."""
        boxes, synthesize = [], DiskTransform.synthesize_values

        def recording(self, coeffs, out=None, live=None):
            if live is not None and coeffs.ndim == 3:
                boxes.append(live[0])
                assert not coeffs[live[0] :].any()
            return synthesize(self, coeffs, out, live)

        monkeypatch.setattr(DiskTransform, "synthesize_values", recording)
        return boxes

    @pytest.mark.parametrize("odd", [False, True], ids=["half_circle", "whole_circle"])
    def test_establishment_matches_the_whole_basis_march(self, tmp_path, odd):
        workload = perfbench_workloads()["establishment"]
        text = workload.config_text(7).replace("t_end = 60.0", "t_end = 20.0")
        ig, w0 = cli_run(tmp_path, text)
        if odd:
            w0 = odd_perturbation(ig, w0)
        assert ig._inline and self.assert_agrees(ig, w0) == 2000
        assert ig._values.shape[-1] == (ig.grid.n_theta if odd else ig.grid.half_angles)
        assert ig.block == (10 if odd else 19)
        # The forcing mode lives in orders 0 .. 1, the births in 0 .. 3 by now.
        assert not ig._static[2:].any() and ig._held <= 4
        assert not any(births[4:].any() for births in ig.births)

    def test_delay_0_matches_the_whole_basis_march(self):
        spec = forced_spec(**SOURCE_CASES["full_zero_flux"], delay=0.0, spread=0.0)
        ig = SpectralIntegrator(spec, SolverConfig(dt=0.05, t_end=10.0))
        assert ig._inline and ig._static is None
        assert self.assert_agrees(ig, drifting_patch) == 200

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_births_keep_every_order(self, bad):
        spec = forced_spec(**SOURCE_CASES["mode_forced_birth"])
        ig = SpectralIntegrator(spec, SolverConfig(dt=0.05, t_end=1.0))
        ig.initialize_history(patch_w0)
        samples = np.full_like(ig._values[:1], 0.5)
        samples[0, 3, 1] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            births = ig._analyse_births(samples, ig.transform)[:, :, 0]
        assert (~np.isfinite(births[:, 0])).any(axis=1).all()

    def test_orders_that_come_alive(self, monkeypatch):
        # cos 6 theta in the history: its births live in orders 0, 6 and 12,
        # and then in the orders their products with the forcing mode's
        # order 1 reach. Each state's box must cover them as they come alive.
        spec = forced_spec(**SOURCE_CASES["mode_forced_birth"], n_max=16, j_max=32)
        ig = SpectralIntegrator(spec, SolverConfig(dt=0.01, t_end=20.0))
        k = ig.bases[6].eigenvalues[0]

        def w0(t, r, th):
            return 0.2 + 0.1 * jv(6, k * r) * np.cos(6 * th)

        boxes = self.record_boxes(monkeypatch)
        self.assert_agrees(ig, w0)
        assert len(boxes) == 2000
        assert boxes[0] >= 13  # the t = 0 state's births reach order 12
        assert any(later > earlier for earlier, later in zip(boxes, boxes[1:]))
        assert max(boxes[-100:]) <= 5


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
        ig.initialize_history(lambda t, r, th: 1e-3 * jv(0, k * r))
        for s in range(1, 401):
            ig.step()
            if s == 200:
                middle = ig.coeffs[0, 0, 0]
        return ig.coeffs[0, 0, 0] / middle

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
        ig.initialize_history(patch_w0)
        projected = ig.transform.synthesize_values(ig.coeffs)
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

    def test_population_past_the_float_range_is_recorded_as_inf(self):
        # No threshold applies and every coefficient (at most ~1.5e306) is
        # below float max / packed size, but the population of w0 = 1e306 on
        # a radius-10 disk, about 3.1e308, is not finite: each row holds inf,
        # with a warning, and the run goes on.
        spec = forced_spec(
            variant=Variant.RADIAL, bc=DIRICHLET, birth=Identity(), n_max=0, j_max=8, radius=10.0
        )
        config = SolverConfig(dt=0.05, t_end=0.2, blowup_threshold=math.inf)
        with pytest.warns(RuntimeWarning, match="overflow"):
            result = SpectralIntegrator(spec, config).integrate(
                lambda t, r, th: np.full_like(r, 1e306)
            )
        assert np.all(np.isinf(result.total_population))
        assert np.all(np.isfinite(result.max_density)) and np.all(np.isfinite(result.dwdt_norm))

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
        [dict(variant=Variant.MODE_FORCED_BIRTH, birth=Logistic(2.0, 1.0))],
        ids=["mode_forced_birth"],
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

    def test_forcing_field_is_built_once(self, monkeypatch):
        # The forced source is f(t - delay) times one damped field: its
        # profile is evaluated once per run, not once per Euler step.
        calls = []
        profile = ModelSpec.forcing_profile

        def counting(spec, grid):
            calls.append(grid)
            return profile(spec, grid)

        monkeypatch.setattr(ModelSpec, "forcing_profile", counting)
        spec = forced_spec(diffusion=1.0, delay=0.0, n_max=2, j_max=4)
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
