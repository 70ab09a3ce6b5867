import dataclasses
import math
from collections import deque

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq
from scipy.special import jv, lambertw

from diskrd.bessel import BesselBasis, BoundaryCondition
from diskrd.model import Identity, Logistic, ModelSpec, ModeSeed, RickerQuadratic, Variant, rhs
from diskrd import solver
from diskrd.transform import DiskField, DiskTransform, SpectralField, build_bases
from diskrd.solver import (
    BlowUpError,
    FDGrid,
    Scheme,
    SolverConfig,
    SpectralIntegrator,
    fd_laplacian,
    fd_stability_limit,
    integrate,
    integrate_fd,
    reference_fd_step,
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
    def test_fd_mesh_needs_three_radial_cells(self):
        # Two cells leave the FD-mesh transform no radial mode at all.
        with pytest.raises(ValueError, match="fd_n_r"):
            SolverConfig(fd_n_r=2)
        assert SolverConfig(fd_n_r=3).fd_n_r == 3


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
        assert not np.any(buf.a) and not np.any(buf.b)

    def test_constant_patch_fills_identical_states(self):
        spec = forced_spec(variant=Variant.FULL_ZERO_FLUX, birth=RickerQuadratic(0.25, 0.1))
        ig = SpectralIntegrator(spec, SolverConfig(dt=0.1, t_end=1.0))
        buf = ig.initialize_history(patch_w0)
        assert len(buf.births) == 11
        head_a, head_b = buf.births[-1]
        for a, b in buf.births:
            assert np.array_equal(a, head_a) and np.array_equal(b, head_b)
        # Zero-flux: the constant mode carries the 0.2 mean of the patch.
        assert buf.a[0, 0] == pytest.approx(0.2, abs=1e-10)

    def test_single_mode_history(self):
        ig = SpectralIntegrator(forced_spec(), SolverConfig(dt=0.1, t_end=1.0))
        k = ig.bases[0].eigenvalues[1]
        buf = ig.initialize_history(lambda t, r, th: jv(0, k * r))
        assert buf.a[0, 1] == pytest.approx(1.0, abs=1e-10)
        rest = buf.a.copy()
        rest[0, 1] = 0.0
        assert np.max(np.abs(rest)) < 1e-8

    def test_time_varying_history(self):
        # Identity births, all surviving and undamped: the births queued
        # for the head time are the history at t = -delay.
        spec = forced_spec(
            variant=Variant.FULL_ZERO_FLUX, birth=Identity(), survival=1.0, spread=0.0, delay=0.5
        )
        ig = SpectralIntegrator(spec, SolverConfig(dt=0.25, t_end=1.0))
        buf = ig.initialize_history(lambda t, r, th: np.exp(t) * np.ones_like(r))
        assert buf.births[0][0][0, 0] == pytest.approx(np.exp(-0.5), abs=1e-10)
        assert buf.a[0, 0] == pytest.approx(1.0, abs=1e-10)


class TestStep:
    def test_pure_linear_mode_exact_propagation(self):
        spec = forced_spec(forcing=lambda t: 0.0, delay=0.0)
        config = SolverConfig(dt=0.5, t_end=10.0, snapshot_every=10)
        ig = SpectralIntegrator(spec, config)
        k = ig.bases[1].eigenvalues[0]
        lam = spec.diffusion * k**2 + spec.mortality
        buf = ig.initialize_history(lambda t, r, th: jv(1, k * r) * np.cos(th))
        c0 = buf.a[1, 0]
        for s in range(1, 21):
            ig.step(buf, s)
            expected = np.exp(-lam * s * 0.5) * c0
            # Exponential integrator: exact per-mode decay for any dt.
            assert buf.a[1, 0] == pytest.approx(expected, rel=1e-12)

    def test_zero_state_is_fixed_point(self):
        spec = forced_spec(
            variant=Variant.MODE_FORCED_BIRTH,
            forcing=lambda t: 0.0,
            birth=RickerQuadratic(0.25, 0.1),
        )
        ig = SpectralIntegrator(spec, SolverConfig(dt=0.05, t_end=1.0))
        buf = ig.initialize_history(lambda t, r, th: np.zeros_like(r))
        for s in range(10):
            ig.step(buf, s)
        assert not np.any(buf.a) and not np.any(buf.b)

    def test_blowup_detection(self):
        spec = forced_spec(forcing=lambda t: 1e20)
        ig = SpectralIntegrator(spec, SolverConfig(dt=0.01, t_end=1.0))
        buf = ig.initialize_history(lambda t, r, th: np.zeros_like(r))
        with pytest.raises(BlowUpError):
            for s in range(50):
                ig.step(buf, s)

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
        head = SpectralField(ig.bases, buf.a, buf.b)
        _, source = rhs(buf.t_head, head, tr.synthesize(lagged), spec, tr)
        sa, _ = tr.analyze_values(source.values)
        expected = np.exp(-sigma * tau) * buf.a[0, 1]
        assert sa[0, 1] == pytest.approx(expected, abs=1e-9)
        assert ig.source(buf)[0][0, 1] == pytest.approx(expected, abs=1e-9)


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
    "radial": dict(variant=Variant.RADIAL, bc=DIRICHLET, birth=RickerQuadratic(0.25, 0.1), n_max=2),
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
                lagged = DiskField(ig.grid, tr.synthesize_values(*states[0]))
                head = SpectralField(ig.bases, buf.a, buf.b)
                _, field = rhs(buf.t_head, head, lagged, ig.spec, tr)
                ea, eb = tr.analyze_values(field.values)
                sa, sb = ig.source(buf)
                scale = max(np.max(np.abs(ea)), np.max(np.abs(eb)))
                assert np.max(np.abs(sa - ea)) <= 1e-12 * scale
                assert np.max(np.abs(sb - eb)) <= 1e-12 * scale
            ig.step(buf, s + 1)
            states.append((buf.a, buf.b))

    @pytest.mark.parametrize(
        "case, analyses",
        [
            ("mode_forced", 0),
            ("mode_forced_birth", 1),
            ("full_zero_flux", 1),
            ("full_dirichlet", 1),
            ("full_zero_flux_seed", 0),
            ("full_dirichlet_seed", 0),
            ("radial", 0),
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
            ig.step(buf, s)
        # A whole block costs what one state does: one stacked call each.
        ig.step(buf, 6, ig.block)
        assert counts == {
            "analyze": 6 * analyses,
            "synthesize": 6,
            "radial_table": 0,
            "spectral_field": 0,
        }

    @staticmethod
    def count_analyses(monkeypatch):
        calls = []
        original = DiskTransform.analyze_values

        def counting(self, values):
            calls.append(1)
            return original(self, values)

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
        reads_births = case in ("full_zero_flux", "full_dirichlet", "radial")
        expected = ig.lag_steps + 1 if reads_births else 0
        buf = ig.initialize_history(drifting_patch)
        assert len(buf.births) == expected
        for s in range(1, 4):
            ig.step(buf, s)
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
        values = tr.synthesize_values(buf.a, buf.b)
        rows = [(0.0, values.max(), values.min(), ig.grid.integrate(values), 0.0)]
        samples = [values]
        for i in range(1, round(ig.config.t_end / ig.dt) + 1):
            a, b = buf.a, buf.b
            ig.step(buf, i)
            values = tr.synthesize_values(buf.a, buf.b)
            rate = tr.weighted_l2(buf.a - a, buf.b - b) / ig.dt
            rows.append((buf.t_head, values.max(), values.min(), ig.grid.integrate(values), rate))
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
        for got, want in ((result.final_state.a, buf.a), (result.final_state.b, buf.b)):
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * np.max(np.abs(buf.a))
        final = samples[-1]
        assert np.max(np.abs(result.final_field.values - final)) <= 1e-12 * np.max(np.abs(final))
        # Snapshots fall inside blocks (every third step); each keeps its own
        # state although the block's samples are overwritten by its births.
        assert [t for t, _ in result.snapshots] == [i * ig.dt for i in range(0, 42, 3)] + [42 * ig.dt]
        for t, field in result.snapshots:
            want = samples[round(t / ig.dt)]
            assert np.max(np.abs(field.values - want)) <= 1e-12 * np.max(np.abs(want))

    def test_snapshot_survives_the_next_block(self):
        ig = self.integrator("full_zero_flux", snapshot_every=2)
        assert ig.block == 5
        buf = ig.initialize_history(drifting_patch)
        recorder = solver._Recorder(10, ig.grid, ig.config)
        ig.step(buf, 1, 5, recorder.record)
        taken = [(t, field.values.copy()) for t, field in recorder.snapshots]
        assert [t for t, _ in taken] == [2 * ig.dt, 4 * ig.dt]
        ig.step(buf, 6, 5, recorder.record)
        for (t, before), (t_after, field) in zip(taken, recorder.snapshots):
            assert t == t_after and np.array_equal(field.values, before)

    @pytest.mark.parametrize("case", ["mode_forced_birth", "full_zero_flux"])
    def test_more_states_than_the_block_are_rejected(self, case):
        ig = self.integrator(case)
        buf = ig.initialize_history(patch_w0)
        with pytest.raises(ValueError, match="states"):
            ig.step(buf, 1, ig.block + 1)

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
        # The forcing, and so a coefficient, overflows; no threshold applies.
        "coefficient_overflow": (
            dict(variant=Variant.MODE_FORCED, forcing=lambda t: np.power(10.0, 100.0 * t)),
            math.inf,
        ),
    }

    # Past |c| ~ 1e154 the dw/dt norm of a recorded row overflows to inf.
    @pytest.mark.filterwarnings("ignore:overflow encountered in square:RuntimeWarning")
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
                ig.step(buf, i)

        ig = SpectralIntegrator(spec, config)
        blocked = self.first_blowup(lambda: ig.integrate(patch_w0))
        single = self.first_blowup(chain)
        assert blocked.step_index == single.step_index
        assert blocked.t == single.t and blocked.magnitude == single.magnitude
        assert (blocked.step_index - 1) % ig.block != 0  # raised mid-block
        assert math.isinf(blocked.magnitude) == (case != "coefficient_threshold")

    def test_block_finishes_states_before_a_coefficient_blowup(self):
        config = SolverConfig(dt=0.05, t_end=100.0, blowup_threshold=20.0)
        ig = SpectralIntegrator(self.growing_spec(Identity()), config)
        states = []
        buf = ig.initialize_history(patch_w0)
        for i in range(1, 2001):
            try:
                ig.step(buf, i)
            except BlowUpError as exc:
                bad = exc.step_index
                break
            states.append((buf.a, buf.b))
        buf = ig.initialize_history(patch_w0)
        first = bad - (bad - 1) % ig.block
        for i in range(1, first, ig.block):
            ig.step(buf, i, ig.block)
        with pytest.raises(BlowUpError):
            ig.step(buf, first, ig.block)
        # States first .. bad - 1 of the failing block were completed.
        assert buf.steps == bad - 1 > first - 1
        want_a, want_b = states[bad - 2]
        assert np.max(np.abs(buf.a - want_a)) <= 1e-12 * np.max(np.abs(want_a))
        assert np.max(np.abs(buf.b - want_b), initial=0.0) <= 1e-12 * np.max(np.abs(want_a))

    @pytest.mark.parametrize("case", ["mode_forced", "full_dirichlet", "radial"])
    def test_repeated_runs_are_identical(self, case):
        ig = self.integrator(case, snapshot_every=4)
        runs = [ig.integrate(drifting_patch), ig.integrate(drifting_patch)]
        runs.append(self.integrator(case, snapshot_every=4).integrate(drifting_patch))
        first = runs[0]
        for other in runs[1:]:
            for attr in ("times", "max_density", "min_density", "total_population", "dwdt_norm"):
                assert np.array_equal(getattr(first, attr), getattr(other, attr))
            assert np.array_equal(first.final_state.a, other.final_state.a)
            assert np.array_equal(first.final_state.b, other.final_state.b)
            assert np.array_equal(first.final_field.values, other.final_field.values)
            for (t1, f1), (t2, f2) in zip(first.snapshots, other.snapshots, strict=True):
                assert t1 == t2 and np.array_equal(f1.values, f2.values)


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
            ig.step(buf, s)
            if s >= ig.lag_steps:
                err = abs(buf.a[0, index] - self.exact(buf.t_head, lam, beta))
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
            ig.step(buf, s)
            if s == 200:
                middle = buf.a[0, 0]
        return buf.a[0, 0] / middle

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
        result = integrate(spec, SolverConfig(dt=0.01, t_end=0.0), patch_w0)
        assert result.times.size == 1
        assert len(result.snapshots) == 1
        ig = SpectralIntegrator(spec, SolverConfig(dt=0.01, t_end=0.0))
        buf = ig.initialize_history(patch_w0)
        projected = ig.transform.synthesize_values(buf.a, buf.b)
        assert_allclose(result.final_field.values, projected, atol=1e-14)

    def test_diagnostics_lengths_and_monotone_time(self):
        spec = forced_spec()
        result = integrate(spec, SolverConfig(dt=0.05, t_end=0.5, snapshot_every=5), patch_w0)
        assert result.times.size == 11
        assert np.all(np.diff(result.times) > 0.0)
        assert result.times[-1] == pytest.approx(0.5)
        assert len(result.snapshots) == 3  # t = 0, 0.25, 0.5

    @pytest.mark.parametrize("dt, t_end, n", [(0.01, 1.0, 100), (0.3, 0.9, 4)])
    def test_times_are_exact_step_multiples(self, dt, t_end, n):
        # Times are a step count times dt, not a running sum of dt; the
        # count uses dt after rounding to the delay (0.3 -> 0.25).
        result = integrate(forced_spec(), SolverConfig(dt=dt, t_end=t_end), patch_w0)
        assert result.times.size == n + 1
        assert np.array_equal(result.times, np.arange(n + 1) * result.dt)

    def test_radial_symmetry_preserved_whole_run(self):
        spec = forced_spec(
            variant=Variant.RADIAL,
            bc=DIRICHLET,
            birth=RickerQuadratic(0.25, 0.1),
            delay=0.1,
            n_max=3,
            j_max=5,
        )
        rng = np.random.default_rng(21)
        c = rng.uniform(0.0, 0.5, 5)

        def w0(t, r, th):
            basis = SpectralIntegrator(spec, SolverConfig(dt=0.05, t_end=1.0)).bases[0]
            return sum(
                c[j] * jv(0, basis.eigenvalues[j] * r) for j in range(5)
            )

        result = integrate(spec, SolverConfig(dt=0.05, t_end=1.0), w0)
        final = result.final_state
        assert np.max(np.abs(final.a[1:])) < 1e-10
        assert np.max(np.abs(final.b)) < 1e-10

    def test_convergence_flag_for_decaying_run(self):
        spec = forced_spec(forcing=lambda t: 0.0, diffusion=5.0, mortality=1.0, delay=0.0)
        config = SolverConfig(dt=0.01, t_end=30.0, convergence_tol=1e-8)
        result = integrate(spec, config, lambda t, r, th: 0.1 * np.ones_like(r))
        assert result.converged
        assert result.converged_at is not None
        assert result.dwdt_norm[-1] < 1e-8

    def test_reference_scheme_matches_spectral_on_short_horizon(self):
        spec = forced_spec()
        spectral = integrate(spec, SolverConfig(dt=0.01, t_end=0.5), patch_w0)
        config = SolverConfig(
            dt=0.01, t_end=0.5, scheme=Scheme.REFERENCE_FD, fd_n_r=24, fd_n_theta=16
        )
        reference = integrate(spec, config, patch_w0)
        assert reference.times[-1] == pytest.approx(0.5)
        assert reference.max_density[-1] == pytest.approx(
            spectral.max_density[-1], rel=2e-3
        )
        assert reference.total_population[-1] == pytest.approx(
            spectral.total_population[-1], rel=2e-3
        )


class TestReferenceFD:
    def test_zero_field_stays_zero(self):
        spec = forced_spec(forcing=lambda t: 0.0)
        fd = FDGrid(1.0, 16, 8)
        values = np.zeros((16, 8))
        out = reference_fd_step(values, spec, fd, 0.5 * fd_stability_limit(spec, fd))
        assert np.all(out == 0.0)

    def test_constant_conserved_under_zero_flux(self):
        spec = forced_spec(forcing=lambda t: 0.0, mortality=0.0)
        fd = FDGrid(1.0, 16, 8)
        values = np.full((16, 8), 0.7)
        out = reference_fd_step(values, spec, fd, 0.5 * fd_stability_limit(spec, fd))
        assert np.array_equal(out, values)

    def test_stability_bound_enforced(self):
        spec = forced_spec()
        fd = FDGrid(1.0, 16, 8)
        with pytest.raises(ValueError, match="stability"):
            reference_fd_step(np.zeros((16, 8)), spec, fd, 10.0 * fd_stability_limit(spec, fd))

    def test_eigenmode_decay_rate_within_one_percent(self):
        spec = forced_spec(
            forcing=lambda t: 0.0, diffusion=1.0, mortality=0.0, bc=DIRICHLET, delay=0.0
        )
        fd = FDGrid(1.0, 128, 8)
        k = 2.404825557695773
        lam = spec.diffusion * k**2
        r, _ = fd.mesh()
        values = jv(0, k * r) * np.ones((fd.n_r, fd.n_theta))
        t_end = 0.02
        final, _ = integrate_fd(spec, fd, values, t_end)
        rate = -np.log(final[0, 0] / values[0, 0]) / t_end
        assert abs(rate - lam) / lam < 0.01

    def test_laplacian_of_radial_quadratic(self):
        # Laplacian(r^2) = 4; the conservative stencil reproduces it
        # exactly away from the boundary row.
        spec = forced_spec(forcing=lambda t: 0.0)
        fd = FDGrid(1.0, 64, 8)
        r, _ = fd.mesh()
        lap = fd_laplacian(r**2 * np.ones((fd.n_r, fd.n_theta)), spec, fd)
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
        fd = FDGrid(1.0, 24, 12)
        values = np.full((24, 12), 1.0)
        dt = 0.5 * fd_stability_limit(spec, fd)
        out = reference_fd_step(values, spec, fd, dt)
        # Flat field: diffusion is silent and the source is survival * w,
        # up to the midpoint-quadrature accuracy of the projection.
        assert_allclose((out - 1.0) / dt, 0.5, rtol=1e-2)

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
        fd = FDGrid(1.0, 12, 8)
        integrate_fd(spec, fd, np.ones((12, 8)), 20 * fd_stability_limit(spec, fd))
        assert len(calls) == 1
        calls.clear()
        config = SolverConfig(
            dt=0.002, t_end=0.004, scheme=Scheme.REFERENCE_FD, fd_n_r=12, fd_n_theta=8
        )
        integrate(spec, config, lambda t, r, th: np.ones_like(r))
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
        config = SolverConfig(dt=2e-4, t_end=4e-4, scheme=Scheme.REFERENCE_FD)
        result = integrate(spec, config, patch_w0)
        assert result.times.size == 3
        assert (result.final_state.n_max, result.final_state.j_max) == (11, 30)
        assert np.all(np.isfinite(result.final_field.values))

    def test_maturation_variant_with_delay_requires_lagged(self):
        spec = forced_spec(variant=Variant.FULL_ZERO_FLUX, birth=Identity(), delay=1.0)
        fd = FDGrid(1.0, 16, 8)
        with pytest.raises(ValueError, match="delay"):
            reference_fd_step(
                np.zeros((16, 8)), spec, fd, 0.5 * fd_stability_limit(spec, fd)
            )


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
        coarse = integrate(spec, SolverConfig(dt=0.01, t_end=400.0), patch_w0)
        fine = integrate(spec, SolverConfig(dt=0.005, t_end=400.0), patch_w0)
        for attr in ("max_density", "min_density", "total_population"):
            a = getattr(coarse, attr)[-1]
            b = getattr(fine, attr)[-1]
            assert abs(a - b) / abs(b) < 1e-4
