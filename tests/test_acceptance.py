"""Acceptance suite: one test per contract criterion, at its stated tolerance.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``)
in addition to its pytest verdict. The two simulation scenarios reuse
module-scoped runs; expect the module to take a couple of minutes.
"""

import time

import numpy as np
import pytest
from scipy.special import jv

from diskrd.bessel import BoundaryCondition, find_eigenvalues
from diskrd.kernel import maturation_term, maturation_term_radial
from diskrd.model import ModelSpec, RickerQuadratic, Variant
from diskrd.solver import SolverConfig, SpectralIntegrator, reference_fd
from diskrd.transform import (
    DiskField,
    DiskTransform,
    SpectralField,
    build_bases,
    default_grid,
    synthesize_on,
)

from oracles import bessel_zero, equilibria_scan, pack, quad_mode_norm

DIRICHLET = BoundaryCondition.dirichlet()
ZERO_FLUX = BoundaryCondition.zero_flux()


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def patch_w0(t, r, th):
    x = r * np.cos(th)
    y = r * np.sin(th)
    return 0.2 + 0.02 * np.sin(3 * x) * np.cos(2 * y)


def experiment_spec(**kw):
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
    )
    base.update(kw)
    return ModelSpec(**base)


@pytest.fixture(scope="module")
def extinction_run():
    spec = experiment_spec()
    started = time.perf_counter()
    config = SolverConfig(dt=0.01, t_end=400.0, snapshot_every=8000)
    result = SpectralIntegrator(spec, config).integrate(patch_w0)
    elapsed = time.perf_counter() - started
    return result, elapsed


@pytest.fixture(scope="module")
def establishment_run():
    spec = experiment_spec(
        variant=Variant.MODE_FORCED_BIRTH, birth=RickerQuadratic(0.25, 0.1)
    )
    started = time.perf_counter()
    config = SolverConfig(dt=0.01, t_end=400.0, snapshot_every=8000)
    result = SpectralIntegrator(spec, config).integrate(patch_w0)
    elapsed = time.perf_counter() - started
    return result, elapsed, spec


class TestExtinctionRun:
    def test_terminal_max_density_band(self, extinction_run):
        result, elapsed = extinction_run
        terminal = result.max_density[-1]
        ok = terminal <= 1e-4 and 5.3e-8 <= terminal <= 5.3e-4
        report(
            "extinction terminal density",
            ok,
            f"max density {terminal:.3e} at t=400 "
            f"(required <= 1e-4 and within 100x of 5.3e-6; run took {elapsed:.0f}s)",
        )

    def test_max_density_monotone_after_transient(self, extinction_run):
        result, _ = extinction_run
        start = int(np.searchsorted(result.times, 50.0))
        drops = np.diff(result.max_density[start:])
        ok = bool(np.all(drops <= 1e-12))
        report(
            "extinction monotony",
            ok,
            f"max density non-increasing after t=50 (worst rise {drops.max():.2e})",
        )


class TestEstablishmentRun:
    def test_converges(self, establishment_run):
        result, elapsed, _ = establishment_run
        ok = result.converged and result.dwdt_norm[-1] < 1e-6
        report(
            "establishment convergence",
            ok,
            f"converged={result.converged} at t={result.converged_at} "
            f"(terminal rate norm {result.dwdt_norm[-1]:.2e}; run took {elapsed:.0f}s)",
        )

    def test_terminal_field_positive(self, establishment_run):
        result, _, _ = establishment_run
        minimum = result.min_density[-1]
        report(
            "establishment positivity", minimum > 0.0, f"terminal min density {minimum:.4f}"
        )

    def test_mean_matches_equilibrium_root(self, establishment_run):
        result, _, spec = establishment_run
        mean = result.total_population[-1] / (np.pi * spec.radius**2)
        roots = equilibria_scan(spec.birth, spec.mortality, 200.0)
        gaps = [abs(mean - root) / max(root, 1e-12) for root in roots if root > 0.0]
        ok = min(gaps) <= 0.05
        report(
            "establishment equilibrium",
            ok,
            f"terminal mean {mean:.4f} vs roots {[f'{r:.4f}' for r in roots]} "
            f"(closest relative gap {min(gaps):.2e})",
        )


class TestLinearModeOracle:
    def test_ten_random_modes_decay_exactly(self):
        rng = np.random.default_rng(20250809)
        conditions = [DIRICHLET, ZERO_FLUX, BoundaryCondition.mixed(1.0, 2.0)]
        worst = 0.0
        for _ in range(10):
            n = int(rng.integers(0, 5))
            j = int(rng.integers(1, 5))
            bc = conditions[int(rng.integers(0, 3))]
            spec = experiment_spec(
                diffusion=0.3,
                mortality=0.2,
                bc=bc,
                forcing=lambda t: 0.0,
                delay=0.0,
                n_max=5,
                j_max=5,
            )
            ig = SpectralIntegrator(spec, SolverConfig(dt=0.01, t_end=1.0))
            k = ig.bases[n].eigenvalues[j - 1]
            lam = spec.diffusion * k**2 + spec.mortality

            def w0(t, r, th, n=n, k=k):
                return jv(n, k * r) * np.cos(n * th)

            buf = ig.initialize_history(w0)
            c0 = buf.coeffs[n, 0, j - 1]
            for s in range(1, 101):
                ig.step(buf)
            err = abs(buf.coeffs[n, 0, j - 1] / c0 - np.exp(-lam)) / np.exp(-lam)
            worst = max(worst, err)
        report(
            "linear mode decay",
            worst < 1e-10,
            f"worst relative error {worst:.2e} over 10 random modes at t=1",
        )


@pytest.fixture(scope="module")
def default_bases():
    return {
        "dirichlet": build_bases(16, 32, 1.0, DIRICHLET),
        "zero_flux": build_bases(16, 32, 1.0, ZERO_FLUX),
    }


class TestTransformSuite:
    def test_orthogonality_residuals(self, default_bases):
        worst = 0.0
        for bases in default_bases.values():
            grid = default_grid(bases)
            scale = max(basis.norms.max() for basis in bases)
            for basis in bases:
                table = basis.radial_table(grid.r_nodes)
                gram = (table * (grid.r_weights * grid.r_nodes)) @ table.T
                off = gram - np.diag(np.diag(gram))
                worst = max(worst, float(np.max(np.abs(off))) / scale)
        report(
            "transform orthogonality",
            worst < 1e-8,
            f"worst off-diagonal residual {worst:.2e} (relative to the largest norm)",
        )

    def test_round_trip_on_100_random_fields(self, default_bases):
        bases = default_bases["zero_flux"]
        tr = DiskTransform(default_grid(bases), bases)
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            c = pack(rng.uniform(-1.0, 1.0, (17, 32)), rng.uniform(-1.0, 1.0, (16, 32)))
            worst = max(worst, float(np.max(np.abs(tr.analyze_values(tr.synthesize_values(c)) - c))))
        report(
            "transform round trip",
            worst < 1e-8,
            f"worst coefficient error {worst:.2e} over 100 random truncated fields",
        )

    def test_closed_form_norms_match_quadrature(self, default_bases):
        worst_grid = 0.0
        for bases in default_bases.values():
            grid = default_grid(bases)
            for basis in bases:
                table = basis.radial_table(grid.r_nodes)
                quadrature = (table**2 * (grid.r_weights * grid.r_nodes)).sum(axis=1)
                rel = np.max(np.abs(quadrature - basis.norms) / basis.norms)
                worst_grid = max(worst_grid, float(rel))
        # Independent adaptive-quadrature spot checks on a random subset.
        rng = np.random.default_rng(7)
        worst_quad = 0.0
        bases = default_bases["dirichlet"]
        for _ in range(12):
            n = int(rng.integers(0, 17))
            j = int(rng.integers(0, 32))
            k = bases[n].eigenvalues[j]
            rel = abs(quad_mode_norm(n, k, 1.0) - bases[n].norms[j]) / bases[n].norms[j]
            worst_quad = max(worst_quad, rel)
        ok = worst_grid < 1e-8 and worst_quad < 1e-8
        report(
            "transform norms",
            ok,
            f"closed form vs quadrature: grid {worst_grid:.2e}, adaptive {worst_quad:.2e}",
        )


class TestKernelDiagonality:
    def test_every_mode_is_damped_eigenvector(self, default_bases):
        survival, spread = 0.6, 0.1
        worst = 0.0
        for bases in default_bases.values():
            grid = default_grid(bases)
            tr = DiskTransform(grid, bases)
            damp = survival * np.exp(
                -np.stack([b.eigenvalues for b in bases]) ** 2 * spread
            )
            for n in range(17):
                for j in range(32):
                    c = np.zeros((17, 2, 32))
                    c[n, 0, j] = 1.0
                    mode = tr.synthesize_values(c)
                    out = maturation_term(
                        DiskField(grid, mode), lambda w: w, survival, spread, bases, tr
                    )
                    err = np.max(np.abs(out.values - damp[n, j] * mode))
                    worst = max(worst, float(err))
        report(
            "kernel diagonality",
            worst < 1e-8,
            f"worst deviation {worst:.2e} over all {2 * 17 * 32} stored modes",
        )

    def test_full_disk_matches_radial_path(self, default_bases):
        bases = default_bases["zero_flux"]
        grid = default_grid(bases)
        tr = DiskTransform(grid, bases)
        birth = RickerQuadratic(0.25, 0.1)
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(5):
            c = np.zeros((17, 2, 32))
            c[0, 0] = rng.uniform(0.0, 0.5, 32)
            values = tr.synthesize_values(c)
            full = maturation_term(DiskField(grid, values), birth, 0.9, 0.05, bases, tr)
            radial = maturation_term_radial(values[:, 0], birth, 0.9, 0.05, bases[0], grid)
            worst = max(worst, float(np.max(np.abs(full.values - radial[:, None]))))
        report(
            "kernel radial agreement",
            worst < 1e-8,
            f"worst full-disk vs order-zero-path deviation {worst:.2e}",
        )


class TestCrossIntegrator:
    def test_spectral_vs_reference_fd_at_t1(self):
        spec = experiment_spec()
        config = SolverConfig(dt=0.01, t_end=1.0, snapshot_every=100)
        ig = SpectralIntegrator(spec, config)
        spectral = ig.integrate(patch_w0)

        # The FD run starts from the spectral run's projected initial state.
        initial = SpectralField(ig.bases, ig.initialize_history(patch_w0).coeffs)
        fd_config = SolverConfig(dt=1.0, t_end=1.0)
        started = time.perf_counter()
        result = reference_fd(
            spec, fd_config, lambda t, r, th: synthesize_on(initial, r[:, 0], th[0]), 24, 16
        )
        elapsed = time.perf_counter() - started
        fd, final, dt_used = result.grid, result.final_field.values, result.dt

        reference = synthesize_on(spectral.final_state, fd.r_nodes, fd.theta_nodes)
        weights = fd.r_nodes[:, None] * np.ones_like(final)
        rel = float(
            np.sqrt(np.sum(weights * (final - reference) ** 2) / np.sum(weights * reference**2))
        )
        report(
            "cross integrator",
            rel < 1e-3,
            f"relative L2 gap {rel:.2e} at t=1 "
            f"(FD {fd.n_r}x{fd.n_theta}, dt={dt_used:.1e}, {elapsed:.0f}s)",
        )


class TestEigenvalueTable:
    def test_first_three_zeros_of_orders_zero_and_one(self):
        worst = 0.0
        quoted = {(1, 1): 3.83}  # the working value used by the experiments
        for order in (0, 1):
            basis = find_eigenvalues(order, 1.0, DIRICHLET, 3)
            for j in range(3):
                oracle = bessel_zero(order, j + 1)
                worst = max(worst, abs(basis.eigenvalues[j] - oracle))
                if (order, j + 1) in quoted:
                    assert abs(basis.eigenvalues[j] - quoted[(order, j + 1)]) < 5e-3
        report(
            "eigenvalue table",
            worst < 1e-9,
            f"worst gap to the series-bisection oracle {worst:.2e}",
        )
