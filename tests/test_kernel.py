import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import jv

from diskrd.bessel import BoundaryCondition
from diskrd.kernel import (
    LifeHistory,
    alpha_of,
    damping_factors,
    epsilon_of,
    maturation_term,
    maturation_term_radial,
)
from diskrd.transform import DiskField, DiskTransform, build_bases, default_grid
from oracles import pack

DIRICHLET = BoundaryCondition.dirichlet()
ZERO_FLUX = BoundaryCondition.zero_flux()

identity = lambda w: w


class TestLifeHistoryIntegrals:
    def test_no_mortality_gives_full_survival(self):
        lh = LifeHistory(lambda a: 0.0, lambda a: 0.0, tau=5.0)
        assert epsilon_of(lh) == 1.0

    def test_constant_mortality(self):
        # exp(-0.23026 * 10) is 0.100 to the shown digits.
        lh = LifeHistory(lambda a: 0.23026, lambda a: 0.01, tau=10.0)
        assert epsilon_of(lh) == pytest.approx(0.100, abs=1e-4)
        assert epsilon_of(lh) == pytest.approx(np.exp(-2.3026), rel=1e-12)

    def test_zero_delay(self):
        lh = LifeHistory(lambda a: 3.0, lambda a: 2.0, tau=0.0)
        assert epsilon_of(lh) == 1.0
        assert alpha_of(lh) == 0.0

    def test_constant_diffusivity(self):
        lh = LifeHistory(lambda a: 0.0, lambda a: 0.01, tau=10.0)
        assert alpha_of(lh) == pytest.approx(0.1, rel=1e-12)

    def test_age_linear_diffusivity(self):
        lh = LifeHistory(lambda a: 0.0, lambda a: a, tau=2.0)
        assert alpha_of(lh) == pytest.approx(2.0, rel=1e-12)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            LifeHistory(lambda a: 0.0, lambda a: 0.0, tau=-1.0)


@pytest.fixture(scope="module")
def setup_zero_flux():
    bases = build_bases(3, 5, 1.0, ZERO_FLUX)
    grid = default_grid(bases)
    return grid, bases, DiskTransform(grid, bases)


class TestMaturationTerm:
    def test_eigenmode_is_scaled_eigenvector(self, setup_zero_flux):
        grid, bases, tr = setup_zero_flux
        eps, alpha = 0.8, 0.05
        k = bases[0].eigenvalues[1]
        field = DiskField.from_polar(grid, lambda r, th: jv(0, k * r))
        out = maturation_term(field, identity, eps, alpha, bases, tr)
        expected = eps * np.exp(-(k**2) * alpha) * field.values
        assert np.max(np.abs(out.values - expected)) < 1e-8

    def test_every_mode_diagonal(self, setup_zero_flux):
        grid, bases, tr = setup_zero_flux
        eps, alpha = 0.6, 0.1
        for n, basis in enumerate(bases):
            for j, k in enumerate(basis.eigenvalues):
                field = DiskField.from_polar(
                    grid, lambda r, th: jv(n, k * r) * np.cos(n * th)
                )
                out = maturation_term(field, identity, eps, alpha, bases, tr)
                expected = eps * np.exp(-(k**2) * alpha) * field.values
                assert np.max(np.abs(out.values - expected)) < 1e-8

    def test_constant_mode_keeps_survival_scale(self, setup_zero_flux):
        grid, bases, tr = setup_zero_flux
        field = DiskField.from_polar(grid, lambda r, th: np.full_like(r, 3.0))
        out = maturation_term(field, identity, 0.25, 2.0, bases, tr)
        assert_allclose(out.values, 0.75, atol=1e-9)

    def test_no_smoothing_is_projection(self, setup_zero_flux):
        grid, bases, tr = setup_zero_flux
        rng = np.random.default_rng(2)
        a = rng.uniform(-1, 1, (4, 5))
        b = rng.uniform(-1, 1, (3, 5))
        values = tr.synthesize_values(pack(a, b))
        out = maturation_term(DiskField(grid, values), identity, 1.0, 0.0, bases, tr)
        assert np.max(np.abs(out.values - values)) < 1e-8

    def test_zero_field_zero_output(self, setup_zero_flux):
        grid, bases, tr = setup_zero_flux
        out = maturation_term(
            DiskField.zeros(grid), lambda w: 0.25 * w**2, 0.5, 0.1, bases, tr
        )
        assert np.all(out.values == 0.0)

    def test_monotone_damping(self, setup_zero_flux):
        grid, bases, tr = setup_zero_flux
        eps = 0.7
        rng = np.random.default_rng(4)
        a = rng.uniform(-1, 1, (4, 5))
        b = rng.uniform(-1, 1, (3, 5))
        c = pack(a, b)
        values = tr.synthesize_values(c)
        out = maturation_term(DiskField(grid, values), identity, eps, 0.3, bases, tr)
        assert np.all(np.abs(tr.analyze_values(out.values)) <= eps * np.abs(c) + 1e-10)

    def test_rotation_equivariance(self, setup_zero_flux):
        grid, bases, tr = setup_zero_flux
        birth = lambda w: 0.25 * w**2 * np.exp(-0.1 * w)
        rng = np.random.default_rng(6)
        a = rng.uniform(-1, 1, (4, 5))
        b = rng.uniform(-1, 1, (3, 5))
        values = tr.synthesize_values(pack(a, b))
        shift = 5  # whole grid steps keep the rotation exact on the grid
        rotated_in = np.roll(values, shift, axis=1)
        out = maturation_term(DiskField(grid, values), birth, 0.9, 0.02, bases, tr)
        out_rotated = maturation_term(DiskField(grid, rotated_in), birth, 0.9, 0.02, bases, tr)
        assert np.max(np.abs(out_rotated.values - np.roll(out.values, shift, axis=1))) < 1e-8

    def test_radial_consistency(self, setup_zero_flux):
        grid, bases, tr = setup_zero_flux
        birth = lambda w: 0.25 * w**2 * np.exp(-0.1 * w)
        rng = np.random.default_rng(8)
        c = rng.uniform(-1, 1, 5)
        a = np.zeros((4, 5))
        a[0] = c
        values = tr.synthesize_values(pack(a, np.zeros((3, 5))))
        full = maturation_term(DiskField(grid, values), birth, 0.9, 0.05, bases, tr)
        radial = maturation_term_radial(values[:, 0], birth, 0.9, 0.05, bases[0], grid)
        assert np.max(np.abs(full.values - radial[:, None])) < 1e-8

    def test_invalid_survival_rejected(self, setup_zero_flux):
        grid, bases, tr = setup_zero_flux
        with pytest.raises(ValueError):
            maturation_term(DiskField.zeros(grid), identity, 1.5, 0.1, bases, tr)
        with pytest.raises(ValueError):
            maturation_term(DiskField.zeros(grid), identity, 0.5, -0.1, bases, tr)


class TestDampingFactors:
    def test_shape_and_values(self):
        bases = build_bases(1, 3, 1.0, DIRICHLET)
        damp = damping_factors(bases, 0.5, 0.2)
        assert damp.shape == (2, 2, 3)
        k = bases[1].eigenvalues[2]
        assert damp[1, 0, 2] == pytest.approx(0.5 * np.exp(-(k**2) * 0.2), rel=1e-13)
        # Both packed slots of an order share its factors.
        assert np.array_equal(damp[:, 0], damp[:, 1])

    def test_constant_mode_damps_by_survival_only(self):
        bases = build_bases(0, 3, 1.0, ZERO_FLUX)
        damp = damping_factors(bases, 0.37, 5.0)
        assert damp[0, 0, 0] == pytest.approx(0.37, rel=1e-15)
