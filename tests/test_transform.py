import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import jv

from diskrd.bessel import BoundaryCondition
from diskrd.transform import (
    DiskField,
    DiskGrid,
    DiskTransform,
    SpectralField,
    analyze_radial,
    build_bases,
    default_grid,
    synthesize_on,
    synthesize_radial,
    write_coefficients_csv,
    write_field_csv,
)


DIRICHLET = BoundaryCondition.dirichlet()
ZERO_FLUX = BoundaryCondition.zero_flux()


@pytest.fixture(scope="module")
def small_setup():
    bases = build_bases(4, 6, 1.0, DIRICHLET)
    grid = default_grid(bases)
    return grid, bases, DiskTransform(grid, bases)


class TestDiskGrid:
    def test_nodes_strictly_interior(self):
        grid = DiskGrid.gauss_legendre(2.0, 16, 8)
        assert np.all(grid.r_nodes > 0.0) and np.all(grid.r_nodes < 2.0)

    def test_weight_moment_is_exact(self):
        for grid in (
            DiskGrid.gauss_legendre(1.7, 12, 8),
            DiskGrid.cell_centered(1.7, 12, 8),
        ):
            moment = np.dot(grid.r_weights, grid.r_nodes)
            assert moment == pytest.approx(0.5 * 1.7**2, rel=1e-13)

    def test_integrate_area(self):
        grid = DiskGrid.gauss_legendre(1.0, 24, 16)
        ones = np.ones((grid.n_r, grid.n_theta))
        assert grid.integrate(ones) == pytest.approx(np.pi, rel=1e-12)

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            DiskGrid(1.0, np.array([0.5]), np.array([0.5]), np.array([0.1, 3.0]))


class TestAnalyze:
    def test_zero_field(self, small_setup):
        grid, bases, tr = small_setup
        coeffs = tr.analyze(DiskField.zeros(grid))
        assert not np.any(coeffs.a) and not np.any(coeffs.b)

    def test_single_radial_mode(self, small_setup):
        grid, bases, tr = small_setup
        k = bases[0].eigenvalues[0]
        field = DiskField.from_polar(grid, lambda r, th: jv(0, k * r))
        coeffs = tr.analyze(field)
        assert coeffs.a[0, 0] == pytest.approx(1.0, abs=1e-10)
        rest = coeffs.a.copy()
        rest[0, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-8
        assert np.max(np.abs(coeffs.b)) < 1e-8

    def test_seeded_angular_mode_has_unit_coefficient(self, small_setup):
        # J_1(k r) cos(theta) with k the first order-one eigenvalue: the
        # norm convention forces coefficient exactly one.
        grid, bases, tr = small_setup
        k = bases[1].eigenvalues[0]
        assert k == pytest.approx(3.8317, abs=1e-4)
        field = DiskField.from_polar(grid, lambda r, th: jv(1, k * r) * np.cos(th))
        coeffs = tr.analyze(field)
        assert coeffs.a[1, 0] == pytest.approx(1.0, abs=1e-8)
        mask = np.ones_like(coeffs.a, dtype=bool)
        mask[1, 0] = False
        assert np.max(np.abs(coeffs.a[mask])) < 1e-8
        assert np.max(np.abs(coeffs.b)) < 1e-8

    def test_sine_mode(self, small_setup):
        grid, bases, tr = small_setup
        k = bases[2].eigenvalues[1]
        field = DiskField.from_polar(
            grid, lambda r, th: 0.7 * jv(2, k * r) * np.sin(2 * th)
        )
        coeffs = tr.analyze(field)
        assert coeffs.b[1, 1] == pytest.approx(0.7, abs=1e-8)

    def test_aliasing_guard(self):
        bases = build_bases(3, 4, 1.0, DIRICHLET)
        grid = DiskGrid.gauss_legendre(1.0, 16, 7)  # needs >= 2*3+2 = 8
        with pytest.raises(ValueError, match="resolve"):
            DiskTransform(grid, bases)

    def test_too_few_radii_rejected(self):
        bases = build_bases(1, 8, 1.0, DIRICHLET)
        grid = DiskGrid.gauss_legendre(1.0, 9, 16)
        with pytest.raises(ValueError, match="radial modes"):
            DiskTransform(grid, bases)

    def test_radius_mismatch_rejected(self):
        bases = build_bases(1, 4, 1.0, DIRICHLET)
        grid = DiskGrid.gauss_legendre(2.0, 16, 8)
        with pytest.raises(ValueError, match="radius"):
            DiskTransform(grid, bases)


class TestSynthesize:
    def test_zero_coefficients(self, small_setup):
        grid, bases, tr = small_setup
        field = tr.synthesize(SpectralField.zeros(bases))
        assert np.all(field.values == 0.0)

    def test_single_mode_scaling(self, small_setup):
        grid, bases, tr = small_setup
        coeffs = SpectralField.zeros(bases)
        coeffs.a[0, 0] = 2.0
        field = tr.synthesize(coeffs)
        k = bases[0].eigenvalues[0]
        expected = 2.0 * jv(0, k * grid.r_nodes)
        assert_allclose(field.values[:, 3], expected, atol=1e-13)

    def test_round_trip_random(self, small_setup):
        grid, bases, tr = small_setup
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.uniform(-1.0, 1.0, (5, 6))
            b = rng.uniform(-1.0, 1.0, (4, 6))
            a2, b2 = tr.analyze_values(tr.synthesize_values(a, b))
            assert np.max(np.abs(a2 - a)) < 1e-8
            assert np.max(np.abs(b2 - b)) < 1e-8

    def test_synthesize_on_matches_grid_synthesis(self, small_setup):
        grid, bases, tr = small_setup
        rng = np.random.default_rng(3)
        coeffs = SpectralField(
            bases, rng.uniform(-1, 1, (5, 6)), rng.uniform(-1, 1, (4, 6))
        )
        direct = synthesize_on(coeffs, grid.r_nodes, grid.theta_nodes)
        assert_allclose(direct, tr.synthesize(coeffs).values, atol=1e-12)


class TestStacked:
    """A leading stack axis transforms each state as a call of its own would."""

    @pytest.mark.parametrize("n_max", [0, 4])
    def test_stack_matches_single_calls(self, n_max):
        bases = build_bases(n_max, 6, 1.0, ZERO_FLUX)
        tr = DiskTransform(default_grid(bases), bases)
        rng = np.random.default_rng(5)
        a = rng.uniform(-1.0, 1.0, (3, n_max + 1, 6))
        b = rng.uniform(-1.0, 1.0, (3, n_max, 6))
        values = tr.synthesize_values(a, b)
        assert values.shape == (3, tr.grid.n_r, tr.grid.n_theta)
        sa, sb = tr.analyze_values(values)
        assert sa.shape == a.shape and sb.shape == b.shape
        for k in range(3):
            single = tr.synthesize_values(a[k], b[k])
            assert np.max(np.abs(values[k] - single)) <= 1e-14 * np.max(np.abs(single))
            ka, kb = tr.analyze_values(single)
            assert np.max(np.abs(sa[k] - ka)) <= 1e-14 * np.max(np.abs(ka))
            assert np.max(np.abs(sb[k] - kb), initial=0.0) <= 1e-14 * np.max(np.abs(ka))

    def test_out_receives_the_samples(self, small_setup):
        grid, bases, tr = small_setup
        rng = np.random.default_rng(6)
        a = rng.uniform(-1.0, 1.0, (2, 5, 6))
        b = rng.uniform(-1.0, 1.0, (2, 4, 6))
        out = np.empty((4, grid.n_r, grid.n_theta))
        view = out[:2]
        assert tr.synthesize_values(a, b, view) is view
        assert np.array_equal(out[:2], tr.synthesize_values(a, b))
        with pytest.raises(ValueError, match="contiguous"):
            tr.synthesize_values(a, b, out[::2])

    def test_profile_stack_matches_single_profiles(self, small_setup):
        grid, bases, tr = small_setup
        rng = np.random.default_rng(7)
        coeffs = rng.uniform(-1.0, 1.0, (3, 6))
        profiles = tr.synthesize_profile(coeffs)
        stacked = tr.analyze_profile(profiles)
        for k in range(3):
            assert_allclose(profiles[k], tr.synthesize_profile(coeffs[k]), rtol=0, atol=1e-14)
            assert_allclose(stacked[k], tr.analyze_profile(profiles[k]), rtol=0, atol=1e-13)
            assert_allclose(stacked[k], coeffs[k], rtol=0, atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_round_trip_property(seed):
    bases = test_round_trip_property.bases
    tr = test_round_trip_property.transform
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (3, 4))
    b = rng.uniform(-1.0, 1.0, (2, 4))
    a2, b2 = tr.analyze_values(tr.synthesize_values(a, b))
    assert np.max(np.abs(a2 - a)) < 1e-8
    assert np.max(np.abs(b2 - b)) < 1e-8


test_round_trip_property.bases = build_bases(2, 4, 1.0, ZERO_FLUX)
test_round_trip_property.transform = DiskTransform(
    default_grid(test_round_trip_property.bases), test_round_trip_property.bases
)


class TestParseval:
    def test_energy_identity_on_truncated_fields(self, small_setup):
        grid, bases, tr = small_setup
        rng = np.random.default_rng(5)
        norms = np.stack([basis.norms for basis in bases])
        for _ in range(5):
            a = rng.uniform(-1.0, 1.0, (5, 6))
            b = rng.uniform(-1.0, 1.0, (4, 6))
            values = tr.synthesize_values(a, b)
            quadrature = grid.integrate(values**2)
            modal = 2.0 * np.pi * np.dot(norms[0], a[0] ** 2) + np.pi * np.sum(
                norms[1:] * (a[1:] ** 2 + b**2)
            )
            assert quadrature == pytest.approx(modal, rel=1e-6)


class TestRadialPath:
    def test_single_mode(self):
        basis = build_bases(0, 5, 1.0, DIRICHLET)[0]
        grid = DiskGrid.gauss_legendre(1.0, 32, 4)
        profile = jv(0, basis.eigenvalues[0] * grid.r_nodes)
        coeffs = analyze_radial(profile, basis, grid)
        assert coeffs[0] == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(coeffs[1:])) < 1e-10

    def test_expansion_of_unity(self):
        # Classic result: on a unit disk with an absorbing edge the flat
        # profile expands with coefficients 2 / (k_j J_1(k_j)).
        basis = build_bases(0, 6, 1.0, DIRICHLET)[0]
        grid = DiskGrid.gauss_legendre(1.0, 48, 4)
        coeffs = analyze_radial(np.ones(grid.n_r), basis, grid)
        for j, k in enumerate(basis.eigenvalues):
            expected = 2.0 / (k * jv(1, k))
            assert coeffs[j] == pytest.approx(expected, rel=1e-10)

    def test_zero_profile(self):
        basis = build_bases(0, 4, 1.0, DIRICHLET)[0]
        grid = DiskGrid.gauss_legendre(1.0, 24, 4)
        assert np.all(analyze_radial(np.zeros(grid.n_r), basis, grid) == 0.0)

    def test_round_trip(self):
        basis = build_bases(0, 6, 2.0, ZERO_FLUX)[0]
        grid = DiskGrid.gauss_legendre(2.0, 48, 4)
        rng = np.random.default_rng(1)
        c = rng.uniform(-1.0, 1.0, 6)
        profile = synthesize_radial(c, basis, grid.r_nodes)
        assert_allclose(analyze_radial(profile, basis, grid), c, atol=1e-9)

    def test_requires_order_zero(self):
        basis = build_bases(1, 4, 1.0, DIRICHLET)[1]
        grid = DiskGrid.gauss_legendre(1.0, 24, 4)
        with pytest.raises(ValueError):
            analyze_radial(np.zeros(grid.n_r), basis, grid)


class TestSpectralField:
    def test_radial_flag(self):
        bases = build_bases(2, 3, 1.0, DIRICHLET)
        coeffs = SpectralField.zeros(bases)
        coeffs.a[0, 1] = 1.0
        assert coeffs.is_radial()
        coeffs.a[1, 0] = 1e-6
        assert not coeffs.is_radial()

    def test_rejects_wrong_shapes(self):
        bases = build_bases(2, 3, 1.0, DIRICHLET)
        with pytest.raises(ValueError):
            SpectralField(bases, np.zeros((3, 3)), np.zeros((1, 3)))

    def test_weighted_l2_matches_quadrature(self):
        bases = build_bases(3, 5, 1.0, ZERO_FLUX)
        grid = default_grid(bases)
        tr = DiskTransform(grid, bases)
        rng = np.random.default_rng(9)
        coeffs = SpectralField(
            bases, rng.uniform(-1, 1, (4, 5)), rng.uniform(-1, 1, (3, 5))
        )
        field = tr.synthesize(coeffs)
        assert tr.weighted_l2(coeffs.a, coeffs.b) == pytest.approx(
            np.sqrt(grid.integrate(field.values**2)), rel=1e-8
        )


class TestCSV:
    def test_field_dump_shape(self, tmp_path):
        grid = DiskGrid.gauss_legendre(1.0, 4, 3)
        field = DiskField.from_polar(grid, lambda r, th: r * np.cos(th))
        path = tmp_path / "field.csv"
        write_field_csv(field, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "r,theta,value"
        assert len(lines) == 1 + 4 * 3

    def test_coefficient_dump(self, tmp_path):
        bases = build_bases(1, 2, 1.0, DIRICHLET)
        coeffs = SpectralField.zeros(bases)
        coeffs.a[1, 0] = 0.5
        path = tmp_path / "coeffs.csv"
        write_coefficients_csv(coeffs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,j,a,b"
        assert len(lines) == 1 + 2 * 2
