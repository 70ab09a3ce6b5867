import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import jv

from diskrd import bessel
from diskrd.bessel import BoundaryCondition
from oracles import loop_analyze, loop_synthesize, mp_gauss_legendre, pack, two_term_l2
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
    field_csv_prefixes,
    write_field_csv,
)


DIRICHLET = BoundaryCondition.dirichlet()
ZERO_FLUX = BoundaryCondition.zero_flux()
EPS = np.finfo(float).eps


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

    def test_area_weights_are_stored_once(self):
        grid = DiskGrid.gauss_legendre(1.7, 12, 8)
        expected = grid.theta_spacing * grid.r_weights * grid.r_nodes
        assert_allclose(grid.area_weights, expected, rtol=1e-15, atol=0.0)
        assert not grid.area_weights.flags.writeable

    def test_integrate_area(self):
        grid = DiskGrid.gauss_legendre(1.0, 24, 16)
        ones = np.ones((grid.n_r, grid.n_theta))
        assert grid.integrate(ones) == pytest.approx(np.pi, rel=1e-12)

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            DiskGrid(1.0, np.array([0.5]), np.array([0.5]), np.array([0.1, 3.0]))

    def test_rejects_nan_and_non_finite_inputs(self):
        # Every check is a comparison, which NaN passes unless it is negated.
        for radius in (math.nan, math.inf):
            with pytest.raises(ValueError, match="radius"):
                DiskGrid.gauss_legendre(radius, 10, 8)
        good = DiskGrid.gauss_legendre(1.0, 10, 8)
        for bad in (math.nan, math.inf):
            nodes, weights = good.r_nodes.copy(), good.r_weights.copy()
            nodes[3] = bad
            with pytest.raises(ValueError, match="radial nodes"):
                DiskGrid(1.0, nodes, good.r_weights, good.theta_nodes)
            weights[3] = bad
            with pytest.raises(ValueError, match="radial weights"):
                DiskGrid(1.0, good.r_nodes, weights, good.theta_nodes)

    @pytest.mark.parametrize("n, bound", [(194, 1e-12), (300, 1e-11)])
    def test_gauss_legendre_matches_30_digit_values(self, n, bound):
        # numpy's leggauss weights are 1.3e-11 (n = 194) and 6.3e-11
        # (n = 300) off at the end nodes; the Jacobi-matrix rule with one
        # recurrence pass is 4.5e-13 and 5.6e-12.
        x, w = mp_gauss_legendre(n)
        grid = DiskGrid.gauss_legendre(2.0, n, 4)
        assert np.max(np.abs(grid.r_nodes - (x + 1.0))) <= EPS
        assert np.max(np.abs(grid.r_weights / w - 1.0)) <= bound
        assert np.array_equal(grid.r_weights[::-1], grid.r_weights)

    def test_default_grid_sizes(self):
        # 0 sizes a dimension automatically, a positive size is taken as given.
        # Order 0 alone is constant in theta: two angles resolve it.
        order_zero = build_bases(0, 6, 1.0, DIRICHLET)
        assert default_grid(order_zero).n_theta == 2
        assert default_grid(order_zero, 0, 16).n_theta == 16
        bases = build_bases(4, 6, 1.0, DIRICHLET)
        auto = default_grid(bases)
        assert auto.n_r >= 8 and auto.n_theta == 64
        for n_r, n_theta, want in ((20, 0, (20, 64)), (0, 40, (auto.n_r, 40)), (20, 40, (20, 40))):
            grid = default_grid(bases, n_r, n_theta)
            assert (grid.n_r, grid.n_theta) == want
            assert np.array_equal(grid.r_nodes, DiskGrid.gauss_legendre(1.0, *want).r_nodes)
        for sizes in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="grid sizes"):
                default_grid(bases, *sizes)


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
        c = np.zeros((5, 2, 6))
        c[0, 0, 0] = 2.0
        field = tr.synthesize(SpectralField(bases, c))
        k = bases[0].eigenvalues[0]
        expected = 2.0 * jv(0, k * grid.r_nodes)
        assert_allclose(field.values[:, 3], expected, atol=1e-13)

    def test_round_trip_random(self, small_setup):
        grid, bases, tr = small_setup
        rng = np.random.default_rng(11)
        for _ in range(20):
            c = pack(rng.uniform(-1.0, 1.0, (5, 6)), rng.uniform(-1.0, 1.0, (4, 6)))
            assert np.max(np.abs(tr.analyze_values(tr.synthesize_values(c)) - c)) < 1e-8

    def test_rejects_coefficients_on_other_bases(self, small_setup):
        grid, bases, tr = small_setup
        # Equal bases found apart are accepted; another truncation, edge
        # condition or radius is not.
        twin = tr.synthesize(SpectralField.zeros(build_bases(4, 6, 1.0, DIRICHLET)))
        assert np.array_equal(twin.values, np.zeros((grid.n_r, grid.n_theta)))
        for other in (
            build_bases(3, 6, 1.0, DIRICHLET),
            build_bases(4, 6, 1.0, ZERO_FLUX),
            build_bases(4, 6, 1.5, DIRICHLET),
        ):
            with pytest.raises(ValueError, match="bases do not match"):
                tr.synthesize(SpectralField.zeros(other))

    def test_synthesize_on_matches_grid_synthesis(self, small_setup):
        grid, bases, tr = small_setup
        rng = np.random.default_rng(3)
        coeffs = SpectralField(bases, pack(rng.uniform(-1, 1, (5, 6)), rng.uniform(-1, 1, (4, 6))))
        direct = synthesize_on(coeffs, grid.r_nodes, grid.theta_nodes)
        assert_allclose(direct, tr.synthesize(coeffs).values, atol=1e-12)


class TestStacked:
    """A leading stack axis transforms each state as a call of its own would."""

    @staticmethod
    def packed_stack(rng, n_max, k, j_max=6):
        """K random packed states as the stack (n_max + 1, 2, K, j_max)."""
        states = [
            pack(rng.uniform(-1.0, 1.0, (n_max + 1, j_max)), rng.uniform(-1.0, 1.0, (n_max, j_max)))
            for _ in range(k)
        ]
        return np.stack(states, axis=2)

    @pytest.mark.parametrize("n_max", [0, 4])
    def test_stack_matches_single_calls(self, n_max):
        bases = build_bases(n_max, 6, 1.0, ZERO_FLUX)
        tr = DiskTransform(default_grid(bases), bases)
        stack = self.packed_stack(np.random.default_rng(5), n_max, 3)
        values = tr.synthesize_values(stack)
        assert values.shape == (3, tr.grid.n_r, tr.grid.n_theta)
        analysed = tr.analyze_values(values)
        assert analysed.shape == stack.shape
        for k in range(3):
            single = tr.synthesize_values(stack[:, :, k])
            assert np.max(np.abs(values[k] - single)) <= 1e-14 * np.max(np.abs(single))
            alone = tr.analyze_values(single)
            assert alone.shape == (n_max + 1, 2, 6)
            assert np.max(np.abs(analysed[:, :, k] - alone)) <= 1e-14 * np.max(np.abs(alone))

    def test_out_receives_the_samples(self, small_setup):
        grid, bases, tr = small_setup
        stack = self.packed_stack(np.random.default_rng(6), 4, 2)
        out = np.empty((4, grid.n_r, grid.n_theta))
        view = out[:2]
        assert tr.synthesize_values(stack, view) is view
        assert np.array_equal(out[:2], tr.synthesize_values(stack))
        with pytest.raises(ValueError, match="contiguous"):
            tr.synthesize_values(stack, out[::2])


class TestHalfCircle:
    """An even field is known from its half circle: synthesis there is the
    first half_angles columns of the whole circle's, and the folded
    analysis of those columns is the whole circle's analysis of the
    mirrored samples, with every sine slot 0."""

    @staticmethod
    def cosine_stack(n_max, n_theta, k=3, j_max=6):
        bases = build_bases(n_max, j_max, 1.0, ZERO_FLUX)
        tr = DiskTransform(default_grid(bases, 0, n_theta), bases)
        coeffs = np.random.default_rng(n_theta).uniform(-1.0, 1.0, (n_max + 1, 2, k, j_max))
        coeffs[:, 1] = 0.0
        return tr, coeffs

    @pytest.mark.parametrize("n_max, n_theta", [(4, 64), (4, 11), (0, 2)])
    def test_synthesis_is_the_first_columns(self, n_max, n_theta):
        tr, coeffs = self.cosine_stack(n_max, n_theta)
        grid = tr.grid
        whole = tr.synthesize_values(coeffs)
        half = tr.synthesize_values(coeffs, np.empty((3, grid.n_r, grid.half_angles)))
        lead = whole[..., : grid.half_angles]
        assert np.max(np.abs(half - lead)) <= 1e-15 * np.max(np.abs(lead))

    @pytest.mark.parametrize("n_max, n_theta", [(4, 64), (4, 11), (0, 2)])
    def test_analysis_of_mirrored_samples(self, n_max, n_theta):
        tr, coeffs = self.cosine_stack(n_max, n_theta)
        grid = tr.grid
        half = tr.synthesize_values(coeffs, np.empty((3, grid.n_r, grid.half_angles)))
        whole = tr.analyze_values(grid.unfold(half))
        folded = tr.analyze_values(half)
        assert folded.shape == whole.shape
        # Relative to each slot's bound on an analysis of these samples.
        scale = tr.analysis_gain()[:, :, None] * np.max(np.abs(half))
        assert np.all(np.abs(folded - whole) <= 1e-15 * scale)
        assert not folded[:, 1].any()
        # The live box cuts the folded analysis as it cuts the whole one.
        orders = min(2, n_max + 1)
        part = tr.analyze_values(half, (orders, 3))
        assert part.shape == (orders, 2, 3, 3) and not part[:, 1].any()
        assert np.max(np.abs(part - folded[:orders, ..., :3])) <= 4 * EPS * np.max(np.abs(folded))

    @pytest.mark.parametrize("n_theta", [64, 11, 2])
    def test_fold_weights_and_unfold(self, n_theta):
        grid = DiskGrid.gauss_legendre(1.0, 4, n_theta)
        h = grid.half_angles
        # Each angle of the circle once: its own mirror, or a pair.
        assert grid.fold_weights().sum() == n_theta
        values = np.random.default_rng(3).uniform(size=(2, 4, h))
        whole = grid.unfold(values)
        assert whole.shape == (2, 4, n_theta) and np.array_equal(whole[..., :h], values)
        for t in range(1, n_theta):
            assert np.array_equal(whole[..., n_theta - t], whole[..., t])
        area = np.matmul(grid.area_weights, whole).sum(axis=-1)
        folded = np.matmul(np.matmul(grid.area_weights, values), grid.fold_weights())
        assert_allclose(folded, area, rtol=1e-15)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_round_trip_property(seed):
    bases = test_round_trip_property.bases
    tr = test_round_trip_property.transform
    rng = np.random.default_rng(seed)
    c = pack(rng.uniform(-1.0, 1.0, (3, 4)), rng.uniform(-1.0, 1.0, (2, 4)))
    assert np.max(np.abs(tr.analyze_values(tr.synthesize_values(c)) - c)) < 1e-8


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
            values = tr.synthesize_values(pack(a, b))
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

    # The stored order-0 row of the transform (what rhs and both schemes'
    # radial sources read) against the same closed forms, on the two-angle
    # grid of an order-0 run.
    def test_single_mode_stored_row(self):
        bases = build_bases(0, 5, 1.0, DIRICHLET)
        grid = DiskGrid.gauss_legendre(1.0, 32, 2)
        profile = jv(0, bases[0].eigenvalues[0] * grid.r_nodes)
        coeffs = DiskTransform(grid, bases).analyze_values(np.repeat(profile[:, None], 2, axis=1))
        assert coeffs[0, 0, 0] == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(coeffs[0, 0, 1:])) < 1e-10 and np.all(coeffs[0, 1] == 0.0)

    def test_expansion_of_unity_stored_row(self):
        bases = build_bases(0, 6, 1.0, DIRICHLET)
        grid = DiskGrid.gauss_legendre(1.0, 48, 2)
        coeffs = DiskTransform(grid, bases).analyze_values(np.ones((grid.n_r, 2)))
        for j, k in enumerate(bases[0].eigenvalues):
            assert coeffs[0, 0, j] == pytest.approx(2.0 / (k * jv(1, k)), rel=1e-10)

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


class TestTableCost:
    """The J_n table at n_max = 32, j_max = 64 on its 194-radius grid
    (409 728 entries, 3.3 MB): one Miller sweep over one node lattice serves
    every order, not every entry, and building the transform stays lean."""

    @pytest.fixture(scope="class")
    def full(self):
        bases = build_bases(32, 64, 1.0, ZERO_FLUX)
        return bases, default_grid(bases)

    def test_one_node_sweep_per_table(self, full, monkeypatch):
        bases, grid = full
        entries = []
        sweep = bessel._miller

        def counting(low, x, top, rows=3):
            entries.append(np.size(x))
            return sweep(low, x, top, rows)

        monkeypatch.setattr(bessel, "_miller", counting)
        monkeypatch.setattr(bessel, "_sweep", (np.zeros(0), np.zeros((0, 0))))
        table = DiskTransform(grid, bases)
        # A 1/2-spaced lattice from 2 up to x_top has fewer than 2 x_top nodes.
        x_top = max(basis.eigenvalues[-1] for basis in bases) * grid.r_nodes.max()
        assert len(entries) == 1 and 0 < entries[0] <= 2.0 * x_top
        # The eigenvalue search sweeps further (and checks its roots by
        # Miller's recurrence); the table then reuses the search's sweep.
        build_bases(32, 64, 1.0, ZERO_FLUX)
        swept = len(entries)
        again = DiskTransform(grid, bases)
        assert len(entries) == swept and entries[1] > 2.0 * x_top
        assert np.array_equal(again._j_table, table._j_table)

    def test_peak_memory_below_twice_the_table(self, full):
        # Per-entry evaluation peaked at 8.8 MB here, the node rule at 5.8 MB.
        bases, grid = full
        tracemalloc.start()
        try:
            DiskTransform(grid, bases)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * len(bases) * bases[0].count * grid.n_r


class TestSpectralField:
    def test_rejects_wrong_shapes(self):
        bases = build_bases(2, 3, 1.0, DIRICHLET)
        for shape in [(3, 3), (2, 2, 3), (3, 2, 4), (3, 3, 3), (3, 2, 1, 3)]:
            with pytest.raises(ValueError, match="does not match"):
                SpectralField(bases, np.zeros(shape))

    def test_rejects_nonzero_order_zero_sine_slot(self):
        bases = build_bases(2, 3, 1.0, DIRICHLET)
        c = np.zeros((3, 2, 3))
        c[0, 1, 2] = 1e-300
        with pytest.raises(ValueError, match="order-0 sine"):
            SpectralField(bases, c)
        c[0, 1, 2] = -0.0
        assert SpectralField(bases, c).coeffs[0, 1, 2] == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        bases = build_bases(2, 3, 1.0, DIRICHLET)
        c = np.zeros((3, 2, 3))
        c[2, 1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            SpectralField(bases, c)

    def test_a_and_b_are_read_only_views(self):
        bases = build_bases(2, 3, 1.0, DIRICHLET)
        c = pack(np.arange(9.0).reshape(3, 3), -np.arange(6.0).reshape(2, 3))
        field = SpectralField(bases, c)
        c[1, 0, 0] = 99.0  # the field holds its own copy
        assert np.array_equal(field.a, np.arange(9.0).reshape(3, 3))
        assert np.array_equal(field.b, -np.arange(6.0).reshape(2, 3))
        for view in (field.coeffs, field.a, field.b):
            assert np.shares_memory(view, field.coeffs)
            with pytest.raises(ValueError, match="read-only"):
                view[-1, -1] = 1.0

    def test_analyze_synthesize_round_trip(self, small_setup):
        grid, bases, tr = small_setup
        rng = np.random.default_rng(21)
        c = pack(rng.uniform(-1.0, 1.0, (5, 6)), rng.uniform(-1.0, 1.0, (4, 6)))
        field = tr.synthesize(SpectralField(bases, c))
        analysed = tr.analyze(field)
        assert analysed.coeffs.shape == (5, 2, 6)
        assert np.all(analysed.coeffs[0, 1] == 0.0)
        assert np.max(np.abs(analysed.coeffs - c)) < 1e-8
        assert np.max(np.abs(tr.synthesize(analysed).values - field.values)) < 1e-8

    def test_weighted_l2_matches_quadrature(self):
        bases = build_bases(3, 5, 1.0, ZERO_FLUX)
        grid = default_grid(bases)
        tr = DiskTransform(grid, bases)
        rng = np.random.default_rng(9)
        coeffs = SpectralField(bases, pack(rng.uniform(-1, 1, (4, 5)), rng.uniform(-1, 1, (3, 5))))
        field = tr.synthesize(coeffs)
        assert tr.weighted_l2(coeffs.coeffs[None])[0] == pytest.approx(
            np.sqrt(grid.integrate(field.values**2)), rel=1e-8
        )

    def test_weighted_l2_of_huge_coefficients_is_finite(self):
        # Squares of 1e200 overflow; the norm itself is about 1e200.
        bases = build_bases(3, 5, 1.0, ZERO_FLUX)
        tr = DiskTransform(default_grid(bases), bases)
        rng = np.random.default_rng(9)
        a, b = rng.uniform(-1, 1, (4, 5)), rng.uniform(-1, 1, (3, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = tr.weighted_l2(pack(1e200 * a, 1e200 * b)[None])[0]
            plain = tr.weighted_l2(pack(a, b)[None])[0]
        assert np.isfinite(huge)
        assert huge == pytest.approx(1e200 * plain, rel=1e-14)
        assert tr.weighted_l2(pack(np.full((4, 5), np.inf), b)[None])[0] == np.inf

    @pytest.mark.parametrize("radius", [0.1, 0.001])
    def test_small_disks_keep_the_huge_coefficient_rescaling(self, radius):
        # The mode norms scale as radius^2, so the weights sum below 1 here.
        bases = build_bases(16, 32, radius, ZERO_FLUX)
        rng = np.random.default_rng(9)
        a, b = rng.uniform(-1, 1, (17, 32)), rng.uniform(-1, 1, (16, 32))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = DiskTransform(default_grid(bases), bases)
            huge = tr.weighted_l2(pack(1e200 * a, 1e200 * b)[None])[0]
            plain = tr.weighted_l2(pack(a, b)[None])[0]
        assert huge == pytest.approx(1e200 * plain, rel=1e-14)


class TestPackedLayout:
    """The packed transform against a per-order loop of the (a, b) arithmetic."""

    @staticmethod
    def setup(n_max, j_max):
        bases = build_bases(n_max, j_max, 1.0, ZERO_FLUX)
        return bases, DiskTransform(default_grid(bases), bases)

    @staticmethod
    def random_packed(rng, n_max, j_max):
        return pack(rng.uniform(-1.0, 1.0, (n_max + 1, j_max)), rng.uniform(-1.0, 1.0, (n_max, j_max)))

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("n_max, j_max", [(4, 6), (16, 32)])
    def test_matches_per_order_loop(self, n_max, j_max, k):
        bases, tr = self.setup(n_max, j_max)
        grid = tr.grid
        rng = np.random.default_rng(100 + k)
        states = [self.random_packed(rng, n_max, j_max) for _ in range(k)]
        expected_values = [loop_synthesize(grid, bases, c) for c in states]
        if k == 1:
            values = tr.synthesize_values(states[0])[None]
            coeffs = tr.analyze_values(expected_values[0])[:, :, None]
        else:
            values = tr.synthesize_values(np.stack(states, axis=2))
            coeffs = tr.analyze_values(np.stack(expected_values))
        assert values.shape == (k, grid.n_r, grid.n_theta)
        assert coeffs.shape == (n_max + 1, 2, k, j_max)
        for m in range(k):
            want = expected_values[m]
            assert np.max(np.abs(values[m] - want)) <= 1e-14 * np.max(np.abs(want))
            want = loop_analyze(grid, bases, expected_values[m])
            assert np.max(np.abs(coeffs[:, :, m] - want)) <= 1e-14 * np.max(np.abs(want))

    def test_order_zero_sine_slot_is_exactly_zero(self):
        bases, tr = self.setup(4, 6)
        rng = np.random.default_rng(12)
        values = rng.uniform(-1.0, 1.0, (3, tr.grid.n_r, tr.grid.n_theta))
        assert np.all(tr.analyze_values(values[0])[0, 1] == 0.0)
        assert np.all(tr.analyze_values(values)[0, 1] == 0.0)

    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e155, 1e200])
    def test_weighted_l2_matches_two_term_formula(self, scale):
        bases, tr = self.setup(4, 6)
        rng = np.random.default_rng(13)
        a, b = rng.uniform(-1.0, 1.0, (5, 6)), rng.uniform(-1.0, 1.0, (4, 6))
        # Past ~1e154 the squares of the two-term formula overflow, so the
        # packed norm (its rescale path) is compared with the scaled formula;
        # 1e155 sits just past the largest magnitude the one-dot path takes.
        want = scale * two_term_l2(bases, a, b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = tr.weighted_l2(pack(scale * a, scale * b)[None])[0]
            bounded = tr.weighted_l2(pack(scale * a, scale * b)[None], scale)[0]
        assert got == pytest.approx(want, rel=1e-14)
        assert bounded == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("bound", [None, 2.0, 1e200])
    def test_weighted_l2_of_a_stack_is_each_state_norm(self, bound):
        # A state-first stack gives each state's own norm, bit for bit: by
        # one dot per state while the bound allows, else state by state
        # (here past the bound: one state of 1e200 and one of inf).
        bases, tr = self.setup(4, 6)
        rng = np.random.default_rng(14)
        states = [self.random_packed(rng, 4, 6) for _ in range(3)]
        if bound != 2.0:
            states += [1e200 * states[0], np.full_like(states[0], np.inf)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = tr.weighted_l2(np.stack(states), bound)
        assert norms.shape == (len(states),)
        assert norms.tolist() == [tr.weighted_l2(state[None])[0] for state in states]


class TestWidth:
    """``live = (orders, width)`` restricts both stages to the leading box
    of orders and radial indices."""

    J_MAX = 8
    TRANSFORMS = {
        n_max: DiskTransform(default_grid(bases), bases)
        for n_max, bases in ((n, build_bases(n, 8, 1.0, ZERO_FLUX)) for n in (0, 3))
    }

    @staticmethod
    def shape(tr, k):
        """Packed shape of one state (k = 0) or of a stack of k states."""
        return (tr.n_max + 1, 2) + ((k,) if k else ()) + (tr.j_max,)

    @settings(max_examples=40, deadline=None)
    @given(
        n_max=st.sampled_from([0, 3]),
        k=st.integers(0, 4),
        box=st.tuples(st.integers(0, 4), st.integers(0, J_MAX)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_analysis_is_the_leading_columns(self, n_max, k, box, seed):
        tr = self.TRANSFORMS[n_max]
        orders, width = min(box[0], n_max + 1), box[1]
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1.0, 1.0, ((k,) if k else ()) + (tr.grid.n_r, tr.grid.n_theta))
        full = tr.analyze_values(values)
        part = tr.analyze_values(values, (orders, width))
        lead = full[:orders, ..., :width]
        assert part.shape == lead.shape
        scale = np.max(np.abs(full))
        assert np.max(np.abs(part - lead), initial=0.0) <= 4 * EPS * scale

    @settings(max_examples=40, deadline=None)
    @given(
        n_max=st.sampled_from([0, 3]),
        k=st.integers(0, 4),
        box=st.tuples(st.integers(0, 4), st.integers(0, J_MAX)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_synthesis_of_a_zero_tail(self, n_max, k, box, seed):
        tr = self.TRANSFORMS[n_max]
        orders, width = min(box[0], n_max + 1), box[1]
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(-1.0, 1.0, self.shape(tr, k))
        coeffs[0, 1] = 0.0
        coeffs[orders:] = 0.0
        coeffs[..., width:] = 0.0
        full = tr.synthesize_values(coeffs)
        part = tr.synthesize_values(coeffs, live=(orders, width))
        assert part.shape == full.shape
        # The box alone, passed as the coefficients, is the same sum.
        lead = coeffs[:orders, ..., :width]
        assert np.array_equal(tr.synthesize_values(lead), part)
        # The field scale: the largest sum of |c_j J_n| any sample can reach.
        scale = np.abs(coeffs).sum(axis=-1).sum(axis=(0, 1)).max()
        assert np.max(np.abs(part - full)) <= 4 * EPS * scale

    @pytest.mark.parametrize("k", [0, 3])
    def test_full_width_is_the_default_bit_for_bit(self, k):
        tr = self.TRANSFORMS[3]
        rng = np.random.default_rng(14)
        values = rng.uniform(-1.0, 1.0, ((k,) if k else ()) + (tr.grid.n_r, tr.grid.n_theta))
        coeffs = tr.analyze_values(values)
        whole = (tr.n_max + 1, tr.j_max)
        assert np.array_equal(tr.analyze_values(values, whole), coeffs)
        assert np.array_equal(tr.synthesize_values(coeffs, live=whole), tr.synthesize_values(coeffs))

    def test_analysis_gain_bounds_every_coefficient(self):
        # Samples of modulus 1 with the sign of cos n theta (or sin n theta)
        # reach the angular factor of the bound; |J_n| <= 1 leaves a margin.
        tr = self.TRANSFORMS[3]
        gain = tr.analysis_gain()
        assert gain.shape == self.shape(tr, 0) and np.all(gain[0, 1] == 0.0)
        rng = np.random.default_rng(5)
        signs = np.sign(tr._trig)
        for n, s in [(0, 0), (1, 0), (2, 1), (3, 1)]:
            values = np.tile(signs[2 * n + s], (tr.grid.n_r, 1))
            values *= rng.uniform(0.5, 1.0, (tr.grid.n_r, 1))
            coeffs = np.abs(tr.analyze_values(values))
            assert np.all(coeffs <= gain * (1.0 + 4 * EPS))
            assert np.max(coeffs[n, s] / gain[n, s]) > 0.05


class TestTrimmedAnalysis:
    """``live = (None, width)`` analyses every order but returns those past
    the last one above the rounding floor as exact 0: the moment bound
    sum_i |w_i M_ni| certifies that each cut coefficient lies below its
    rounding floor, (n_r + n_theta) eps times its ``analysis_gain``."""

    TR = TestWidth.TRANSFORMS[3]

    @staticmethod
    def samples(tr, rng, k, orders, half):
        """Smooth samples in the first ``orders`` orders, plus 1e-18 of them
        in every order; on the half circle, or on the whole one with sine
        parts."""
        r, th = tr.grid.mesh()
        fields = []
        for _ in range(max(k, 1)):
            field = rng.uniform(0.5, 1.0) + 0.0 * r
            for n in range(1, tr.n_max + 1):
                size = rng.uniform(0.1, 0.3) if n < orders else 1e-18
                field = field + size * jv(n, 3.0 * r) * (np.cos(n * th) + (not half) * np.sin(n * th))
            fields.append(field[:, : tr.grid.half_angles] if half else field)
        return np.stack(fields) if k else fields[0]

    @pytest.mark.parametrize("half", [False, True], ids=["whole_circle", "half_circle"])
    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize("orders", [1, 2, 4])
    def test_cut_orders_lie_below_their_rounding_floor(self, half, k, orders):
        tr, rng = self.TR, np.random.default_rng(10 * k + orders)
        values = self.samples(tr, rng, k, orders, half)
        full = tr.analyze_values(values)
        trimmed = tr.analyze_values(values, (None, tr.j_max))
        assert trimmed.shape == full.shape
        kept = max(orders, 1)
        assert not trimmed[kept:].any()  # the 1e-18 orders are rounding here
        assert np.array_equal(trimmed[:kept], full[:kept])
        peaks = np.abs(values).reshape(max(k, 1), -1).max(axis=1)
        gain = (tr.grid.n_r + tr.grid.n_theta) * EPS * tr.analysis_gain()
        floor = gain[..., None, :] * peaks[:, None] if k else gain * peaks[0]
        assert np.all(np.abs(full[kept:]) <= floor[kept:])

    @pytest.mark.parametrize("half", [False, True], ids=["whole_circle", "half_circle"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_samples_keep_every_order(self, half, bad):
        # A comparison with NaN is false: no order may be cut by one.
        tr = self.TR
        values = self.samples(tr, np.random.default_rng(3), 3, 1, half)
        values[1, 4, 2] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            trimmed = tr.analyze_values(values, (None, tr.j_max))
        slots = 1 if half else 2
        per_order = ~np.isfinite(trimmed[:, :slots, 1]).reshape(tr.n_max + 1, -1)
        assert per_order.any(axis=1).all()
        # The finite states of the stack keep their own orders' coefficients.
        assert np.isfinite(trimmed[:, :, 0]).all() and np.isfinite(trimmed[:, :, 2]).all()


class TestCSV:
    @staticmethod
    def per_point_dump(field, path):
        """The field dump formatted point by point, r and theta included."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("r,theta,value\n")
            for i, r in enumerate(field.grid.r_nodes):
                for j, th in enumerate(field.grid.theta_nodes):
                    fh.write(f"{r:.17g},{th:.17g},{field.values[i, j]:.17g}\n")

    def test_field_dump_is_byte_identical_to_per_point_formatting(self, tmp_path):
        grid = DiskGrid.gauss_legendre(1.3, 17, 12)
        field = DiskField.from_polar(
            grid, lambda r, th: 75.0 + np.exp(3.0 * r) * np.cos(3.0 * th) - 1e-300 * np.sin(th)
        )
        self.per_point_dump(field, tmp_path / "expected.csv")
        write_field_csv(field, tmp_path / "alone.csv")
        write_field_csv(field, tmp_path / "shared.csv", field_csv_prefixes(grid))
        expected = (tmp_path / "expected.csv").read_bytes()
        assert (tmp_path / "alone.csv").read_bytes() == expected
        assert (tmp_path / "shared.csv").read_bytes() == expected


    def test_field_dump_shape(self, tmp_path):
        grid = DiskGrid.gauss_legendre(1.0, 4, 3)
        field = DiskField.from_polar(grid, lambda r, th: r * np.cos(th))
        path = tmp_path / "field.csv"
        write_field_csv(field, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "r,theta,value"
        assert len(lines) == 1 + 4 * 3
