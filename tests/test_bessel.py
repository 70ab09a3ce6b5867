import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import jv

from diskrd.bessel import (
    BesselBasis,
    BoundaryCondition,
    _bessel_pair,
    _residual,
    bessel_j,
    bessel_j_prime,
    find_bases,
    find_eigenvalues,
    radial_tables,
)
from diskrd.transform import default_grid

from oracles import (
    bessel_zero,
    jn_series,
    mp_bessel_zeros,
    mp_mixed_root,
    mp_mode_norm,
    quad_mode_norm,
    quad_mode_overlap,
    residual,
    scalar_eigenvalues,
)

DIRICHLET = BoundaryCondition.dirichlet()
ZERO_FLUX = BoundaryCondition.zero_flux()

# Relative bound on stored norms against 30-digit values (2.5e-15 measured
# at R = 2, 64 roots, orders 0 / 3 / 16 / 32).
NORM_RTOL = 4e-15


class TestBesselJ:
    def test_order_zero_at_origin(self):
        assert bessel_j(0, 0.0) == 1.0

    def test_order_one_at_origin(self):
        assert bessel_j(1, 0.0) == 0.0

    def test_vanishes_at_first_zero(self):
        assert abs(bessel_j(0, 2.404826)) < 1e-6

    @pytest.mark.parametrize("order", [0, 1, 2, 5, 10, 16])
    def test_matches_series_at_moderate_arguments(self, order):
        # The series oracle itself is only trustworthy to ~1e-13 up to 12.
        for x in np.linspace(0.0, 12.0, 25):
            assert abs(bessel_j(order, x) - jn_series(order, float(x))) < 1e-12

    def test_absolute_error_budget_to_100(self):
        # Independent high-precision reference over the full working range.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        rng = np.random.default_rng(7)
        for order in (0, 1, 3, 8, 16):
            for x in rng.uniform(0.0, 100.0, 25):
                exact = float(mpmath.besselj(order, mpmath.mpf(float(x))))
                assert abs(bessel_j(order, float(x)) - exact) < 1e-12

    def test_odd_and_even_in_x(self):
        x = np.linspace(-30.0, 30.0, 121)
        for order in (0, 1, 2, 7):
            assert np.array_equal(bessel_j(order, -x), (-1) ** order * bessel_j(order, x))


class TestEvaluator:
    """The numpy evaluator against 30-digit mpmath in every region and on
    both sides of each seam: the series below x = 2, the Taylor nodes up to
    x = 40, the Hankel expansion above it, Miller's recurrence below x = n
    and the upward recurrence above."""

    BOUND = 1e-15

    def test_j0_j1_to_300(self):
        mpmath = pytest.importorskip("mpmath")
        seams = [2.0, 40.0]
        around = [s * (1.0 + d) for s in seams for d in (-4e-16, -2.2e-16, 0.0, 2.2e-16, 4e-16)]
        midpoints = [2.25, 2.75, 39.25, 39.75]  # farthest from a Taylor node
        x = np.concatenate([np.linspace(0.0, 300.0, 1201), around, midpoints, [1e-300, 1e-9]])
        for order in (0, 1):
            with mpmath.workdps(30):
                exact = [float(mpmath.besselj(order, mpmath.mpf(float(v)))) for v in x]
            assert np.max(np.abs(bessel_j(order, x) - exact)) < self.BOUND

    @pytest.mark.parametrize("order", range(49))
    def test_pairs_on_both_sides_of_x_equal_n(self, order):
        mpmath = pytest.importorskip("mpmath")
        near = [order * (1.0 + d) for d in (-1e-3, -2.2e-16, 0.0, 2.2e-16, 1e-3)]
        x = np.sort(np.concatenate([np.linspace(0.0, 2.0 * order + 60.0, 24), near, [1.9, 2.0]]))
        lower, jn = _bessel_pair(order, x)
        with mpmath.workdps(30):
            exact = [
                [float(mpmath.besselj(q, mpmath.mpf(float(v)))) for v in x] for q in (order - 1, order)
            ]
        assert np.max(np.abs(lower - exact[0])) < self.BOUND
        assert np.max(np.abs(jn - exact[1])) < self.BOUND

    @pytest.mark.parametrize("order", range(49))
    def test_origin_is_kronecker_delta_without_warnings(self, order):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lower, jn = _bessel_pair(order, np.zeros(3))
        assert np.all(jn == (1.0 if order == 0 else 0.0))
        assert np.all(lower == (1.0 if order == 1 else 0.0))

    def test_value_independent_of_the_rest_of_the_array(self):
        # Miller's per-element start and the suffix-wise upward recurrence
        # keep each element's bits those of its evaluation alone.
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 120.0, 400)
        order = np.sort(rng.integers(0, 40, 400))
        lower, jn = _bessel_pair(order, x)
        for i in range(0, 400, 37):
            alone = _bessel_pair(int(order[i]), x[i : i + 1])
            assert lower[i] == alone[0][0] and jn[i] == alone[1][0]


class TestBesselJPrime:
    def test_zero_at_origin(self):
        assert bessel_j_prime(0, 0.0) == 0.0

    def test_derivative_identity(self):
        for x in np.linspace(0.0, 30.0, 61):
            assert abs(bessel_j_prime(0, x) + bessel_j(1, x)) < 1e-12

    def test_vanishes_at_first_j1_zero(self):
        # J1 peaks where its derivative crosses zero at 3.831706's... the
        # first positive zero of J1 is where J0' also vanishes.
        assert abs(bessel_j(1, 3.831706)) < 1e-6


class TestBoundaryCondition:
    def test_mixed_rejects_double_zero(self):
        with pytest.raises(ValueError):
            BoundaryCondition.mixed(0.0, 0.0)

    @pytest.mark.parametrize("a, b", [(1.0, -1.0), (-2.0, 0.5)])
    def test_mixed_rejects_negative_ratio(self, a, b):
        # B / A < 0 admits growing I_n modes that real-k bases cannot hold.
        with pytest.raises(ValueError, match="A \\* B >= 0"):
            BoundaryCondition.mixed(a, b)

    def test_mixed_accepts_same_sign_coefficients(self):
        assert BoundaryCondition.mixed(-1.0, -2.0).coefficients() == (-1.0, -2.0)

    def test_degenerate_coefficients(self):
        assert DIRICHLET.coefficients() == (0.0, 1.0)
        assert ZERO_FLUX.coefficients() == (1.0, 0.0)

    @pytest.mark.parametrize("a, b", [(np.nan, 1.0), (1.0, np.inf), (-np.inf, -1.0)])
    def test_mixed_rejects_non_finite_coefficients(self, a, b):
        with pytest.raises(ValueError, match="finite"):
            BoundaryCondition.mixed(a, b)

    def test_constant_mode_admission(self):
        assert ZERO_FLUX.admits_constant_mode(0)
        assert not ZERO_FLUX.admits_constant_mode(1)
        assert not DIRICHLET.admits_constant_mode(0)
        assert BoundaryCondition.mixed(2.0, 0.0).admits_constant_mode(0)


class TestFindEigenvalues:
    def test_first_two_dirichlet_order_zero(self):
        basis = find_eigenvalues(0, 1.0, DIRICHLET, 2)
        expected = [bessel_zero(0, 1), bessel_zero(0, 2)]
        assert_allclose(basis.eigenvalues, expected, rtol=0.0, atol=1e-9)

    def test_first_dirichlet_order_one(self):
        basis = find_eigenvalues(1, 1.0, DIRICHLET, 1)
        assert abs(basis.eigenvalues[0] - 3.8317) < 1e-4
        assert_allclose(basis.eigenvalues[0], bessel_zero(1, 1), atol=1e-9)

    def test_zero_flux_constant_mode(self):
        basis = find_eigenvalues(0, 1.0, ZERO_FLUX, 1)
        assert basis.eigenvalues[0] == 0.0

    def test_residuals_below_tolerance(self):
        for bc in (DIRICHLET, ZERO_FLUX, BoundaryCondition.mixed(1.0, 2.0)):
            for order in (0, 1, 4):
                basis = find_eigenvalues(order, 2.5, bc, 8)
                res = residual(order, basis.eigenvalues[basis.eigenvalues > 0], 2.5, bc)
                assert np.max(np.abs(res)) < 1e-10

    def test_scaling_with_radius(self):
        unit = find_eigenvalues(0, 1.0, DIRICHLET, 4)
        scaled = find_eigenvalues(0, 2.0, DIRICHLET, 4)
        assert_allclose(scaled.eigenvalues, unit.eigenvalues / 2.0, rtol=1e-12)

    def test_mixed_degenerates_to_dirichlet(self):
        mixed = find_eigenvalues(1, 1.0, BoundaryCondition.mixed(0.0, 1.0), 6)
        plain = find_eigenvalues(1, 1.0, DIRICHLET, 6)
        assert np.max(np.abs(mixed.eigenvalues - plain.eigenvalues)) < 1e-10
        assert_allclose(mixed.norms, plain.norms, rtol=1e-10)

    def test_mixed_degenerates_to_zero_flux(self):
        mixed = find_eigenvalues(0, 1.0, BoundaryCondition.mixed(1.0, 0.0), 6)
        plain = find_eigenvalues(0, 1.0, ZERO_FLUX, 6)
        assert np.max(np.abs(mixed.eigenvalues - plain.eigenvalues)) < 1e-10

    def test_mixed_small_ratio_root_below_scan_step(self):
        # -A k J1(k) + B J0(k) = 0 has a root near sqrt(2 B / A) for small
        # B/A, well below the pi/4 lattice spacing.
        bc = BoundaryCondition.mixed(1.0, 0.1)
        basis = find_eigenvalues(0, 1.0, bc, 3)
        assert basis.eigenvalues[0] < np.pi / 4.0
        assert abs(residual(0, basis.eigenvalues[0], 1.0, bc)) < 1e-12

    @pytest.mark.parametrize("c", [1e-6, 3.0, 1e6])
    def test_mixed_condition_is_scale_invariant(self, c):
        # (c A, c B) is the condition (A, B): the same bases for every c > 0.
        unit = find_bases(range(17), 1.0, BoundaryCondition.mixed(1.0, 1.0), 32)
        scaled = find_bases(range(17), 1.0, BoundaryCondition.mixed(c, c), 32)
        for plain, basis in zip(unit, scaled):
            assert np.array_equal(basis.eigenvalues, plain.eigenvalues)
            assert np.array_equal(basis.norms, plain.norms)

    def test_large_robin_coefficient_approaches_dirichlet(self):
        # k J_n' + 1e8 J_n = 0 is a Dirichlet edge up to a relative 1e-8 shift.
        mixed = find_bases(range(17), 1.0, BoundaryCondition.mixed(1.0, 1e8), 32)
        plain = find_bases(range(17), 1.0, DIRICHLET, 32)
        for near, basis in zip(mixed, plain):
            assert_allclose(near.eigenvalues, basis.eigenvalues, rtol=1e-7, atol=0.0)

    @pytest.mark.parametrize("mixed", [False, True], ids=["zero_flux", "mixed"])
    @pytest.mark.parametrize("radius", [1e-6, 1e-100, 1e100])
    def test_roots_scale_as_one_over_radius(self, mixed, radius):
        # A k J_n'(kR) + B J_n(kR) = 0 fixes x = kR through B R / A alone, so
        # (R, 1) on radius R has the x roots of (1, 1) on the unit disk; the
        # residual check must not depend on the size of k.
        unit_bc = BoundaryCondition.mixed(1.0, 1.0) if mixed else ZERO_FLUX
        bc = BoundaryCondition.mixed(radius, 1.0) if mixed else ZERO_FLUX
        unit = find_bases(range(5), 1.0, unit_bc, 16)
        scaled = find_bases(range(5), radius, bc, 16)
        for plain, basis in zip(unit, scaled):
            assert_allclose(basis.eigenvalues * radius, plain.eigenvalues, rtol=1e-13)

    def test_rejects_non_finite_radius(self):
        for radius in (np.inf, np.nan):
            with pytest.raises(ValueError, match="radius"):
                find_bases(range(2), radius, DIRICHLET, 4)

    def test_count_cap(self):
        with pytest.raises(ValueError):
            find_eigenvalues(0, 1.0, DIRICHLET, 257)

    def test_interlacing_approaches_pi_over_radius(self):
        for radius in (1.0, 3.0):
            basis = find_eigenvalues(0, radius, DIRICHLET, 24)
            gaps = np.diff(basis.eigenvalues)[19:]
            assert np.all(np.abs(gaps - np.pi / radius) < 0.01 * np.pi / radius)

    def test_monotone_increasing(self):
        basis = find_eigenvalues(3, 1.0, ZERO_FLUX, 12)
        assert np.all(np.diff(basis.eigenvalues) > 0.0)


class TestModeNorm:
    """The norms ``find_eigenvalues`` stores, against quadrature."""

    def test_constant_mode_norm(self):
        basis = find_eigenvalues(0, 1.0, ZERO_FLUX, 1)
        assert basis.eigenvalues[0] == 0.0
        assert basis.norms[0] == pytest.approx(0.5, abs=1e-15)

    def test_first_dirichlet_norm_vs_quadrature(self):
        basis = find_eigenvalues(0, 1.0, DIRICHLET, 1)
        k, value = basis.eigenvalues[0], basis.norms[0]
        assert value == pytest.approx(quad_mode_norm(0, k, 1.0), rel=1e-10)
        assert value == pytest.approx(0.13475, abs=1e-5)

    def test_order_one_dirichlet_norm_vs_quadrature(self):
        basis = find_eigenvalues(1, 1.0, DIRICHLET, 1)
        k, value = basis.eigenvalues[0], basis.norms[0]
        assert value == pytest.approx(quad_mode_norm(1, k, 1.0), rel=1e-10)
        assert value == pytest.approx(0.5 * jv(2, k) ** 2, rel=1e-12)

    def test_rejects_k_zero_where_inadmissible(self):
        # k = 0 is a mode of the order-0 zero-flux basis only.
        for order, bc in ((1, ZERO_FLUX), (0, DIRICHLET), (0, BoundaryCondition.mixed(1.0, 1.0))):
            with pytest.raises(ValueError, match="k = 0"):
                BesselBasis(order, 1.0, bc, np.array([0.0, 3.0]), np.array([0.5, 0.1]))
        assert BesselBasis(0, 1.0, ZERO_FLUX, np.array([0.0, 3.0]), np.array([0.5, 0.1])).count == 2

    @pytest.mark.parametrize(
        "bc", [DIRICHLET, ZERO_FLUX, BoundaryCondition.mixed(1.0, 1.5)]
    )
    @pytest.mark.parametrize("order", [0, 1, 3])
    def test_closed_forms_match_quadrature(self, bc, order):
        basis = find_eigenvalues(order, 1.3, bc, 6)
        for k, norm in zip(basis.eigenvalues, basis.norms):
            if k == 0.0:
                expected = 0.5 * 1.3**2
            else:
                expected = quad_mode_norm(order, k, 1.3)
            assert norm == pytest.approx(expected, rel=1e-8)


class TestOrthogonality:
    @pytest.mark.parametrize(
        "bc", [DIRICHLET, ZERO_FLUX, BoundaryCondition.mixed(1.0, 2.0)]
    )
    def test_distinct_modes_are_orthogonal(self, bc):
        basis = find_eigenvalues(2, 1.0, bc, 5)
        scale = basis.norms.max()
        for i in range(basis.count):
            for j in range(i + 1, basis.count):
                overlap = quad_mode_overlap(
                    2, basis.eigenvalues[i], basis.eigenvalues[j], 1.0
                )
                assert abs(overlap) < 1e-8 * scale


class TestBesselBasis:
    def test_rejects_nonincreasing(self):
        with pytest.raises(ValueError):
            BesselBasis(0, 1.0, DIRICHLET, np.array([2.0, 2.0]), np.array([0.1, 0.1]))

    def test_rejects_nonpositive_norms(self):
        with pytest.raises(ValueError):
            BesselBasis(0, 1.0, DIRICHLET, np.array([2.4]), np.array([0.0]))

    def test_immutability(self):
        basis = find_eigenvalues(0, 1.0, DIRICHLET, 2)
        with pytest.raises(ValueError):
            basis.eigenvalues[0] = 1.0


class TestRadialTable:
    """Tables against 30-digit values on both sides of k r = order and at
    the Taylor rule's worst points, and against the evaluator at full size."""

    K = np.array([0.5, 1.7, 4.0, 9.3, 16.0, 25.0])
    R = np.array([0.0, 0.05, 0.4, 1.1, 2.3, 3.9, 5.2, 7.7, 10.0])

    @pytest.mark.parametrize("order", [0, 1, 2, 8, 16, 32, 48])
    def test_matches_mpmath(self, order):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        # x = k r spans 0..250, on both sides of x = order; r = order / 4
        # puts the k = 4 row exactly on x = order.
        r = np.concatenate([self.R, [order / 4.0]])
        basis = BesselBasis(order, 10.0, DIRICHLET, self.K, np.ones_like(self.K))
        x = np.outer(self.K, r)
        assert np.any(x < order) or order == 0
        assert np.any(x >= order)
        exact = np.array(
            [[float(mpmath.besselj(order, mpmath.mpf(float(v)))) for v in row] for row in x]
        )
        assert np.max(np.abs(basis.radial_table(r) - exact)) < 1e-13

    @pytest.mark.parametrize("order", range(49))
    def test_taylor_worst_points(self, order):
        # Entries with k r >= 2 are Taylor series about nodes 1/2 apart, so
        # the hardest ones sit midway between nodes (|h| = 1/4), at the seam
        # with the power series (x = 2) and across the turning point x = n.
        mpmath = pytest.importorskip("mpmath")
        near_n = np.arange(order - 2.0, order + 2.5, 0.5)
        nodes = np.concatenate([np.arange(2.0, 250.0, 5.5), near_n[near_n >= 2.0]])
        x = [nodes - 0.25, nodes + 0.25, [np.nextafter(2.0, 0.0), 2.0, 249.75, 250.0]]
        if order:
            x.append([np.nextafter(order, 0.0), order, np.nextafter(order, np.inf)])
        x = np.unique(np.concatenate(x))
        basis = BesselBasis(order, 1.0, DIRICHLET, np.array([1.0]), np.ones(1))
        with mpmath.workdps(30):
            exact = [float(mpmath.besselj(order, mpmath.mpf(float(v)))) for v in x]
        assert np.max(np.abs(basis.radial_table(x)[0] - exact)) < TestEvaluator.BOUND

    def test_full_size_tables_match_the_evaluator(self):
        # n_max = 32, j_max = 64 on its 194-radius grid: 409 728 entries.
        bases = find_bases(range(33), 1.0, ZERO_FLUX, 64)
        r = default_grid(bases).r_nodes
        assert r.size == 194
        table = radial_tables(bases, r)
        for basis, rows in zip(bases, table):
            expected = bessel_j(basis.order, np.outer(basis.eigenvalues, r))
            assert np.max(np.abs(rows - expected)) < 2e-15

    @pytest.mark.parametrize("order", [0, 1, 2, 5])
    def test_origin_is_kronecker_delta_without_warnings(self, order):
        basis = BesselBasis(order, 1.0, DIRICHLET, self.K, np.ones_like(self.K))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = basis.radial_table(np.array([0.0, 0.5]))
        assert np.all(table[:, 0] == (1.0 if order == 0 else 0.0))

    @pytest.mark.parametrize("bad", [-3.0, -1e-300, np.nan, np.inf])
    def test_negative_or_non_finite_radius_is_rejected(self, bad):
        # A negative k r would go to the power series, which is wrong in the
        # 8th digit at k r = -6.
        basis = BesselBasis(3, 4.0, DIRICHLET, np.array([2.0]), np.ones(1))
        with pytest.raises(ValueError, match="radii"):
            basis.radial_table(np.array([0.5, bad]))
        with pytest.raises(ValueError, match="radii"):
            radial_tables((basis,), np.array([[bad]]))


class TestEigenvalueScan:
    """The recurrence scan and the lock-step Newton refinement against a
    scalar search and 30-digit mpmath roots, and the stored norms against
    30-digit closed forms."""

    @pytest.mark.parametrize(
        "bc",
        [
            DIRICHLET,
            ZERO_FLUX,
            BoundaryCondition.mixed(1.0, 2.0),
            BoundaryCondition.mixed(1.0, 0.1),
        ],
        ids=["dirichlet", "zero_flux", "mixed_1_2", "mixed_small_ratio"],
    )
    @pytest.mark.parametrize("order", [0, 1, 7, 20])
    def test_bit_identical_to_scalar_search(self, bc, order):
        # Refining every bracket in lock step must not change any root
        # against refining each bracket alone.
        radius, count = 1.3, 24
        basis = find_eigenvalues(order, radius, bc, count)
        positive = basis.eigenvalues[basis.eigenvalues > 0.0]
        a, b = bc.coefficients()
        expected = scalar_eigenvalues(order, radius, a, b, positive.size)
        assert np.array_equal(positive, expected)

    @pytest.mark.parametrize("radius", [1.0, 1.3])
    @pytest.mark.parametrize(
        "bc",
        [
            DIRICHLET,
            ZERO_FLUX,
            BoundaryCondition.mixed(1.0, 2.0),
            BoundaryCondition.mixed(1.0, 0.1),
        ],
        ids=["dirichlet", "zero_flux", "mixed_1_2", "mixed_small_ratio"],
    )
    @pytest.mark.parametrize("order", [0, 1, 7, 20, 32])
    def test_within_two_ulp_of_mpmath(self, order, bc, radius):
        mpmath = pytest.importorskip("mpmath")
        basis = find_eigenvalues(order, radius, bc, 64)
        k = basis.eigenvalues[basis.eigenvalues > 0.0]
        a, b = bc.coefficients()
        zeros = mp_bessel_zeros(order, 64, 0)
        flats = mp_bessel_zeros(order, 64, 1)
        if a == 0.0 or b == 0.0:
            exact = [x / mpmath.mpf(radius) for x in (zeros if b else flats)[: k.size]]
        else:
            # The m-th mixed root lies between the m-th zeros of J_n' and
            # J_n (k = 0 counts as a zero of J_0'); check the index there,
            # then find the root in a 1e-13 bracket around the found one.
            if order == 0:
                flats = (0,) + flats
            kr = k * radius
            assert all(lo < x < hi for lo, x, hi in zip(flats, kr, zeros))
            exact = [
                mp_mixed_root(order, radius, a, b, x * (1 - 1e-13), x * (1 + 1e-13))
                for x in kr
            ]
        ulps = [
            float(abs(mpmath.mpf(float(got)) - want)) / np.spacing(float(want))
            for got, want in zip(k, exact)
        ]
        assert max(ulps) <= 2.0

    def test_root_on_a_lattice_point(self):
        # Choose (A, B) so the recurrence residual vanishes exactly at the
        # lattice point k = pi/4 (R = 1): A = J_0(k), B = -k J_0'(k) > 0.
        k = np.array([np.pi / 4.0])
        lower, jn = _bessel_pair(0, k)
        dj = lower - (0 / k) * jn
        bc = BoundaryCondition.mixed(jn[0], -(k * dj)[0])
        a, b = bc.coefficients()
        assert _residual(0, k, 1.0, a, b)[0][0] == 0.0
        basis = find_eigenvalues(0, 1.0, bc, 4)
        assert basis.eigenvalues[0] == np.pi / 4.0
        assert abs(residual(0, basis.eigenvalues, 1.0, bc)).max() < 1e-10
        expected = mp_mode_norm(0, np.pi / 4.0, 1.0, False)
        assert abs(basis.norms[0] - expected) <= NORM_RTOL * expected

    @pytest.mark.parametrize(
        "bc", [DIRICHLET, ZERO_FLUX, BoundaryCondition.mixed(1.0, 2.0)]
    )
    @pytest.mark.parametrize("order", [0, 3, 16, 32])
    def test_norms_match_scalar_formula(self, bc, order):
        # The closed forms in 30-digit mpmath at the found roots; norms from
        # scipy's jv miss them by up to 1.2e-13 here.
        pytest.importorskip("mpmath")
        basis = find_eigenvalues(order, 2.0, bc, 64)
        for k, norm in zip(basis.eigenvalues, basis.norms):
            if k == 0.0:
                expected = 0.5 * 2.0**2
            else:
                expected = mp_mode_norm(order, float(k), 2.0, bc is DIRICHLET)
            assert abs(norm - expected) <= NORM_RTOL * expected
