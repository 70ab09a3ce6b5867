import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import jv

from diskrd.bessel import BoundaryCondition
from diskrd.model import (
    Identity,
    Logistic,
    ModeSeed,
    ModelSpec,
    RickerQuadratic,
    Variant,
    _lambert_w,
    homogeneous_equilibria,
    linear_rates,
    rhs,
)
from diskrd.transform import (
    DiskField,
    DiskTransform,
    SpectralField,
    build_bases,
    default_grid,
)

from oracles import equilibria_scan, pack

ZERO_FLUX = BoundaryCondition.zero_flux()


def make_spec(variant, **kw):
    base = dict(
        diffusion=5.0,
        mortality=0.01,
        survival=0.1,
        spread=0.1,
        delay=1.0,
        radius=1.0,
    )
    base.update(kw)
    return ModelSpec(variant=variant, **base)


@pytest.fixture(scope="module")
def forced_setup():
    spec = make_spec(
        Variant.MODE_FORCED,
        bc=ZERO_FLUX,
        forcing=lambda t: 1.0,
        forcing_mode_k=3.8317,
        n_max=4,
        j_max=6,
    )
    bases = build_bases(spec.n_max, spec.j_max, spec.radius, spec.bc)
    tr = DiskTransform(default_grid(bases), bases)
    return spec, bases, tr


class TestBirthLaws:
    def test_identity(self):
        assert Identity()(2.5) == 2.5

    def test_logistic_zeros(self):
        b = Logistic(0.5, 10.0)
        assert b(0.0) == 0.0
        assert b(10.0) == 0.0

    def test_ricker_quadratic_value(self):
        b = RickerQuadratic(0.25, 0.1)
        assert b(1.0) == pytest.approx(0.25 * np.exp(-0.1), rel=1e-14)
        assert b(0.0) == 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Logistic(-1.0, 1.0)
        with pytest.raises(ValueError):
            RickerQuadratic(0.25, 0.0)

    def test_mode_seed_profile(self):
        seed = ModeSeed(lambda t: 2.0, 3.8317)
        bases = build_bases(1, 3, 1.0, BoundaryCondition.dirichlet())
        grid = default_grid(bases)
        r, th = grid.mesh()
        assert_allclose(seed.field(grid, 0.0), 2.0 * jv(1, 3.8317 * r) * np.cos(th))


class TestModelSpecValidation:
    def test_defaults_bc_by_variant(self):
        spec = make_spec(Variant.FULL_ZERO_FLUX, birth=Identity())
        assert spec.bc == ZERO_FLUX
        spec2 = make_spec(Variant.MODE_FORCED)
        assert spec2.bc == BoundaryCondition.dirichlet()

    def test_full_variant_bc_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_spec(Variant.FULL_DIRICHLET, bc=ZERO_FLUX, birth=Identity())

    def test_maturation_variants_need_birth(self):
        with pytest.raises(ValueError):
            make_spec(Variant.RADIAL)

    def test_radial_rejects_mode_seed(self):
        # The seed is an order-1 mode; the radial reduction keeps order 0 only.
        with pytest.raises(ValueError, match="radial.*ModeSeed"):
            make_spec(Variant.RADIAL, birth=ModeSeed(lambda t: 1.0, 3.8317))

    def test_physical_bounds(self):
        with pytest.raises(ValueError):
            make_spec(Variant.MODE_FORCED, diffusion=0.0)
        with pytest.raises(ValueError):
            make_spec(Variant.MODE_FORCED, survival=0.0)

    def test_forcing_damping_exponents(self):
        spec = make_spec(Variant.MODE_FORCED, forcing_mode_k=3.8317)
        assert spec.forcing_damping() == pytest.approx(
            0.1 * np.exp(-(3.8317**2) * 0.1), rel=1e-14
        )
        literal = make_spec(
            Variant.MODE_FORCED, forcing_mode_k=3.8317, forcing_exponent_linear=True
        )
        assert literal.forcing_damping() == pytest.approx(
            0.1 * np.exp(-3.8317 * 0.1), rel=1e-14
        )


class TestLinearRates:
    def test_matches_dispersion(self, forced_setup):
        spec, bases, _ = forced_setup
        rates = linear_rates(spec, bases)
        for n, basis in enumerate(bases):
            assert_allclose(rates[n], [5.0 * basis.eigenvalues**2 + 0.01] * 2, rtol=1e-14)


class TestRhs:
    def test_single_mode_diagonal_action(self, forced_setup):
        spec, bases, tr = forced_setup
        silent = make_spec(
            Variant.MODE_FORCED, bc=ZERO_FLUX, forcing=lambda t: 0.0, n_max=4, j_max=6
        )
        c = np.zeros((5, 2, 6))
        c[2, 0, 1] = 1.3
        rates, source = rhs(0.0, SpectralField(bases, c), None, silent, tr)
        k = bases[2].eigenvalues[1]
        assert rates[2, 0, 1] == rates[2, 1, 1] == pytest.approx(5.0 * k**2 + 0.01, rel=1e-14)
        assert np.max(np.abs(source.values)) == 0.0

    def test_forced_source_matches_closed_form(self, forced_setup):
        # Zero history, unit forcing: the source is the damped seeded mode
        # with amplitude survival * exp(-k2^2 * spread).
        spec, bases, tr = forced_setup
        state = SpectralField.zeros(bases)
        _, source = rhs(0.0, state, None, spec, tr)
        r, th = tr.grid.mesh()
        amp = 0.1 * np.exp(-(3.8317**2) * 0.1)
        expected = amp * jv(1, 3.8317 * r) * np.cos(th)
        assert np.max(np.abs(source.values - expected)) < 1e-14

    def test_additivity_for_identity_birth(self):
        spec = make_spec(
            Variant.FULL_ZERO_FLUX, birth=Identity(), n_max=3, j_max=4, delay=0.0
        )
        bases = build_bases(spec.n_max, spec.j_max, spec.radius, spec.bc)
        tr = DiskTransform(default_grid(bases), bases)
        rng = np.random.default_rng(12)
        a1 = rng.uniform(-1, 1, (4, 4))
        b1 = rng.uniform(-1, 1, (3, 4))
        a2 = rng.uniform(-1, 1, (4, 4))
        b2 = rng.uniform(-1, 1, (3, 4))
        f1 = DiskField(tr.grid, tr.synthesize_values(pack(a1, b1)))
        f2 = DiskField(tr.grid, tr.synthesize_values(pack(a2, b2)))
        fsum = DiskField(tr.grid, f1.values + f2.values)
        zero_state = SpectralField.zeros(bases)
        _, s1 = rhs(0.0, zero_state, f1, spec, tr)
        _, s2 = rhs(0.0, zero_state, f2, spec, tr)
        _, ssum = rhs(0.0, zero_state, fsum, spec, tr)
        assert np.max(np.abs(ssum.values - s1.values - s2.values)) < 1e-8

    def test_forced_variant_without_birth_equals_birth_dropped(self, forced_setup):
        spec, bases, tr = forced_setup
        with_birth_slot = make_spec(
            Variant.MODE_FORCED_BIRTH,
            bc=ZERO_FLUX,
            forcing=lambda t: 1.0,
            forcing_mode_k=3.8317,
            birth=None,
            n_max=4,
            j_max=6,
        )
        c = np.zeros((5, 2, 6))
        c[0, 0, 1] = 0.4
        state = SpectralField(bases, c)
        _, plain = rhs(0.3, state, None, spec, tr)
        _, dropped = rhs(0.3, state, None, with_birth_slot, tr)
        assert np.array_equal(plain.values, dropped.values)

    def test_local_birth_term_added(self, forced_setup):
        _, bases, tr = forced_setup
        birth = RickerQuadratic(0.25, 0.1)
        spec = make_spec(
            Variant.MODE_FORCED_BIRTH,
            bc=ZERO_FLUX,
            forcing=lambda t: 0.0,
            birth=birth,
            n_max=4,
            j_max=6,
        )
        c = np.zeros((5, 2, 6))
        c[0, 0, 0] = 2.0  # flat field of value 2
        state = SpectralField(bases, c)
        _, source = rhs(0.0, state, None, spec, tr)
        assert_allclose(source.values, birth(2.0), rtol=1e-12)

    def test_equilibrium_balances_to_zero_derivative(self, forced_setup):
        _, bases, tr = forced_setup
        birth = RickerQuadratic(0.25, 0.1)
        spec = make_spec(
            Variant.MODE_FORCED_BIRTH,
            bc=ZERO_FLUX,
            forcing=lambda t: 0.0,
            birth=birth,
            n_max=4,
            j_max=6,
        )
        wstar = homogeneous_equilibria(spec)[-1]
        c = np.zeros((5, 2, 6))
        c[0, 0, 0] = wstar
        state = SpectralField(bases, c)
        rates, source = rhs(0.0, state, None, spec, tr)
        deriv = -rates * state.coeffs + tr.analyze_values(source.values)
        assert np.max(np.abs(deriv[:, 0])) < 1e-9 * max(1.0, wstar)
        assert np.max(np.abs(deriv[1:, 1])) < 1e-9

    def test_radial_closure(self):
        spec = make_spec(
            Variant.RADIAL, birth=RickerQuadratic(0.25, 0.1), n_max=3, j_max=5, delay=0.0
        )
        bases = build_bases(spec.n_max, spec.j_max, spec.radius, spec.bc)
        tr = DiskTransform(default_grid(bases), bases)
        rng = np.random.default_rng(13)
        c = np.zeros((4, 2, 5))
        c[0, 0] = rng.uniform(0.1, 1.0, 5)
        state = SpectralField(bases, c)
        lagged = tr.synthesize(state)
        _, source = rhs(0.0, state, lagged, spec, tr)
        assert np.max(np.abs(tr.analyze_values(source.values)[1:])) < 1e-10

    def test_maturation_variant_requires_lagged(self, forced_setup):
        _, bases, tr = forced_setup
        spec = make_spec(Variant.FULL_ZERO_FLUX, birth=Identity(), n_max=4, j_max=6)
        with pytest.raises(ValueError):
            rhs(0.0, SpectralField.zeros(bases), None, spec, tr)

    def test_seeded_birth_reduces_to_forced_variant(self):
        # Seeding one exact eigenmode through the maturation machinery must
        # agree with the closed-form forced source: the projection hits a
        # single mode, so the per-mode damping collapses to one factor.
        bases = build_bases(2, 4, 1.0, BoundaryCondition.dirichlet())
        tr = DiskTransform(default_grid(bases), bases)
        k_exact = float(bases[1].eigenvalues[0])
        amplitude = lambda t: 0.7
        full = make_spec(
            Variant.FULL_DIRICHLET,
            birth=ModeSeed(amplitude, k_exact),
            n_max=2,
            j_max=4,
        )
        forced = make_spec(
            Variant.MODE_FORCED,
            forcing=amplitude,
            forcing_mode_k=k_exact,
            n_max=2,
            j_max=4,
        )
        state = SpectralField.zeros(bases)
        lagged = DiskField.zeros(tr.grid)
        _, via_maturation = rhs(2.0, state, lagged, full, tr)
        _, via_forcing = rhs(2.0, state, None, forced, tr)
        assert np.max(np.abs(via_maturation.values - via_forcing.values)) < 1e-10


class TestHomogeneousEquilibria:
    def test_quadratic_birth_roots_match_oracle(self):
        spec = make_spec(
            Variant.MODE_FORCED_BIRTH,
            bc=ZERO_FLUX,
            birth=RickerQuadratic(0.25, 0.1),
        )
        roots = homogeneous_equilibria(spec)
        expected = equilibria_scan(RickerQuadratic(0.25, 0.1), 0.01, 200.0)
        assert_allclose(roots, expected, atol=1e-8)
        assert roots[0] == 0.0
        assert roots[1] == pytest.approx(0.0402, abs=1e-4)
        assert roots[2] == pytest.approx(75.5, abs=0.1)

    def test_ricker_root_below_a_scan_spacing(self):
        # s w exp(-d w) = mu has a root near mu / s = 1e-3, below the 2.5e-3
        # spacing of a 4001-point scan of [0, 10 / d]; the closed form keeps it.
        birth = RickerQuadratic(2.0, 1.0)
        spec = make_spec(Variant.MODE_FORCED_BIRTH, bc=ZERO_FLUX, mortality=0.002, birth=birth)
        roots = homogeneous_equilibria(spec)
        assert roots.size == 3 and roots[0] == 0.0
        assert roots[1] < 2.5e-3 < roots[2] < 10.0
        for w in roots[1:]:
            assert birth(w) == pytest.approx(0.002 * w, rel=1e-14)

    def test_ricker_above_the_tangent_mortality(self):
        # -d mu / s = -0.4 < -1/e: b(w) stays below mu w for every w > 0.
        spec = make_spec(
            Variant.MODE_FORCED_BIRTH, bc=ZERO_FLUX, mortality=1.0, birth=RickerQuadratic(0.25, 0.1)
        )
        assert_allclose(homogeneous_equilibria(spec), [0.0])

    def test_logistic_without_mortality(self):
        spec = make_spec(
            Variant.MODE_FORCED_BIRTH,
            bc=ZERO_FLUX,
            mortality=0.0,
            birth=Logistic(0.7, 4.0),
        )
        assert_allclose(homogeneous_equilibria(spec), [0.0, 4.0], atol=1e-9)

    def test_logistic_submarginal_mortality(self):
        spec = make_spec(
            Variant.MODE_FORCED_BIRTH,
            bc=ZERO_FLUX,
            mortality=1.5,
            birth=Logistic(0.7, 4.0),
        )
        assert_allclose(homogeneous_equilibria(spec), [0.0])

    def test_rejects_non_density_dependent_birth(self):
        spec = make_spec(Variant.MODE_FORCED, bc=ZERO_FLUX)
        with pytest.raises(ValueError):
            homogeneous_equilibria(spec)


class TestLambertW:
    """The real branches 0 and -1 against 30-digit mpmath, up to the branch
    point z = -1/e and down to z -> 0-."""

    ULPS = 4.0

    @staticmethod
    def ulps(z, branch):
        import mpmath

        with mpmath.workdps(30):
            exact = mpmath.lambertw(mpmath.mpf(float(z)), branch)
            assert mpmath.im(exact) == 0
            got = _lambert_w(float(z), branch)
            return float(abs(mpmath.mpf(got) - mpmath.re(exact))) / np.spacing(abs(got))

    @pytest.mark.parametrize("branch", [0, -1])
    def test_toward_the_branch_point(self, branch):
        pytest.importorskip("mpmath")
        inv_e = np.exp(-1.0)  # one ulp above 1/e, so -inv_e lies just below -1/e
        for offset in np.concatenate([np.logspace(-15, -0.5, 60), [2 * np.spacing(inv_e)]]):
            assert self.ulps(-inv_e + offset, branch) <= self.ULPS

    @pytest.mark.parametrize("branch", [0, -1])
    def test_toward_zero_from_below(self, branch):
        pytest.importorskip("mpmath")
        for z in -np.logspace(-300, np.log10(0.3), 80):
            assert self.ulps(z, branch) <= self.ULPS

    def test_principal_branch_for_positive_z(self):
        pytest.importorskip("mpmath")
        for z in np.logspace(-300, 300, 80):
            assert self.ulps(z, 0) <= self.ULPS

    def test_branch_point_and_ends(self):
        # -exp(-1) rounds to just below -1/e: both branches meet at w = -1.
        assert _lambert_w(-np.exp(-1.0), 0) == -1.0
        assert _lambert_w(-np.exp(-1.0), -1) == -1.0
        assert _lambert_w(0.0, 0) == 0.0
        assert _lambert_w(0.0, -1) == -np.inf
        with pytest.raises(ValueError):
            _lambert_w(-0.37, 0)
        with pytest.raises(ValueError):
            _lambert_w(0.5, -1)


class TestForcingProfile:
    def test_profile_shape(self, forced_setup):
        spec, _, tr = forced_setup
        values = ModeSeed(spec.forcing_value, spec.forcing_mode_k).profile(tr.grid)
        r, th = tr.grid.mesh()
        assert_allclose(values, jv(1, spec.forcing_mode_k * r) * np.cos(th))
