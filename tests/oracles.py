"""Independent oracles the tests check the package against.

Everything here is deliberately written from scratch (truncated power
series, hand-rolled bisection, adaptive quadrature of the integrand) or
taken from 30-digit mpmath, so the expected values never flow through the
code paths under test. Two exceptions reuse package code on purpose:
``scalar_eigenvalues`` the Bessel evaluator, as it checks the lock-step
search against a one-bracket-at-a-time search, not the evaluator; and
``whole_basis_lag0_march`` the transform and the step weights, as it checks
which orders the integrator transforms, not the transform or the weights.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.integrate import quad
from scipy.special import jv, jvp

from diskrd.bessel import _evaluator


def jn_series(order: int, x: float, terms: int = 60) -> float:
    """Truncated power series of J_order(x).

    J_n(x) = sum_q (-1)^q / (q! (q+n)!) (x/2)^(2q+n); alternating-term
    cancellation keeps double precision good to ~1e-13 for x up to 12.
    """
    half = x / 2.0
    term = half**order / math.factorial(order)
    total = term
    for q in range(1, terms):
        term *= -(half * half) / (q * (q + order))
        total += term
        if abs(term) < 1e-18 * max(1.0, abs(total)):
            break
    return total


def bisect(fn, lo: float, hi: float, tol: float = 1e-13) -> float:
    flo = fn(lo)
    if flo == 0.0:
        return lo
    if flo * fn(hi) > 0.0:
        raise ValueError("bisection bracket does not straddle a root")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo = mid
            flo = fmid
    return 0.5 * (lo + hi)


def bessel_zero(order: int, index: int) -> float:
    """index-th positive zero of J_order, via series scan plus bisection."""
    found = 0
    step = 0.05
    x = step
    prev = jn_series(order, x)
    while x < 60.0:
        nxt = jn_series(order, x + step)
        if prev * nxt < 0.0:
            found += 1
            if found == index:
                return bisect(lambda t: jn_series(order, t), x, x + step)
        prev = nxt
        x += step
    raise ValueError("zero not found below the scan ceiling")


def quad_mode_norm(order: int, k: float, radius: float) -> float:
    """Adaptive quadrature of integral_0^R r J_order(k r)^2 dr."""
    value, _ = quad(lambda r: r * jv(order, k * r) ** 2, 0.0, radius, limit=200)
    return value


def residual(order: int, k, radius: float, bc) -> np.ndarray:
    """Eigencondition A k J_n'(kR) + B J_n(kR) by scipy's jv and jvp."""
    a, b = bc.coefficients()
    k = np.asarray(k, dtype=float)
    return a * k * jvp(order, k * radius) + b * jv(order, k * radius)


def quad_mode_overlap(order: int, k1: float, k2: float, radius: float) -> float:
    value, _ = quad(lambda r: r * jv(order, k1 * r) * jv(order, k2 * r), 0.0, radius, limit=200)
    return value


def equilibria_scan(birth, mortality: float, hi: float, points: int = 20001) -> list[float]:
    """Roots of birth(w) = mortality * w on [0, hi] by scan plus bisection."""

    def excess(w: float) -> float:
        return float(birth(w) - mortality * w)

    roots = [0.0]
    grid = np.linspace(0.0, hi, points)
    vals = [excess(w) for w in grid]
    for i in range(points - 1):
        if vals[i] * vals[i + 1] < 0.0:
            roots.append(bisect(excess, float(grid[i]), float(grid[i + 1]), tol=1e-11))
    return roots


def scalar_eigenvalues(order: int, radius: float, a: float, b: float, count: int) -> np.ndarray:
    """First ``count`` positive roots of A k J_n'(kR) + B J_n(kR), found one
    point and one bracket at a time with scalar arithmetic.

    J_n and J_n' come from the package evaluator one point at a time, on
    the node table the search builds for the same lattice, so this checks
    the search, not the evaluator. k runs over a pi / (4R) lattice up to
    (count + order + 2) pi / R, starting at 1e-9 of a step; from the first
    point with kR > n on, a lattice point with a zero residual is a root,
    and every sign change is refined alone: secant start, Newton steps
    (slope from the Bessel ODE), bisection when a step would leave the
    bracket, stop once the step or the bracket is at most 2 eps k. The k = 0
    constant mode is not included.
    """
    step = np.pi / (4.0 * radius)
    lattice = np.arange(0.0, (count + order + 2) * np.pi / radius + step, step)
    lattice[0] = 1e-9 * step
    evaluate = _evaluator((order,), lattice[-1] * radius)

    def g_and_slope(k: float) -> tuple[float, float]:
        x = k * radius
        jn, dj = (float(v[0]) for v in evaluate(order, np.array([x])))
        return a * (k * dj) + b * jn, b * radius * dj - a * (x - order * order / x) * jn

    tiny = 2.0 * np.finfo(float).eps

    def refine(lo: float, hi: float, g_lo: float, g_hi: float) -> float:
        k = lo - g_lo * (hi - lo) / (g_hi - g_lo)
        side = np.sign(g_lo)
        for _ in range(100):
            g, slope = g_and_slope(k)
            if np.sign(g) == side:
                lo = k
            else:
                hi = k
            newton = k - g / slope
            converged = abs(newton - k) <= tiny * k
            new = newton if converged or lo < newton < hi else 0.5 * (lo + hi)
            if converged or hi - lo <= tiny * k:
                return new
            k = new
        raise RuntimeError("bracket did not converge")

    with np.errstate(divide="ignore", invalid="ignore"):
        values = [g_and_slope(k)[0] for k in lattice]
        roots: list[float] = []
        for i in range(lattice.size - 1):
            if len(roots) == count:
                break
            if lattice[i] * radius <= order:
                continue
            if values[i] == 0.0:
                roots.append(lattice[i])
            elif values[i] * values[i + 1] < 0.0:
                roots.append(refine(lattice[i], lattice[i + 1], values[i], values[i + 1]))
    return np.array(roots, dtype=float)


@functools.lru_cache(maxsize=None)
def mp_bessel_zeros(order: int, count: int, derivative: int) -> tuple:
    """First ``count`` positive zeros of J_order (derivative 0) or of
    J_order' (derivative 1), to 30 digits, by ``mpmath.besseljzero``."""
    import mpmath

    with mpmath.workdps(30):
        zeros = (mpmath.besseljzero(order, m, derivative) for m in range(1, count + 2))
        return tuple(z for z in zeros if z > 0)[:count]


def mp_mixed_root(order: int, radius: float, a: float, b: float, lo, hi):
    """30-digit root of A k J_n'(kR) + B J_n(kR) with kR in the bracket
    (lo, hi), by ``mpmath.findroot``; returned as k. The bracket must hold
    one sign change."""
    import mpmath

    with mpmath.workdps(30):
        scale = mpmath.mpf(a) / mpmath.mpf(radius)

        def g(x):
            # x J_n'(x) = x J_{n-1}(x) - n J_n(x), finite at x = 0.
            jn = mpmath.besselj(order, x)
            return scale * (x * mpmath.besselj(order - 1, x) - order * jn) + b * jn

        if g(mpmath.mpf(lo)) * g(mpmath.mpf(hi)) >= 0:
            raise ValueError("mixed-condition bracket does not straddle a root")
        x = mpmath.findroot(g, (mpmath.mpf(lo), mpmath.mpf(hi)), solver="anderson")
        return x / mpmath.mpf(radius)


def mp_mode_norm(order: int, k: float, radius: float, dirichlet: bool) -> float:
    """integral_0^R r J_n(k r)^2 dr at one eigenvalue k > 0 to 30 digits, by
    the closed form R^2 J_{n+1}(kR)^2 / 2 (Dirichlet) or the Lommel form
    otherwise, in ``mpmath``."""
    import mpmath

    with mpmath.workdps(30):
        k, radius = mpmath.mpf(float(k)), mpmath.mpf(radius)
        x = k * radius
        upper = mpmath.besselj(order + 1, x)
        if dirichlet:
            return float(radius**2 / 2 * upper**2)
        slope = (mpmath.besselj(order - 1, x) - upper) / 2
        return float(
            (radius**2 - (order / k) ** 2) / 2 * mpmath.besselj(order, x) ** 2
            + radius**2 / 2 * slope**2
        )


def mp_gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights of degree n on [-1, 1]
    to 30 digits: Newton's method on the three-term recurrence for P_n,
    from the asymptotic guess cos(pi (i + 3/4) / (n + 1/2)), in float until
    it settles and then twice in ``mpmath``; w = 2 / ((1 - x^2) P_n'^2)."""
    import mpmath

    def newton(x, one):
        p_prev, p = one, x
        for m in range(1, n):
            p_prev, p = p, ((2 * m + 1) * x * p - m * p_prev) / (m + 1)
        slope = n * (p_prev - x * p) / (1 - x * x)
        return x - p / slope, slope

    x = np.cos(np.pi * (np.arange((n + 1) // 2) + 0.75) / (n + 0.5))
    for _ in range(8):
        x = newton(x, np.ones_like(x))[0]
    nodes, weights = [], []
    with mpmath.workdps(32):
        for start in x:
            node = mpmath.mpf(float(start))
            for _ in range(2):
                node, slope = newton(node, mpmath.mpf(1))
            nodes.append(float(node))
            weights.append(float(2 / ((1 - node * node) * slope * slope)))
    half = n // 2  # the nonnegative nodes, largest first; a zero node once
    nodes = np.array([-v for v in nodes] + nodes[:half][::-1])
    return nodes, np.array(weights + weights[:half][::-1])


def pack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The packed array (n_max + 1, 2, ...) of cosine coefficients ``a``
    (orders 0..n_max) and sine coefficients ``b`` (orders 1..n_max), with
    the order-0 sine slot 0."""
    packed = np.zeros((len(a), 2) + a.shape[1:])
    packed[:, 0] = a
    packed[1:, 1] = b
    return packed


def loop_analyze(grid, bases, values: np.ndarray) -> np.ndarray:
    """Packed coefficients (n_max + 1, 2, j_max) of grid samples shaped
    (n_r, n_theta), one order and one of cos / sin at a time:

        c[n, s, j] = dtheta / (pi N_nj) sum_i w_i r_i J_n(k_nj r_i) sum_l trig_s(n theta_l) v_il,

    halved at order 0, with the radial table taken from each basis and the
    order-0 sine slot left at 0.
    """
    weights = grid.r_weights * grid.r_nodes
    theta = grid.theta_nodes
    coeffs = np.zeros((len(bases), 2, bases[0].count))
    for n, basis in enumerate(bases):
        table = basis.radial_table(grid.r_nodes)
        scale = (2.0 * np.pi / theta.size) / (np.pi * basis.norms) * (0.5 if n == 0 else 1.0)
        coeffs[n, 0] = scale * (table @ (weights * (values @ np.cos(n * theta))))
        if n:
            coeffs[n, 1] = scale * (table @ (weights * (values @ np.sin(n * theta))))
    return coeffs


def loop_synthesize(grid, bases, coeffs: np.ndarray) -> np.ndarray:
    """Grid samples of packed coefficients, summed one order and one of
    cos / sin at a time."""
    theta = grid.theta_nodes
    values = np.zeros((grid.n_r, grid.n_theta))
    for n, basis in enumerate(bases):
        table = basis.radial_table(grid.r_nodes)
        values += np.outer(coeffs[n, 0] @ table, np.cos(n * theta))
        if n:
            values += np.outer(coeffs[n, 1] @ table, np.sin(n * theta))
    return values


def two_term_l2(bases, a: np.ndarray, b: np.ndarray) -> float:
    """Disk L2 norm of the expansion (a, b) from the mode norms:
    sqrt(2 pi sum N_0j a_0j^2 + pi sum_{n >= 1} N_nj (a_nj^2 + b_nj^2))."""
    norms = np.stack([basis.norms for basis in bases])
    total = 2.0 * np.pi * np.dot(norms[0], a[0] ** 2)
    total += np.pi * np.sum(norms[1:] * (a[1:] ** 2 + b**2))
    return float(np.sqrt(total))


def whole_basis_lag0_march(spec, transform, dt: float, w0, steps: int):
    """A plain lag-0 march of ``spec`` on ``transform``'s whole circle: the
    rows (t, max, min, population, rate) of ``steps`` steps and the final
    packed coefficients.

    Every state is synthesised and its births analysed over every order,
    and the static mode is the forcing mode analysed over the whole basis.
    The source of the state at t is f(t - delay) * static + births(t): the
    forced birth's undamped, the delay-0 maturation variants' damped by
    survival * exp(-k^2 spread). The step is the integrator's AB2 under the
    phi1 factor (Euler at the first step), with its phi1 weights and its
    decay factors, subnormals stored as 0; the rate is the L2 norm of the
    change from the mode norms (``two_term_l2``) over dt.
    """
    from diskrd.kernel import damping_factors
    from diskrd.model import Variant, linear_rates
    from diskrd.solver import _phi1

    grid, bases = transform.grid, transform.bases
    rates = linear_rates(spec, bases)
    decay = np.exp(-rates * dt)
    decay[decay < np.finfo(float).tiny] = 0.0
    phi = _phi1(rates, dt)
    forced = spec.variant is Variant.MODE_FORCED_BIRTH
    static = transform.analyze_values(spec.forcing_profile(grid)) if forced else 0.0
    damp = 1.0 if forced else damping_factors(bases, spec.survival, spec.spread)
    r, th = grid.mesh()
    coeffs = transform.analyze_values(np.asarray(w0(0.0, r, th), dtype=float) + np.zeros_like(r))
    values = transform.synthesize_values(coeffs)
    rows = [(0.0, values.max(), values.min(), grid.integrate(values), 0.0)]
    prev = None
    for i in range(steps):
        births = damp * transform.analyze_values(spec.birth(values))
        src = spec.forcing_value(i * dt) * static + births
        stage = src if prev is None else 1.5 * src - 0.5 * prev
        new = decay * coeffs + phi * stage
        change = new - coeffs
        coeffs, prev = new, src
        values = transform.synthesize_values(coeffs)
        rate = two_term_l2(bases, change[:, 0], change[1:, 1]) / dt
        rows.append(((i + 1) * dt, values.max(), values.min(), grid.integrate(values), rate))
    return np.array(rows).T, coeffs
