"""Independent oracles the tests check the package against.

Everything here is deliberately written from scratch (truncated power
series, hand-rolled bisection, adaptive quadrature of the integrand) so
the expected values never flow through the code paths under test.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import jv, jvp


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
    """First ``count`` positive roots of A k J_n'(kR) + B J_n(kR), one scalar
    ``jvp`` / ``jv`` call per point: scan k on a pi / (4R) lattice up to
    (count + order + 2) pi / R, starting just above zero, and refine each
    sign change with brentq. The k = 0 constant mode is not included.
    """

    def g(k: float) -> float:
        x = k * radius
        val = 0.0
        if a != 0.0:
            val += a * k * jvp(order, x)
        if b != 0.0:
            val += b * jv(order, x)
        return val

    step = np.pi / (4.0 * radius)
    lattice = np.arange(0.0, (count + order + 2) * np.pi / radius + step, step)
    lattice[0] = 1e-9 * step
    values = [g(k) for k in lattice]
    rtol = 4.0 * np.finfo(float).eps
    roots: list[float] = []
    for i in range(lattice.size - 1):
        if len(roots) == count:
            break
        if values[i] * values[i + 1] < 0.0:
            roots.append(brentq(g, lattice[i], lattice[i + 1], xtol=1e-15, rtol=rtol))
    return np.array(roots)


def scalar_mode_norm(order: int, k: float, radius: float, dirichlet: bool) -> float:
    """integral_0^R r J_n(k r)^2 dr at one eigenvalue k > 0, by the closed
    form R^2 J_{n+1}(kR)^2 / 2 (Dirichlet) or the Lommel form otherwise."""
    x = k * radius
    if dirichlet:
        return 0.5 * radius**2 * jv(order + 1, x) ** 2
    return (
        0.5 * (radius**2 - (order / k) ** 2) * jv(order, x) ** 2
        + 0.5 * radius**2 * jvp(order, x) ** 2
    )
