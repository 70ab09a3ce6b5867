"""Bessel functions of the first kind and disk eigenvalue bases.

The radial factors of Laplacian eigenfunctions on a disk of radius R are
J_n(k r), where the admissible wavenumbers k are fixed by the condition
imposed at the edge r = R:

    Dirichlet   J_n(kR) = 0            (lethal exterior)
    ZeroFlux    J_n'(kR) = 0           (reflecting edge)
    Mixed       A k J_n'(kR) + B J_n(kR) = 0

This module evaluates J_n and its derivative, brackets and refines the
admissible k for each angular order, and supplies the weighted norms
``integral_0^R r J_n(k r)^2 dr`` needed to normalise expansions.

J_{n-1} and J_n come from j0 / j1 and the upward recurrence
J_{m+1}(x) = (2m / x) J_m(x) - J_{m-1}(x), which is stable while m < x
(Abramowitz & Stegun 9.12; Gautschi 1967); the entries with x < n, where
upward recurrence loses accuracy, use ``jv`` directly. Tables, the
eigenvalue scan, its Newton refinement and the norms all share that one
evaluation. Every positive root of the three conditions lies at kR > n,
so the refinement runs on recurrence values alone.

Everything here is pure and the returned bases are immutable, so they can
be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import j0, j1, jv

__all__ = [
    "MAX_EIGENVALUES",
    "BoundaryKind",
    "BoundaryCondition",
    "BesselBasis",
    "EigenvalueSearchError",
    "bessel_j_prime",
    "eigencondition",
    "find_eigenvalues",
    "mode_norm",
]

MAX_EIGENVALUES = 256

# Residual tolerance every accepted eigenvalue must meet.
RESIDUAL_TOL = 1e-10

# Newton steps allowed per bracket; bisection alone needs about 55.
_MAX_NEWTON = 100


class BoundaryKind(Enum):
    DIRICHLET = "dirichlet"
    ZERO_FLUX = "zero_flux"
    MIXED = "mixed"


@dataclass(frozen=True)
class BoundaryCondition:
    """Edge behaviour at r = R, in the form A * dw/dr + B * w = 0.

    Dirichlet is the special case A = 0, zero flux is B = 0; a mixed
    condition carries its own (A, B), which must not both vanish and must
    satisfy A * B >= 0. A negative ratio B / A admits growing modes with
    imaginary k (I_n instead of J_n), which the real-k bases cannot hold.
    """

    kind: BoundaryKind
    mixed_a: float = 0.0
    mixed_b: float = 0.0

    def __post_init__(self) -> None:
        if self.kind is BoundaryKind.MIXED and self.mixed_a == 0.0 and self.mixed_b == 0.0:
            raise ValueError("mixed boundary condition requires (A, B) != (0, 0)")
        if self.kind is BoundaryKind.MIXED and self.mixed_a * self.mixed_b < 0.0:
            raise ValueError(
                "mixed boundary condition requires A * B >= 0 (bc_mixed_a, bc_mixed_b); "
                "a negative ratio B / A has modes with imaginary k, which are not supported"
            )

    @classmethod
    def dirichlet(cls) -> "BoundaryCondition":
        return cls(BoundaryKind.DIRICHLET)

    @classmethod
    def zero_flux(cls) -> "BoundaryCondition":
        return cls(BoundaryKind.ZERO_FLUX)

    @classmethod
    def mixed(cls, a: float, b: float) -> "BoundaryCondition":
        return cls(BoundaryKind.MIXED, float(a), float(b))

    def coefficients(self) -> tuple[float, float]:
        """(A, B) of the eigencondition A k J_n'(kR) + B J_n(kR) = 0."""
        if self.kind is BoundaryKind.DIRICHLET:
            return 0.0, 1.0
        if self.kind is BoundaryKind.ZERO_FLUX:
            return 1.0, 0.0
        return self.mixed_a, self.mixed_b

    def admits_constant_mode(self, order: int) -> bool:
        """Whether k = 0 (a flat eigenfunction) belongs to this basis.

        Only the order-zero basis under a pure derivative condition has
        one; without it the mean of a field would be unrepresentable.
        """
        return order == 0 and self.coefficients()[1] == 0.0

    def label(self) -> str:
        if self.kind is BoundaryKind.MIXED:
            return f"mixed(A={self.mixed_a:g},B={self.mixed_b:g})"
        return self.kind.value


def bessel_j_prime(order: int, x):
    """Derivative dJ_order/dx = (J_{order-1}(x) - J_{order+1}(x)) / 2.

    The same arithmetic as ``scipy.special.jvp``, without its per-call
    overhead (satisfies J_0' = -J_1 to machine accuracy).
    """
    return (jv(order - 1, x) - jv(order + 1, x)) / 2.0


def eigencondition(order: int, k, radius: float, bc: BoundaryCondition):
    """Residual A k J_n'(kR) + B J_n(kR); its zeros are the eigenvalues."""
    a, b = bc.coefficients()
    k = np.asarray(k, dtype=float)
    x = k * radius
    res = np.zeros_like(x)
    if a != 0.0:
        res += a * k * bessel_j_prime(order, x)
    if b != 0.0:
        res += b * jv(order, x)
    return res if res.ndim else float(res)


class EigenvalueSearchError(RuntimeError):
    """The scan window could not bracket the requested number of roots."""


def _bessel_pair(order: int, x: np.ndarray, lower: bool = True):
    """(J_{order-1}(x), J_order(x)) for an array of x >= 0, in one pass.

    Entries with x >= order recur upward from j0 / j1; the rest, where that
    recurrence is unstable, come from ``jv``. With ``lower=False`` the first
    item is None and ``jv`` is called for J_order alone.
    """
    if order == 0:
        return (-j1(x) if lower else None), j0(x)
    if order == 1:
        return (j0(x) if lower else None), j1(x)
    below = x < order  # includes x = 0, where J_n(0) = 0 for n >= 1
    above = ~below
    jn = np.empty_like(x)
    jn[below] = jv(order, x[below])
    two_over_x = 2.0 / x[above]
    prev, cur = j0(x[above]), j1(x[above])
    for m in range(1, order):
        prev, cur = cur, m * two_over_x * cur - prev
    jn[above] = cur
    if not lower:
        return None, jn
    jm = np.empty_like(x)
    jm[below] = jv(order - 1, x[below])
    jm[above] = prev
    return jm, jn


def _residual(order: int, k: np.ndarray, radius: float, a: float, b: float):
    """Eigencondition g(k) = A k J_n'(kR) + B J_n(kR) and dg/dk, for k > 0.

    J_n' = J_{n-1} - (n/x) J_n, and the Bessel ODE
    x J_n'' + J_n' = -(x - n^2/x) J_n gives d/dk [k J_n'(kR)] without a
    further Bessel evaluation.
    """
    x = k * radius
    lower, jn = _bessel_pair(order, x)
    dj = lower - (order / x) * jn
    return a * (k * dj) + b * jn, b * radius * dj - a * (x - order * order / x) * jn


def _jv_rows(order: int, x: np.ndarray):
    """J_n(x), J_n'(x) and J_{n+1}(x) from ``jv``, with the arithmetic of
    ``eigencondition`` and ``bessel_j_prime``."""
    upper = jv(order + 1, x)
    return jv(order, x), (jv(order - 1, x) - upper) / 2.0, upper


def _norms(order: int, k: np.ndarray, radius: float, bc: BoundaryCondition, rows) -> np.ndarray:
    """Weighted norms ``integral_0^R r J_order(k r)^2 dr`` for k > 0, from
    the ``_jv_rows`` at kR: R^2 J_{n+1}(kR)^2 / 2 at Dirichlet eigenvalues,
    the general Lommel form otherwise."""
    jn, djn, upper = rows
    if bc.kind is BoundaryKind.DIRICHLET:
        return 0.5 * radius**2 * upper**2
    return 0.5 * (radius**2 - (order / k) ** 2) * jn**2 + 0.5 * radius**2 * djn**2


def mode_norm(order: int, k: float, radius: float, bc: BoundaryCondition) -> float:
    """Weighted norm ``integral_0^R r J_order(k r)^2 dr`` of one mode.

    Dirichlet eigenvalues use the closed form R^2 J_{n+1}(kR)^2 / 2; other
    conditions use the general Lommel form, and the k = 0 constant mode of
    a zero-flux order-zero basis integrates to R^2 / 2. The arithmetic is
    that of the norms ``find_eigenvalues`` stores.
    """
    if k < 0.0:
        raise ValueError("eigenvalue must be nonnegative")
    if k == 0.0:
        if not bc.admits_constant_mode(order):
            raise ValueError("k = 0 is only a mode for order 0 under a zero-flux condition")
        return 0.5 * radius**2
    k = np.array([float(k)])
    return float(_norms(order, k, radius, bc, _jv_rows(order, k * radius))[0])


@dataclass(frozen=True)
class BesselBasis:
    """Eigenvalues and norms of one angular order (immutable once built)."""

    order: int
    radius: float
    bc: BoundaryCondition
    eigenvalues: np.ndarray
    norms: np.ndarray

    def __post_init__(self) -> None:
        k = np.asarray(self.eigenvalues, dtype=float)
        norms = np.asarray(self.norms, dtype=float)
        if k.ndim != 1 or norms.shape != k.shape:
            raise ValueError("eigenvalues and norms must be matching 1-d arrays")
        if k.size and (np.any(np.diff(k) <= 0.0) or k[0] < 0.0):
            raise ValueError("eigenvalues must be nonnegative and strictly increasing")
        if k.size and k[0] == 0.0 and not self.bc.admits_constant_mode(self.order):
            raise ValueError("k = 0 admitted only for (order 0, zero flux)")
        if np.any(norms <= 0.0):
            raise ValueError("mode norms must be strictly positive")
        object.__setattr__(self, "eigenvalues", k)
        object.__setattr__(self, "norms", norms)
        k.setflags(write=False)
        norms.setflags(write=False)

    @property
    def count(self) -> int:
        return int(self.eigenvalues.size)

    def radial_table(self, r: np.ndarray) -> np.ndarray:
        """J_order(k_j r) sampled on ``r``, shaped (count, len(r)).

        Entries with k r >= order recur upward from j0 / j1; the rest,
        where that recurrence is unstable, come from ``jv``. The table
        agrees with 30-digit values to 1.5e-15 absolute for k r up to 250
        at orders up to 48.
        """
        x = np.outer(self.eigenvalues, np.asarray(r, dtype=float))
        return _bessel_pair(self.order, x, lower=False)[1]


def find_eigenvalues(
    order: int,
    radius: float,
    bc: BoundaryCondition,
    count: int,
    *,
    max_count: int = MAX_EIGENVALUES,
) -> BesselBasis:
    """First ``count`` admissible wavenumbers of one angular order.

    Scans k in (0, (count + order + 2) pi / R] with step pi / (4R),
    brackets sign changes of the eigencondition and refines all brackets
    at once by safeguarded Newton (``_refine``); every root is then checked
    with ``jv`` to a residual below 1e-10. The k = 0 constant mode is
    prepended when the boundary condition admits it.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if not 1 <= count <= max_count:
        raise ValueError(f"count must be in [1, {max_count}]")

    constant = int(bc.admits_constant_mode(order))
    a, b = bc.coefficients()
    step = np.pi / (4.0 * radius)
    ceiling = (count + order + 2) * np.pi / radius
    lattice = np.arange(0.0, ceiling + step, step)
    # The first probe sits just above zero: small roots of a mixed
    # condition stay bracketed while the trivial k = 0 zero of the
    # residual (order >= 1) is skipped.
    lattice[0] = 1e-9 * step
    values = _residual(order, lattice, radius, a, b)[0]

    here, there = values[:-1], values[1:]
    on_point = (here == 0.0) & (lattice[:-1] > 1e-6 * step)
    straddle = here * there < 0.0
    cells = np.flatnonzero(on_point | straddle)[: count - constant]
    if constant + cells.size < count:
        raise EigenvalueSearchError(
            f"found {constant + cells.size} of {count} eigenvalues for order {order} "
            f"({bc.label()}) below the scan ceiling {ceiling:g}; widen the scan"
        )

    roots = lattice[cells]
    inside = straddle[cells]
    bracket = cells[inside]
    roots[inside] = _refine(
        order, radius, a, b, lattice[bracket], lattice[bracket + 1], here[bracket], there[bracket]
    )
    # The independent check: the arithmetic of ``eigencondition`` on jv
    # values, whose rows also give the norms.
    rows = _jv_rows(order, roots * radius)
    residual = float(np.max(np.abs(a * roots * rows[1] + b * rows[0]), initial=0.0))
    if residual >= RESIDUAL_TOL:
        raise EigenvalueSearchError(
            f"eigencondition residual {residual:.3e} exceeds {RESIDUAL_TOL:g}"
        )
    norms = _norms(order, roots, radius, bc, rows)
    if constant:
        roots = np.concatenate(([0.0], roots))
        norms = np.concatenate(([0.5 * radius**2], norms))
    return BesselBasis(order=order, radius=radius, bc=bc, eigenvalues=roots, norms=norms)


def _refine(order, radius, a, b, lo, hi, g_lo, g_hi) -> np.ndarray:
    """Roots of the eigencondition in the brackets (lo, hi), in lock step.

    Each bracket starts from its secant point and takes Newton steps with
    the slope from ``_residual``; a step that would leave the bracket is
    replaced by bisection, and every evaluation shrinks the bracket. An
    element stops once its Newton step is at most 2 eps k or its bracket
    has collapsed to that width.
    """
    tiny = 2.0 * np.finfo(float).eps
    k = lo - g_lo * (hi - lo) / (g_hi - g_lo)
    side = np.sign(g_lo)
    roots = np.empty_like(lo)
    todo = np.arange(lo.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_NEWTON):
            if not todo.size:
                return roots
            g, slope = _residual(order, k, radius, a, b)
            low_side = np.sign(g) == side
            lo = np.where(low_side, k, lo)
            hi = np.where(low_side, hi, k)
            newton = k - g / slope
            converged = np.abs(newton - k) <= tiny * k
            new = np.where(
                converged | ((newton > lo) & (newton < hi)), newton, 0.5 * (lo + hi)
            )
            done = converged | (hi - lo <= tiny * k)
            roots[todo[done]] = new[done]
            keep = ~done
            todo, k, lo, hi, side = todo[keep], new[keep], lo[keep], hi[keep], side[keep]
    raise EigenvalueSearchError(
        f"{todo.size} eigenvalue brackets of order {order} did not converge "
        f"in {_MAX_NEWTON} Newton steps"
    )
