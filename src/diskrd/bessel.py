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

J_{n-1} and J_n come from one numpy evaluator with three regions:

    x < 2               the power series
    2 <= x < n          Miller's downward recurrence from order n + 40 (more
                        above order 64), normalised by
                        J_0^2 + 2 sum_k J_k^2 = 1 (Gautschi 1967)
    x >= n, x >= 2      J_0 and J_1, then the upward recurrence
                        J_{m+1}(x) = (2m / x) J_m(x) - J_{m-1}(x), which is
                        stable while m < x (A&S 9.12). Below x = 40, J_0 and
                        J_1 come from Taylor series about nodes 1/2 apart
                        (node values by Miller's recurrence at import, the
                        other coefficients from the Bessel ODE); above, from
                        the Hankel expansion (A&S 9.2.5-9.2.10).

Against 30-digit values it is within 1e-15 absolute up to order 64 (tests
cover x <= 300, orders 0-48). The eigenvalue scan and its Newton
refinement use it; the scan and the refinement of all orders run as one
batch (``find_bases``). Every positive root of the three conditions lies
at kR > n, so the refinement runs on recurrence values alone. A residual
check on a separate evaluation, Miller's recurrence started well above kR
at each root, accepts every root and gives its norm.

Tables J_n(k r) use the evaluator only at Taylor nodes: (J_{n-1}, J_n)
once per node 1/2 apart up to the largest k r of order n, the other Taylor
coefficients from the Bessel ODE, then one Horner sum about the nearest
node per entry (the power series below k r = 2). They hold the same 1e-15
bound (8.4e-16 measured at orders 0-48 and 64, on node midpoints, at
k r = n and up to k r = 250).

Everything here is pure and the returned bases are immutable, so they can
be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "MAX_EIGENVALUES",
    "MAX_ORDER",
    "BoundaryKind",
    "BoundaryCondition",
    "BesselBasis",
    "EigenvalueSearchError",
    "bessel_j",
    "bessel_j_prime",
    "find_bases",
    "find_eigenvalues",
    "radial_tables",
]

MAX_EIGENVALUES = 256

# Highest angular order the evaluator is built and tested for.
MAX_ORDER = 200

# Residual tolerance every accepted eigenvalue must meet.
RESIDUAL_TOL = 1e-10

# Newton steps allowed per bracket; bisection alone needs about 55.
_MAX_NEWTON = 100

# Region bounds of the evaluator, its series length, the spacing of the
# Taylor nodes, the terms of a Taylor series about a node (|h| <= 1/4, so
# h^13 / 13! < 3e-18) and the sum of squares past which Miller's values are
# scaled down (checked every 8 steps, which grow it by at most 10^50).
_SERIES_BELOW = 2.0
_HANKEL_FROM = 40.0
_SERIES_TERMS = 12
_NODE_STEP = 0.5
_TAYLOR_TERMS = 13
_MILLER_LIMIT = 2.0**800

_INV_FACTORIAL = np.array([1 / math.factorial(q) for q in range(MAX_ORDER + 2)])


def _hankel_rows(terms: int) -> np.ndarray:
    """P_0, x Q_0, P_1 and x Q_1 of the Hankel expansion (A&S 9.2.9, 9.2.10)
    as polynomials in 1 / x^2, one row each; column i multiplies x^(-2i)."""
    rows = []
    for mu in (0.0, 4.0):
        a = [1.0]
        for k in range(1, 2 * terms):
            a.append(a[-1] * (mu - (2 * k - 1) ** 2) / (8.0 * k))
        rows.append([(-1) ** i * a[2 * i] for i in range(terms)])
        rows.append([(-1) ** i * a[2 * i + 1] for i in range(terms)])
    return np.array(rows)


_HANKEL = _hankel_rows(8)


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
        if not (math.isfinite(self.mixed_a) and math.isfinite(self.mixed_b)):
            raise ValueError("boundary coefficients A, B (bc_mixed_a, bc_mixed_b) must be finite")
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


def _series(order: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J_order(x) for 0 <= x < 2 by its power series, summed by Horner's
    rule: (x/2)^n / n! * sum_q (-x^2/4)^q / (q! (n+1)_q)."""
    half = 0.5 * x
    u = -half * half
    acc = 1.0
    for q in range(_SERIES_TERMS, 0, -1):
        acc = 1.0 + u * acc / (q * (q + order))
    return half**order * _INV_FACTORIAL[order] * acc


def _groups(values: np.ndarray) -> dict[int, np.ndarray]:
    """Indices of ``values`` grouped by value."""
    perm = np.argsort(values, kind="stable")
    ordered = values[perm]
    starts = np.flatnonzero(np.diff(ordered, prepend=ordered[0] - 1)).tolist()
    ends = starts[1:] + [perm.size]
    return {int(ordered[a]): perm[a:b] for a, b in zip(starts, ends)}


def _miller(order: np.ndarray, x: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Rows J_{n-1}(x), J_n(x), J_{n+1}(x) by Miller's downward recurrence,
    for 1-d x >= 2 with per-element integer ``order`` and ``top``
    (top >= order + 2).

    Each element starts from J_top = 1, J_{top+1} = 0, recurs
    J_{m-1} = (2m / x) J_m - J_{m+1} down to J_0 (2m / x rounded once per
    step, so no rounding of 2 / x shifts the argument) and is normalised by
    J_0^2 + 2 sum_k J_k^2 = 1, a sum without cancellation. Elements with a
    lower top hold zeros until it is reached, and rescaling is by powers of
    two, so each result is that of its element's run alone.
    """
    last = int(top.max())
    seeds = [None] * (last + 1)
    for m, idx in _groups(top).items():
        seeds[m] = idx
    # The step from J_m to J_{m-1} gives the lower row of order m, the
    # middle of order m - 1 and the upper of order m - 2.
    captures = [[] for _ in range(last + 1)]
    for n, idx in _groups(order).items():
        for row in range(3):
            captures[n + row].append((row, idx))
    rows = np.zeros((3,) + x.shape)
    later, cur, squares, step = (np.zeros_like(x) for _ in range(4))
    for m in range(last, 0, -1):
        if seeds[m] is not None:
            cur[seeds[m]] = 1.0
        np.multiply(cur, cur, out=step)
        squares += step
        np.divide(2.0 * m, x, out=step)
        step *= cur
        step -= later
        later, cur, step = cur, step, later
        for row, idx in captures[m]:
            rows[row, idx] = cur[idx]
        if m % 8 == 0 and squares.max() > _MILLER_LIMIT:
            scale = np.where(squares > _MILLER_LIMIT, 2.0**-400, 1.0)
            for values in (later, cur, rows):
                values *= scale
            squares *= scale * scale
    zero = order == 0
    rows[0, zero] = -rows[2, zero]  # J_{-1} = -J_1
    return rows / np.sqrt(cur * cur + 2.0 * squares)


def _miller_top(order: np.ndarray) -> np.ndarray:
    """Even start order for x < order: order + 40 up to order 64 (at least
    50), then order + 10 order^(1/3), as the turning-point layer widens."""
    top = np.maximum(order + np.ceil(10.0 * np.cbrt(np.maximum(order, 64))).astype(int), 50)
    return top + top % 2


def _hankel(x: np.ndarray, rows: int) -> np.ndarray:
    """J_0(x) (and J_1(x) when ``rows`` is 2) for x >= 40 by the Hankel
    expansion, shaped (rows, len(x)).

    The series are summed together in one Horner loop, and
    cos(x - pi/4) = (cos x + sin x) / sqrt(2), with the matching form for
    J_1's phase, keeps x itself as the argument of cos and sin.
    """
    y = 1.0 / (x * x)
    coef = _HANKEL[: 2 * rows]
    acc = coef[:, -1:]
    for i in range(coef.shape[1] - 2, -1, -1):
        acc = acc * y + coef[:, i : i + 1]
    acc[1::2] /= x  # x Q -> Q
    cos, sin = np.cos(x), np.sin(x)
    plus, minus = cos + sin, sin - cos
    scale = 1.0 / np.sqrt(np.pi * x)
    out = np.empty((rows,) + x.shape)
    out[0] = scale * (acc[0] * plus - acc[1] * minus)
    if rows == 2:
        out[1] = scale * (acc[2] * minus + acc[3] * plus)
    return out


def _horner(coef: np.ndarray, node: np.ndarray, h: np.ndarray) -> np.ndarray:
    """sum_k coef[k][..., node] h^k by Horner's rule, each coefficient
    gathered at its element's node (``coef`` shaped (terms, ..., nodes))."""
    acc = coef[-1].take(node, axis=-1)
    for c in coef[-2::-1]:
        acc *= h
        acc += c.take(node, axis=-1)
    return acc


def _j01(x: np.ndarray, rows: int = 2) -> np.ndarray:
    """J_0(x) (and J_1(x) when ``rows`` is 2) for 1-d x >= 2, shaped
    (rows, len(x)): below 40 by the Taylor series about the nearest node
    (|h| <= 1/4), above by the Hankel expansion."""
    out = np.empty((rows,) + x.shape)
    near = x < _HANKEL_FROM
    if near.any():
        xs = x[near]
        node = np.rint((xs - _SERIES_BELOW) / _NODE_STEP).astype(int)
        h = xs - (_SERIES_BELOW + _NODE_STEP * node)
        out[:, near] = _horner(_TAYLOR[:, :rows], node, h)
    far = ~near
    if far.any():
        out[:, far] = _hankel(x[far], rows)
    return out


def _upward(order: np.ndarray, x: np.ndarray, j0: np.ndarray, j1: np.ndarray):
    """(J_{n-1}(x), J_n(x)) by upward recurrence from J_0, J_1 (which it
    overwrites), for 1-d x >= order with ``order`` ascending.

    Step m advances the elements of order above m, a suffix of the array.
    """
    top = int(order[-1])
    bounds = np.searchsorted(order, np.arange(top + 3))  # first index of order >= q
    lower, jn = np.empty_like(x), np.empty_like(x)
    head = slice(0, bounds[1])
    lower[head], jn[head] = -j1[head], j0[head]
    head = slice(bounds[1], bounds[2])
    lower[head], jn[head] = j0[head], j1[head]
    two_over_x = 2.0 / x
    prev, cur = j0, j1
    for m in range(1, top):
        s = bounds[m + 1]
        step = float(m) * two_over_x[s:]
        step *= cur[s:]
        np.subtract(step, prev[s:], out=prev[s:])
        prev, cur = cur, prev
        done = slice(s, bounds[m + 2])
        lower[done], jn[done] = prev[done], cur[done]
    return lower, jn


def _bessel_pair(order, x, lower: bool = True):
    """(J_{order-1}(x), J_order(x)) for x >= 0.

    ``order`` is an int, or an int array shaped like x and ascending in
    x's flat order. Each element's value depends only on its own order and
    argument, never on the rest of the array. With ``lower=False`` the
    first item is left unset where it costs extra work.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    n = np.broadcast_to(order, x.shape).ravel()
    below, jn = np.empty_like(flat), np.empty_like(flat)
    series = flat < _SERIES_BELOW
    miller = (flat < n) & ~series
    upward = ~(series | miller)
    if series.any():
        ns, xs = n[series], flat[series]
        if lower:
            values, jn[series] = _series(np.stack([np.abs(ns - 1), ns]), xs)
            below[series] = np.where(ns == 0, -values, values)
        else:
            jn[series] = _series(ns, xs)
    if miller.any():
        ns = n[miller]
        rows = _miller(ns, flat[miller], _miller_top(ns))
        below[miller], jn[miller] = rows[0], rows[1]
    if upward.any():
        xs, ns = flat[upward], n[upward]
        if lower or ns[-1] > 0:
            below[upward], jn[upward] = _upward(ns, xs, *_j01(xs))
        else:
            jn[upward] = _j01(xs, rows=1)[0]
    return below.reshape(x.shape), jn.reshape(x.shape)


def bessel_j(order: int, x):
    """J_order(x) for an integer order in [0, MAX_ORDER] and real x."""
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [0, {MAX_ORDER}]")
    x = np.asarray(x, dtype=float)
    values = _bessel_pair(order, np.abs(x), lower=False)[1]
    if order % 2:
        values = np.where(x < 0.0, -values, values)  # J_n(-x) = (-1)^n J_n(x)
    return values if values.ndim else float(values)


def bessel_j_prime(order: int, x):
    """Derivative dJ_order/dx = (J_{order-1}(x) - J_{order+1}(x)) / 2, for
    x >= 0 (so J_0' = -J_1 exactly)."""
    x = np.asarray(x, dtype=float)
    values = (_bessel_pair(order, x)[0] - _bessel_pair(order + 1, x, lower=False)[1]) / 2.0
    return values if values.ndim else float(values)


class EigenvalueSearchError(RuntimeError):
    """The scan window could not bracket the requested number of roots."""


def _residual(order, k: np.ndarray, radius: float, a: float, b: float):
    """Eigencondition g(k) = A k J_n'(kR) + B J_n(kR) and dg/dk, for k > 0
    (``order`` as for ``_bessel_pair``).

    J_n' = J_{n-1} - (n/x) J_n, and the Bessel ODE
    x J_n'' + J_n' = -(x - n^2/x) J_n gives d/dk [k J_n'(kR)] without a
    further Bessel evaluation.
    """
    x = k * radius
    lower, jn = _bessel_pair(order, x)
    dj = lower - (order / x) * jn
    return a * (k * dj) + b * jn, b * radius * dj - a * (x - order * order / x) * jn


def _check_rows(order: np.ndarray, x: np.ndarray):
    """J_n(x), J_n'(x) = (J_{n-1} - J_{n+1}) / 2 and J_{n+1}(x) at 1-d
    x = kR > 0, by a path apart from the search's: Miller's recurrence
    from order x + 7 x^(1/3) + 20 or above (the series below x = 2).
    """
    rows = np.empty((3,) + x.shape)
    series = x < _SERIES_BELOW
    if series.any():
        ns = order[series]
        rows[:, series] = _series(np.stack([np.abs(ns - 1), ns, ns + 1]), x[series])
        rows[0, series] = np.where(ns == 0, -rows[0, series], rows[0, series])
    rest = ~series
    if rest.any():
        ns, xs = order[rest], x[rest]
        top = np.maximum(np.ceil(xs + 7.0 * np.cbrt(xs)).astype(int) + 20, ns + 42)
        rows[:, rest] = _miller(ns, xs, top + top % 2)
    lower, jn, upper = rows
    return jn, (lower - upper) / 2.0, upper


def _taylor_rows(terms: int) -> np.ndarray:
    """Taylor coefficients of J_0 and J_1 about the nodes 2, 2.5, ..., 40,
    shaped (terms, 2, nodes).

    J_0 and J_1 at the nodes come from Miller's recurrence; the Bessel ODE,
    differentiated k times, gives the rest of J_0's coefficients c:
    x (k+2)(k+1) c_{k+2} + (k+1)^2 c_{k+1} + x c_k + c_{k-1} = 0, and
    J_1 = -J_0' gives J_1's.
    """
    nodes = np.arange(_SERIES_BELOW, _HANKEL_FROM + _NODE_STEP, _NODE_STEP)
    j0, _, j1 = _check_rows(np.zeros(nodes.shape, dtype=int), nodes)
    c = [j0, -j1]
    for k in range(terms - 1):
        below = c[k - 1] if k else 0.0
        c.append(-((k + 1) ** 2 * c[k + 1] + nodes * c[k] + below) / (nodes * (k + 1) * (k + 2)))
    c = np.array(c)
    return np.stack([c[:-1], -np.arange(1, terms + 1)[:, None] * c[1:]], axis=1)


_TAYLOR = _taylor_rows(_TAYLOR_TERMS)


def _order_taylor(order: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Taylor coefficients of J_order about the nodes x0 >= 2, shaped
    (_TAYLOR_TERMS, len(x0)); ``order`` holds each node's order, ascending.

    J_n and J_n' = J_{n-1} - (n / x0) J_n at the nodes come from
    ``_bessel_pair``; the Bessel ODE x^2 y'' + x y' + (x^2 - n^2) y = 0 about
    x0 gives the rest:
    x0^2 (k+2)(k+1) c_{k+2} + x0 (k+1)(2k+1) c_{k+1}
        + (k^2 + x0^2 - n^2) c_k + 2 x0 c_{k-1} + c_{k-2} = 0.
    Rounding puts a little of the other solution, Y_n, into the c_k; its
    coefficients grow as x0^-k, so its share of term k is at most
    (|h| / x0)^k <= 8^-k for |h| <= 1/4. ``_taylor_rows`` keeps its own
    rule: built by this one, ``_TAYLOR`` would differ in its last bits.
    """
    lower, jn = _bessel_pair(order, x0)
    # Two rows past the last term stay zero: c[-1] and c[-2] are c_{-1}, c_{-2}.
    c = np.zeros((_TAYLOR_TERMS + 2,) + x0.shape)
    c[0], c[1] = jn, lower - (order / x0) * jn
    twice = 2.0 * x0
    shift = x0 * x0 - order * order
    scale = -1.0 / (x0 * x0)
    for k in range(_TAYLOR_TERMS - 2):
        acc = ((k + 1) * (2 * k + 1)) * x0 * c[k + 1]
        acc += (shift + k * k) * c[k]
        acc += twice * c[k - 1]
        acc += c[k - 2]
        acc *= scale
        c[k + 2] = acc / ((k + 2) * (k + 1))
    return c[:_TAYLOR_TERMS]


def _norms(order, k: np.ndarray, radius: float, bc: BoundaryCondition, rows) -> np.ndarray:
    """Weighted norms ``integral_0^R r J_order(k r)^2 dr`` for k > 0, from
    the ``_check_rows`` at kR: R^2 J_{n+1}(kR)^2 / 2 at Dirichlet
    eigenvalues, the general Lommel form otherwise."""
    jn, djn, upper = rows
    if bc.kind is BoundaryKind.DIRICHLET:
        return 0.5 * radius**2 * upper**2
    return 0.5 * (radius**2 - (order / k) ** 2) * jn**2 + 0.5 * radius**2 * djn**2


@dataclass(frozen=True)
class BesselBasis:
    """Eigenvalues and norms of one angular order (immutable once built)."""

    order: int
    radius: float
    bc: BoundaryCondition
    eigenvalues: np.ndarray
    norms: np.ndarray

    def __post_init__(self) -> None:
        if not 0 <= self.order <= MAX_ORDER:
            raise ValueError(f"order must be in [0, {MAX_ORDER}]")
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

        The table agrees with 30-digit values to 1e-15 absolute for k r up
        to 250 at orders up to 64 (8.4e-16 measured, worst midway between
        Taylor nodes); see ``radial_tables``.
        """
        return radial_tables((self,), r)[0]


def radial_tables(bases, r: np.ndarray) -> np.ndarray:
    """``radial_table(r)`` of every basis, stacked.

    The bases must share one count and come in ascending order; the result
    is shaped (len(bases), count, len(r)) and equals stacking each basis's
    own table, built order by order. (J_{n-1}, J_n) is evaluated once per
    node of order n, on the 1/2-spaced lattice from 2 up to that order's
    largest k r; each entry with k r >= 2 is then the Taylor series
    (``_order_taylor``, 13 terms) about its nearest node, |h| <= 1/4, and
    each one below 2 the power series. Against 30-digit values the table is
    within 1e-15 absolute (8.4e-16 measured at orders 0-48 and 64 on node
    midpoints, at k r = n and up to k r = 250).
    """
    orders = [basis.order for basis in bases]
    if orders != sorted(set(orders)) or len({basis.count for basis in bases}) != 1:
        raise ValueError("bases must share one count and have ascending orders")
    r = np.asarray(r, dtype=float).ravel()
    # Order n's nodes: 2, 2.5, ... up to the one nearest its largest k r, and
    # at least 2 itself, which entries below 2 gather before the power
    # series replaces them.
    tops = np.array([basis.eigenvalues.max(initial=0.0) for basis in bases]) * np.max(r, initial=0.0)
    sizes = np.maximum(np.rint((tops - _SERIES_BELOW) / _NODE_STEP).astype(int) + 1, 1)
    x0 = np.concatenate([_SERIES_BELOW + _NODE_STEP * np.arange(size) for size in sizes])
    coef = _order_taylor(np.repeat(orders, sizes), x0)
    first = np.cumsum(sizes) - sizes
    table = np.empty((len(bases), bases[0].count, r.size))
    for i, basis in enumerate(bases):
        x = np.multiply.outer(basis.eigenvalues, r)
        node = np.rint((x - _SERIES_BELOW) / _NODE_STEP)
        np.maximum(node, 0.0, out=node)
        h = x - (_SERIES_BELOW + _NODE_STEP * node)
        table[i] = _horner(coef, node.astype(np.intp) + first[i], h)
        small = x < _SERIES_BELOW
        if small.any():
            table[i][small] = _series(basis.order, x[small])
    return table


def find_eigenvalues(
    order: int,
    radius: float,
    bc: BoundaryCondition,
    count: int,
) -> BesselBasis:
    """First ``count`` admissible wavenumbers of one angular order.

    Scans k in (0, (count + order + 2) pi / R] with step pi / (4R),
    brackets sign changes of the eigencondition and refines all brackets
    at once by safeguarded Newton (``_refine``); every root is then checked
    on a separate evaluation to a residual below 1e-10. The k = 0 constant
    mode is prepended when the boundary condition admits it.
    """
    return find_bases((order,), radius, bc, count)[0]


def find_bases(
    orders,
    radius: float,
    bc: BoundaryCondition,
    count: int,
) -> tuple[BesselBasis, ...]:
    """``find_eigenvalues`` for each of the ascending ``orders``, in one pass.

    The scans of all orders are one evaluation, every bracket of every
    order is refined in the same lock-step iteration and one residual check
    covers all roots; each basis is the one ``find_eigenvalues`` returns.
    """
    orders = [int(n) for n in orders]
    if any(n < 0 for n in orders):
        raise ValueError("order must be nonnegative")
    if any(n > MAX_ORDER for n in orders):
        raise ValueError(f"order must be at most {MAX_ORDER}")
    if not orders or orders != sorted(set(orders)):
        raise ValueError("orders must be a nonempty, strictly ascending sequence")
    if not 0.0 < radius < math.inf:
        raise ValueError("radius must be positive and finite")
    if not 1 <= count <= MAX_EIGENVALUES:
        raise ValueError(f"count must be in [1, {MAX_EIGENVALUES}]")

    # (c A, c B) is one condition for every c > 0: scaled to max(|A|, |B|) = 1.
    a, b = bc.coefficients()
    scale = max(abs(a), abs(b))
    a, b = a / scale, b / scale
    step = np.pi / (4.0 * radius)
    # One lattice per order, each a prefix of the longest; the first probe
    # sits just above zero: small roots of a mixed condition stay bracketed
    # while the trivial k = 0 zero of the residual (order >= 1) is skipped.
    ceilings = [(count + n + 2) * np.pi / radius for n in orders]
    lattices = [np.arange(0.0, ceiling + step, step) for ceiling in ceilings]
    for lattice in lattices:
        lattice[0] = 1e-9 * step
    sizes = [lattice.size for lattice in lattices]
    k = np.concatenate(lattices)
    owner = np.repeat(orders, sizes)
    values = _residual(owner, k, radius, a, b)[0]

    here, there = values[:-1], values[1:]
    on_point = (here == 0.0) & (k[:-1] > 1e-6 * step)
    straddle = here * there < 0.0
    candidates = on_point | straddle
    ends = np.cumsum(sizes)
    candidates[ends[:-1] - 1] = False  # no cell spans two lattices
    found = np.flatnonzero(candidates)
    first = np.searchsorted(found, np.concatenate(([0], ends)))
    constants, cells = [], []
    for i, n in enumerate(orders):
        constant = int(bc.admits_constant_mode(n))
        chosen = found[first[i] : first[i + 1]][: count - constant]
        if constant + chosen.size < count:
            raise EigenvalueSearchError(
                f"found {constant + chosen.size} of {count} eigenvalues for order {n} "
                f"({bc.label()}) below the scan ceiling {ceilings[i]:g}; widen the scan"
            )
        constants.append(constant)
        cells.append(chosen)
    cells = np.concatenate(cells)
    owner = owner[cells]

    roots = k[cells]
    inside = straddle[cells]
    bracket = cells[inside]
    roots[inside] = _refine(
        owner[inside], radius, a, b, k[bracket], k[bracket + 1], here[bracket], there[bracket]
    )
    # The independent check, whose rows also give the norms, on the radius-free
    # form (A/R) x J_n'(x) + B J_n(x) of the condition over max(|A/R|, |B|).
    rows = _check_rows(owner, roots * radius)
    residual = np.abs(a * roots * rows[1] + b * rows[0]) / max(abs(a) / radius, abs(b))
    residual = float(np.max(residual, initial=0.0))
    if not residual < RESIDUAL_TOL:
        raise EigenvalueSearchError(
            f"eigencondition residual {residual:.3e} exceeds {RESIDUAL_TOL:g}"
        )
    norms = _norms(owner, roots, radius, bc, rows)
    bases = []
    ends = np.cumsum([count - constant for constant in constants]).tolist()
    for n, constant, lo, hi in zip(orders, constants, [0] + ends, ends):
        k_n, norm_n = roots[lo:hi], norms[lo:hi]
        if constant:
            k_n = np.concatenate(([0.0], k_n))
            norm_n = np.concatenate(([0.5 * radius**2], norm_n))
        bases.append(BesselBasis(order=n, radius=radius, bc=bc, eigenvalues=k_n, norms=norm_n))
    return tuple(bases)


def _refine(order, radius, a, b, lo, hi, g_lo, g_hi) -> np.ndarray:
    """Roots of the eigencondition in the brackets (lo, hi), in lock step;
    ``order`` holds each bracket's order, ascending.

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
            order = order[keep]
    raise EigenvalueSearchError(
        f"{todo.size} eigenvalue brackets of orders {sorted(set(order.tolist()))} did not "
        f"converge in {_MAX_NEWTON} Newton steps"
    )
