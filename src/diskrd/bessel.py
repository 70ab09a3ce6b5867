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

One evaluator gives every J_n(x) and J_n'(x) here (``_evaluator``):

    nodes               one downward sweep of Miller's recurrence gives
                        J_0 .. J_N at the nodes x0 = 2, 2.5, 3, ..., each
                        node started at order x0 + 7 x0^(1/3) + 20 and
                        normalised by J_0^2 + 2 sum_k J_k^2 = 1 (Gautschi 1967)
    Taylor rows         Bessel's ODE turns J_n(x0) and J_n'(x0) into 13
                        Taylor coefficients of J_n about each node
    entries             one gather and Horner sum about the nearest node
                        (|h| <= 1/4) per x >= 2, the power series below 2

A node's values depend on its own x0 alone, so every result is that of its
own evaluation, whatever else is evaluated with it. Against 30-digit
values it is within 1e-15 absolute for orders up to MAX_ORDER and x up to
MAX_ARGUMENT, the largest kR any eigenvalue search reaches.

The eigenvalue search builds one node table per call (``find_bases``): the
scan of all orders and the lock-step Newton refinement of every bracket
run on it. Every positive root of the three conditions lies at kR > n, so
only lattice points there count (below, J_n of a high order underflows to
an exact zero). A residual check on a separate evaluation, Miller's
recurrence started well above kR at each root, accepts every root and
gives its norm. Tables J_n(k r) (``radial_tables``) are one more node table
and one Horner sum per entry.

Every result depends on its inputs alone, whatever was evaluated before
(the last sweep's node values are reused, see ``_sweep``), and the
returned bases are immutable, so they can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "MAX_ARGUMENT",
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

# Largest argument of ``bessel_j``: the top of the widest eigenvalue scan.
MAX_ARGUMENT = (MAX_EIGENVALUES + MAX_ORDER + 2) * math.pi

# Residual tolerance every accepted eigenvalue must meet.
RESIDUAL_TOL = 1e-10

# Newton steps allowed per bracket; bisection alone needs about 55.
_MAX_NEWTON = 100

# The evaluator's series region, series length, Taylor node spacing and the
# terms of a Taylor series about a node (|h| <= 1/4, so h^13 / 13! < 3e-18).
_SERIES_BELOW = 2.0
_SERIES_TERMS = 12
_NODE_STEP = 0.5
_TAYLOR_TERMS = 13

_INV_FACTORIAL = np.array([1 / math.factorial(q) for q in range(MAX_ORDER + 2)])


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
    n = np.asarray(order, dtype=float)
    acc = np.ones(np.broadcast_shapes(n.shape, np.shape(u)))
    for q in range(_SERIES_TERMS, 0, -1):
        acc *= u
        acc /= q * (q + n)
        acc += 1.0
    return half**order * _INV_FACTORIAL[order] * acc


def _groups(values: np.ndarray) -> dict[int, np.ndarray]:
    """Indices of ``values`` grouped by value."""
    perm = np.argsort(values, kind="stable")
    ordered = values[perm]
    starts = np.flatnonzero(np.diff(ordered, prepend=ordered[0] - 1)).tolist()
    ends = starts[1:] + [perm.size]
    return {int(ordered[a]): perm[a:b] for a, b in zip(starts, ends)}


def _miller(low: np.ndarray, x: np.ndarray, top: np.ndarray, rows: int = 3) -> np.ndarray:
    """Rows J_low(x), ..., J_{low+rows-1}(x) by Miller's downward recurrence,
    shaped (rows, len(x)), for 1-d x >= 2 with per-element integers ``low``
    and ``top``; a negative order reads 0.

    Each element starts from J_top = 1, J_{top+1} = 0, recurs
    J_{m-1} = (2m J_m) / x - J_{m+1} down to J_0 and is normalised by
    J_0^2 + 2 sum_k J_k^2 = 1, a sum without cancellation. Elements with a
    lower top hold zeros until it is reached, so each result is that of its
    element's run alone, and orders from top up read 0. A rounded
    coefficient 2m / x would err in step with m (at x = 1202.5 its errors
    add up to 1.4e-15 in J_0); dividing the product keeps the node values
    within 4e-16 of 30-digit ones up to MAX_ARGUMENT. From the callers'
    starts (x + 7 x^(1/3) + 21 at most, or order + 43 below x) the sum of
    squares stays below 1e109, largest at x = 2, so nothing is rescaled.
    """
    last = int(top.max())
    seeds = [None] * (last + 1)
    for m, idx in _groups(top).items():
        seeds[m] = idx
    # The step from J_m to J_{m-1} gives row m - 1 - low.
    captures = [[] for _ in range(last + 1)]
    for n, idx in _groups(low).items():
        for row in range(rows):
            if 0 < n + row + 1 <= last:
                captures[n + row + 1].append((row, idx))
    out = np.zeros((rows,) + x.shape)
    later, cur, squares, step = (np.zeros_like(x) for _ in range(4))
    for m in range(last, 0, -1):
        if seeds[m] is not None:
            cur[seeds[m]] = 1.0
        np.multiply(cur, cur, out=step)
        squares += step
        np.multiply(cur, 2.0 * m, out=step)
        step /= x
        step -= later
        later, cur, step = cur, step, later
        for row, idx in captures[m]:
            out[row, idx] = cur[idx]
    return out / np.sqrt(cur * cur + 2.0 * squares)


def _horner(coef: np.ndarray, index: np.ndarray, h: np.ndarray, derivative: bool):
    """sum_k coef[k][index] h^k by Horner's rule, each coefficient gathered
    at its element's ``index``; with ``derivative``, the pair (sum, d/dh sum)."""
    acc = coef[-1].take(index)
    slope = np.zeros_like(acc) if derivative else None
    for c in coef[-2::-1]:
        if derivative:
            slope *= h
            slope += acc
        acc *= h
        acc += c.take(index)
    return (acc, slope) if derivative else acc


def _order_taylor(order: np.ndarray, x0: np.ndarray, jn: np.ndarray, lower: np.ndarray):
    """Taylor coefficients of J_order about the nodes x0 >= 2, shaped
    (_TAYLOR_TERMS,) + jn.shape, from J_n and J_{n-1} at the nodes (``order``
    broadcast against x0, like ``jn`` and ``lower``).

    J_n' = J_{n-1} - (n / x0) J_n; the Bessel ODE
    x^2 y'' + x y' + (x^2 - n^2) y = 0 about x0 gives the rest:
    x0^2 (k+2)(k+1) c_{k+2} + x0 (k+1)(2k+1) c_{k+1}
        + (k^2 + x0^2 - n^2) c_k + 2 x0 c_{k-1} + c_{k-2} = 0.
    Rounding puts a little of the other solution, Y_n, into the c_k; its
    coefficients grow as x0^-k, so its share of term k is at most
    (|h| / x0)^k <= 8^-k for |h| <= 1/4.
    """
    # Two rows past the last term stay zero: c[-1] and c[-2] are c_{-1}, c_{-2}.
    c = np.zeros((_TAYLOR_TERMS + 2,) + jn.shape)
    c[0], c[1] = jn, lower - (order / x0) * jn
    square = x0 * x0
    shift = square - order * order  # x0^2 - n^2 + k^2, exact in every step
    term = np.empty(jn.shape)
    for k in range(_TAYLOR_TERMS - 2):
        acc = c[k + 2]
        np.multiply(c[k + 1], ((k + 1) * (2 * k + 1)) * x0, out=acc)
        np.multiply(c[k], shift, out=term)
        acc += term
        np.multiply(c[k - 1], 2.0 * x0, out=term)
        acc += term
        acc += c[k - 2]
        acc /= -((k + 2) * (k + 1)) * square
        shift += 2 * k + 1
    return c[:_TAYLOR_TERMS]


# The nodes of the last sweep and J_0 .. J_N there. A node's values depend
# on its own x alone, so a later node table on a prefix of these nodes and
# orders is a slice of them: a run's set-up sweeps once, for its eigenvalue
# scan, and its tables and initial profile reuse that sweep. It holds
# (N + 1) x nodes floats, 160 kB at n_max = 32, j_max = 64.
_sweep = (np.zeros(0), np.zeros((0, 0)))


def _node_values(size: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes 2, 2.5, ... (``size`` of them) and J_0 .. J_{rows-1} there,
    shaped (rows, size): one Miller sweep, each node started at order
    x0 + 7 x0^(1/3) + 20, or a slice of the last sweep where it covers them."""
    global _sweep
    x0, values = _sweep
    if x0.size < size or values.shape[0] < rows:
        x0 = _SERIES_BELOW + _NODE_STEP * np.arange(size)
        top = np.ceil(x0 + 7.0 * np.cbrt(x0)).astype(int) + 20
        values = _miller(np.zeros(size, dtype=int), x0, top, rows)
        _sweep = (x0, values)
    return x0[:size], values[:rows, :size]


def _evaluator(orders, x_max: float):
    """``evaluate(order, x, derivative=True)``: J_order(x), and J_order'(x)
    with ``derivative``, for the ascending ``orders`` and 0 <= x <= x_max.

    The node table is built here, once: one Miller sweep gives J_0 .. J_N at
    the nodes 2, 2.5, ... up to the one nearest x_max (``_node_values``),
    and ``_order_taylor`` the coefficients of each order in ``orders``
    there. ``evaluate`` takes ``order`` as an int or an int array shaped
    like x (each in ``orders``); every entry with x >= 2 is one gather and
    Horner sum about its nearest node, and every entry below 2 the power
    series, its derivative (J_{n-1} - J_{n+1}) / 2. The table lives as long
    as ``evaluate``.
    """
    orders = np.asarray(orders)
    size = max(int(np.rint((x_max - _SERIES_BELOW) / _NODE_STEP)), 0) + 1
    x0, values = _node_values(size, max(int(orders[-1]), 1) + 1)
    lower = values[np.abs(orders - 1)]
    lower[orders == 0] *= -1.0  # J_{-1} = -J_1
    coef = _order_taylor(orders[:, None], x0, values[orders], lower)
    coef = coef.reshape(_TAYLOR_TERMS, -1)

    def evaluate(order, x: np.ndarray, derivative: bool = True):
        node = np.rint((x - _SERIES_BELOW) / _NODE_STEP)
        np.maximum(node, 0.0, out=node)
        h = x - (_SERIES_BELOW + _NODE_STEP * node)
        index = np.searchsorted(orders, order) * size + node.astype(np.intp)
        out = _horner(coef, index, h, derivative)
        small = x < _SERIES_BELOW
        if small.any():
            n, xs = (order[small] if np.ndim(order) else order), x[small]
            if derivative:
                rows = np.array([np.abs(n - 1), n, n + 1]).reshape(3, -1)
                below, jn, above = _series(rows, xs)
                out[0][small] = jn
                out[1][small] = (np.where(n == 0, -below, below) - above) / 2.0
            else:
                out[small] = _series(n, xs)
        return out

    return evaluate


def _bessel(order, x, derivative: bool = True):
    """J_order(x), and J_order'(x) with ``derivative``, for 0 <= x, by a node
    table up to max(x).

    ``order`` is an int, or an int array shaped like x. Each element's value
    depends only on its own order and argument, never on the rest of the
    array.
    """
    x = np.asarray(x, dtype=float)
    if np.ndim(order):
        order = np.ravel(order)
        # np.unique would import numpy.ma, 15 ms of a run's set-up.
        orders = np.flatnonzero(np.bincount(order)) if order.size else np.zeros(1, dtype=int)
    else:
        orders = np.array([order])
    out = _evaluator(orders, x.max(initial=0.0))(order, x.ravel(), derivative)
    return tuple(v.reshape(x.shape) for v in out) if derivative else out.reshape(x.shape)


def _checked(order: int, x) -> np.ndarray:
    """x as a float array, once order and x are in the evaluator's range."""
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [0, {MAX_ORDER}]")
    x = np.asarray(x, dtype=float)
    if not np.all(np.abs(x) <= MAX_ARGUMENT):
        raise ValueError(f"|x| must be at most MAX_ARGUMENT = {MAX_ARGUMENT:.6g}")
    return x


def bessel_j(order: int, x):
    """J_order(x) for an integer order in [0, MAX_ORDER] and real x with
    |x| <= MAX_ARGUMENT (``ValueError`` otherwise)."""
    x = _checked(order, x)
    values = _bessel(order, np.abs(x), derivative=False)
    if order % 2:
        values = np.where(x < 0.0, -values, values)  # J_n(-x) = (-1)^n J_n(x)
    return values if values.ndim else float(values)


def bessel_j_prime(order: int, x):
    """dJ_order/dx for an integer order in [0, MAX_ORDER] and real x with
    |x| <= MAX_ARGUMENT (``ValueError`` otherwise); below |x| = 2 it is
    (J_{order-1} - J_{order+1}) / 2, so J_0'(0) = 0 and J_1'(0) = 1/2."""
    x = _checked(order, x)
    values = _bessel(order, np.abs(x))[1]
    if order % 2 == 0:
        values = np.where(x < 0.0, -values, values)  # J_n' has the parity of n + 1
    return values if values.ndim else float(values)


class EigenvalueSearchError(RuntimeError):
    """The scan window could not bracket the requested number of roots."""


def _residual(evaluate, order, k: np.ndarray, radius: float, a: float, b: float):
    """Eigencondition g(k) = A k J_n'(kR) + B J_n(kR) and dg/dk, for k > 0,
    by ``evaluate`` (see ``_evaluator``).

    The Bessel ODE x J_n'' + J_n' = -(x - n^2/x) J_n gives d/dk [k J_n'(kR)]
    without a further Bessel evaluation.
    """
    x = k * radius
    jn, dj = evaluate(order, x)
    return a * (k * dj) + b * jn, b * radius * dj - a * (x - order * order / x) * jn


def _check_rows(order: np.ndarray, x: np.ndarray):
    """J_n(x), J_n'(x) = (J_{n-1} - J_{n+1}) / 2 and J_{n+1}(x) at 1-d
    x = kR > n, by a path apart from the search's: Miller's recurrence
    from order x + 7 x^(1/3) + 20 or above (the series below x = 2).
    """
    rows = np.empty((3,) + x.shape)
    series = x < _SERIES_BELOW
    if series.any():
        ns = order[series]
        rows[:, series] = _series(np.stack([np.abs(ns - 1), ns, ns + 1]), x[series])
    rest = ~series
    if rest.any():
        ns, xs = order[rest], x[rest]
        top = np.maximum(np.ceil(xs + 7.0 * np.cbrt(xs)).astype(int) + 20, ns + 42)
        rows[:, rest] = _miller(ns - 1, xs, top + top % 2)
    lower, jn, upper = rows
    lower[order == 0] = -upper[order == 0]  # J_{-1} = -J_1
    return jn, (lower - upper) / 2.0, upper


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
        to MAX_ARGUMENT; see ``radial_tables``.
        """
        return radial_tables((self,), r)[0]


def radial_tables(bases, r: np.ndarray) -> np.ndarray:
    """``radial_table(r)`` of every basis, stacked.

    The bases must share one count and come in ascending order; the result
    is shaped (len(bases), count, len(r)) and equals stacking each basis's
    own table. One node table (``_evaluator``) up to the largest k r serves
    every order, and each entry is one Horner sum about its nearest node
    (the power series below k r = 2). Against 30-digit values the table is
    within 1e-15 absolute. A negative or non-finite radius raises
    ``ValueError``.
    """
    orders = [basis.order for basis in bases]
    if orders != sorted(set(orders)) or len({basis.count for basis in bases}) != 1:
        raise ValueError("bases must share one count and have ascending orders")
    r = np.asarray(r, dtype=float).ravel()
    if not np.all(np.isfinite(r) & (r >= 0.0)):
        raise ValueError("radii must be finite and nonnegative")
    top = max(basis.eigenvalues.max(initial=0.0) for basis in bases) * np.max(r, initial=0.0)
    evaluate = _evaluator(orders, top)
    table = np.empty((len(bases), bases[0].count, r.size))
    for i, basis in enumerate(bases):
        table[i] = evaluate(basis.order, np.multiply.outer(basis.eigenvalues, r), derivative=False)
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
    # sits just above zero, so small roots of a mixed condition stay
    # bracketed. Every positive root lies at kR > n: only lattice zeros and
    # cells that start there count, which skips the k = 0 zero of the
    # residual (order >= 1) and the exact zeros where J_n underflows.
    ceilings = [(count + n + 2) * np.pi / radius for n in orders]
    lattices = [np.arange(0.0, ceiling + step, step) for ceiling in ceilings]
    for lattice in lattices:
        lattice[0] = 1e-9 * step
    sizes = [lattice.size for lattice in lattices]
    k = np.concatenate(lattices)
    owner = np.repeat(orders, sizes)
    evaluate = _evaluator(orders, k.max() * radius)
    values = _residual(evaluate, owner, k, radius, a, b)[0]

    here, there = values[:-1], values[1:]
    above = k[:-1] * radius > owner[:-1]
    on_point = (here == 0.0) & above
    straddle = (here * there < 0.0) & above
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
        evaluate, owner[inside], radius, a, b, k[bracket], k[bracket + 1], here[bracket],
        there[bracket],
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


def _refine(evaluate, order, radius, a, b, lo, hi, g_lo, g_hi) -> np.ndarray:
    """Roots of the eigencondition in the brackets (lo, hi), in lock step;
    ``order`` holds each bracket's order and ``evaluate`` is the scan's.

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
            g, slope = _residual(evaluate, order, k, radius, a, b)
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
