"""Polar grids and the disk eigenfunction transform.

A field w(r, theta) lives in two representations: samples on a tensor
grid (Gauss-Legendre radii crossed with uniform angles), and coefficients
of the truncated expansion

    w = sum_n sum_j J_n(k_nj r) (a_nj cos n*theta + b_nj sin n*theta).

The transform holds the coefficients of a state as one packed array
``c[n, s, j]`` shaped (n_max + 1, 2, j_max): slot s = 0 is the cosine
coefficient a_nj, s = 1 the sine coefficient b_nj. The order-0 sine slot
is not a mode (sin 0 = 0) and holds exactly 0. A stack of K states is
shaped (n_max + 1, 2, K, j_max), so state m is ``c[:, :, m]``; with that
layout each transform is one matmul with the interleaved cos/sin table and
one pass over the J_n table with 2K right-hand sides per order, and needs
no transposed copy. ``SpectralField`` holds one such array; its ``a`` and
``b`` are read-only views. Per-mode factors (decay rates, damping, the L2
weights) are packed the same way, both slots of order n holding the order-n
value: they multiply the order-0 sine slot's 0 and leave it 0.

Coefficients are stored pre-normalised: analysis applies the
1/(pi N_nj) weights (1/(2 pi N_0j) for order zero, N_nj the weighted
norm of the mode), so synthesis is a plain sum. Angular integration uses
the trapezoid rule on the periodic grid, radial integration the stored
Gauss-Legendre rule (Golub-Welsch nodes, see ``DiskGrid.gauss_legendre``);
both are spectrally accurate for smooth fields.

A field even in theta, w(r, -theta) = w(r, theta), has every sine
coefficient 0, and its samples at theta_t and theta_{n_theta - t} are
equal: the first ``DiskGrid.half_angles`` = n_theta // 2 + 1 angles, the
half circle 0 .. pi, hold all of it. Samples (or a synthesis ``out``)
shaped on the half circle take the half-circle path of the same transform:
the cosine rows of the cos/sin table on those columns, which synthesis sums
the cosine slots with, and a copy scaled by the trapezoid fold weights (1 at
theta = 0 and, for even n_theta, at pi; 2 elsewhere), which analysis folds
the samples with, leaving every sine slot 0. So an even field costs half
the angular work and half the radial right-hand sides of the whole circle.
With two angles the half circle is the whole circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bessel import BesselBasis, BoundaryCondition, find_bases, radial_tables

__all__ = [
    "DiskGrid",
    "DiskField",
    "SpectralField",
    "DiskTransform",
    "build_bases",
    "default_grid",
    "default_sizes",
    "least_grid",
    "analyze_radial",
    "synthesize_radial",
    "synthesize_on",
    "field_csv_prefixes",
    "write_field_csv",
]


@dataclass(frozen=True)
class DiskGrid:
    """Tensor quadrature grid on a disk: interior radii, periodic angles.

    ``r_weights`` integrate dr (the r of the area element is left in the
    integrand), and the radial nodes never touch the r = 0 coordinate
    singularity. ``area_weights`` are the products
    ``theta_spacing * r_weights * r_nodes``, the weight of each grid radius
    in a disk integral.
    """

    radius: float
    r_nodes: np.ndarray
    r_weights: np.ndarray
    theta_nodes: np.ndarray
    area_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        r = np.asarray(self.r_nodes, dtype=float)
        w = np.asarray(self.r_weights, dtype=float)
        th = np.asarray(self.theta_nodes, dtype=float)
        # Each check is negated so that NaN, which fails every comparison, fails it.
        if not 0.0 < self.radius < math.inf:
            raise ValueError("radius must be positive and finite")
        if r.ndim != 1 or w.shape != r.shape or th.ndim != 1:
            raise ValueError("grid arrays must be matching 1-d arrays")
        if not np.all((0.0 < r) & (r < self.radius)):
            raise ValueError("radial nodes must lie strictly inside (0, R)")
        moment = float(np.dot(w, r))  # NaN or inf if a weight is not finite
        if not abs(moment - 0.5 * self.radius**2) <= 1e-12 * 0.5 * self.radius**2:
            raise ValueError("radial weights must be finite and integrate r over (0, R) exactly")
        expected = np.arange(th.size) * (2.0 * np.pi / th.size)
        if not np.allclose(th, expected, rtol=0.0, atol=1e-12):
            raise ValueError("theta nodes must be uniform starting at 0")
        area = (2.0 * np.pi / th.size) * w * r
        for arr in (r, w, th, area):
            arr.setflags(write=False)
        object.__setattr__(self, "r_nodes", r)
        object.__setattr__(self, "r_weights", w)
        object.__setattr__(self, "theta_nodes", th)
        object.__setattr__(self, "area_weights", area)

    @classmethod
    def gauss_legendre(cls, radius: float, n_r: int, n_theta: int) -> "DiskGrid":
        """Gauss-Legendre radii (see ``_gauss_legendre``) mapped to (0, R),
        uniform angles."""
        x, w = _gauss_legendre(n_r)
        r = 0.5 * radius * (x + 1.0)
        wr = 0.5 * radius * w
        theta = np.arange(n_theta) * (2.0 * np.pi / n_theta)
        return cls(radius=radius, r_nodes=r, r_weights=wr, theta_nodes=theta)

    @classmethod
    def cell_centered(cls, radius: float, n_r: int, n_theta: int) -> "DiskGrid":
        """Midpoint radii r_i = (i + 1/2) dr, matching a conservative FD mesh."""
        dr = radius / n_r
        r = (np.arange(n_r) + 0.5) * dr
        wr = np.full(n_r, dr)
        theta = np.arange(n_theta) * (2.0 * np.pi / n_theta)
        return cls(radius=radius, r_nodes=r, r_weights=wr, theta_nodes=theta)

    @property
    def n_r(self) -> int:
        return int(self.r_nodes.size)

    @property
    def n_theta(self) -> int:
        return int(self.theta_nodes.size)

    @property
    def theta_spacing(self) -> float:
        return 2.0 * np.pi / self.n_theta

    @property
    def half_angles(self) -> int:
        """The angles 0 .. pi, the first n_theta // 2 + 1: a field even in
        theta is known from its samples there, as theta_t and theta_{n_theta
        - t} mirror each other."""
        return self.n_theta // 2 + 1

    def fold_weights(self) -> np.ndarray:
        """Trapezoid weights of the half circle for an even field: 1 at
        theta = 0 and, for even n_theta, at theta = pi, which are their own
        mirrors; 2 elsewhere, for the angle and its mirror."""
        fold = np.full(self.half_angles, 2.0)
        fold[0] = 1.0
        if self.n_theta % 2 == 0:
            fold[-1] = 1.0
        return fold

    def unfold(self, values: np.ndarray) -> np.ndarray:
        """Samples (..., n_r, n_theta) of an even field from those on its
        half circle (..., n_r, half_angles): column t is column
        min(t, n_theta - t), so mirrored columns are equal bit for bit."""
        t = np.arange(self.n_theta)
        return values[..., np.minimum(t, self.n_theta - t)]

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.r_nodes, self.theta_nodes, indexing="ij")

    def integrate(self, values: np.ndarray) -> float:
        """Disk integral ``integral integral f r dr dtheta`` of grid samples."""
        return float(np.dot(self.area_weights, values).sum())


@dataclass(frozen=True)
class DiskField:
    """Real-valued samples of a field on a DiskGrid."""

    grid: DiskGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_r, self.grid.n_theta):
            raise ValueError("values must be shaped (n_r, n_theta)")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)

    @classmethod
    def zeros(cls, grid: DiskGrid) -> "DiskField":
        return cls(grid, np.zeros((grid.n_r, grid.n_theta)))

    @classmethod
    def from_polar(cls, grid: DiskGrid, fn) -> "DiskField":
        r, th = grid.mesh()
        return cls(grid, np.asarray(fn(r, th), dtype=float) + np.zeros_like(r))


@dataclass(frozen=True)
class SpectralField:
    """Truncated expansion coefficients over bases of orders 0..n_max.

    ``coeffs`` is a read-only copy of the packed array (n_max + 1, 2, j_max);
    its order-0 sine slot is 0, since sin 0 is identically zero.
    """

    bases: tuple[BesselBasis, ...]
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        bases = tuple(self.bases)
        coeffs = np.array(self.coeffs, dtype=float)
        if not bases or [basis.order for basis in bases] != list(range(len(bases))):
            raise ValueError("bases must cover orders 0..n_max in order")
        j_max = bases[0].count
        if any(basis.count != j_max for basis in bases):
            raise ValueError("all bases must hold the same number of modes")
        if coeffs.shape != (len(bases), 2, j_max):
            raise ValueError("coefficient array does not match the bases")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        if np.any(coeffs[0, 1]):
            raise ValueError("the order-0 sine slot must be 0")
        coeffs.setflags(write=False)
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zeros(cls, bases: tuple[BesselBasis, ...]) -> "SpectralField":
        return cls(bases, np.zeros((len(bases), 2, bases[0].count)))

    @property
    def a(self) -> np.ndarray:
        """Cosine coefficients, one row per order 0..n_max."""
        return self.coeffs[:, 0]

    @property
    def b(self) -> np.ndarray:
        """Sine coefficients, one row per order 1..n_max."""
        return self.coeffs[1:, 1]

    @property
    def n_max(self) -> int:
        return len(self.bases) - 1

    @property
    def j_max(self) -> int:
        return self.bases[0].count

    @property
    def radius(self) -> float:
        return self.bases[0].radius


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of degree n on [-1, 1].

    The nodes are the eigenvalues of the Jacobi matrix, whose off-diagonal
    is k / sqrt(4 k^2 - 1) (Golub and Welsch 1969). One pass of the
    three-term recurrence gives P_n and P_{n-1} there, hence P_n'; one
    Newton step polishes the nodes, and w = 2 / ((1 - x^2) P_n'^2). Nodes
    and weights are symmetrised, and the weights scaled to sum to 2.
    """
    k = np.arange(1.0, n)
    x = np.linalg.eigvalsh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), 1), UPLO="U")
    p_prev, p = np.ones(n), x
    for m in range(1, n):
        p_prev, p = p, ((2 * m + 1) * x * p - m * p_prev) / (m + 1)
    dp = n * (p_prev - x * p) / (1.0 - x * x)
    x = x - p / dp
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    return x, w * (2.0 / w.sum())


def least_grid(n_max: int, j_max: int) -> tuple[int, int]:
    """Smallest (n_r, n_theta) a transform of this truncation accepts."""
    return j_max + 2, 2 * n_max + 2


def build_bases(
    n_max: int, j_max: int, radius: float, bc: BoundaryCondition
) -> tuple[BesselBasis, ...]:
    """Eigenvalue bases for all angular orders 0..n_max, found together."""
    return find_bases(range(n_max + 1), radius, bc, j_max)


def default_sizes(bases: tuple[BesselBasis, ...], n_r: int = 0, n_theta: int = 0) -> tuple[int, int]:
    """The (n_r, n_theta) of a Gauss-Legendre grid for ``bases``; a positive
    ``n_r`` or ``n_theta`` sets that size, 0 picks one so quadrature
    resolves products of the stored modes: 64 angles or more, but 2 for
    bases of order 0 only.

    The trapezoid rule on N angles is exact below degree N (Trefethen and
    Weideman 2014), and an order-0 state and its births are constant in
    theta. Only a theta-varying initial state is projected by the 2-point
    mean, which is its exact angular mean where the varying part is odd
    under theta -> theta + pi, as in the CLI's ``trig_patch``.
    """
    if n_r < 0 or n_theta < 0:
        key, size = ("n_r", n_r) if n_r < 0 else ("n_theta", n_theta)
        raise ValueError(f"{key}={size}: grid sizes must be 0 (auto) or positive")
    radius = bases[0].radius
    k_max = max(float(basis.eigenvalues[-1]) for basis in bases)
    # Gauss-Legendre needs roughly 0.7 nodes per unit of k R to integrate
    # mode products to machine accuracy; keep a little slack on top.
    least_r, least_theta = least_grid(len(bases) - 1, bases[0].count)
    n_r = n_r or max(least_r, int(np.ceil(0.75 * k_max * radius)) + 8)
    n_theta = n_theta or (least_theta if len(bases) == 1 else max(least_theta, 64))
    return n_r, n_theta


def default_grid(bases: tuple[BesselBasis, ...], n_r: int = 0, n_theta: int = 0) -> DiskGrid:
    """Gauss-Legendre grid for ``bases`` of the sizes ``default_sizes``
    gives."""
    return DiskGrid.gauss_legendre(bases[0].radius, *default_sizes(bases, n_r, n_theta))


class DiskTransform:
    """Precomputed tables mapping grid samples to packed coefficients and back."""

    def __init__(self, grid: DiskGrid, bases: tuple[BesselBasis, ...]):
        bases = tuple(bases)
        radius = bases[0].radius
        if any(abs(basis.radius - radius) > 1e-14 * radius for basis in bases):
            raise ValueError("bases must share one radius")
        if abs(grid.radius - radius) > 1e-14 * radius:
            raise ValueError("grid radius does not match the basis radius")
        n_max = len(bases) - 1
        j_max = bases[0].count
        least_r, least_theta = least_grid(n_max, j_max)
        if grid.n_theta < least_theta:
            raise ValueError(
                f"n_theta={grid.n_theta} cannot resolve order {n_max}; "
                f"need at least {least_theta}"
            )
        if grid.n_r < least_r:
            raise ValueError(f"n_r={grid.n_r} is below {least_r}, too few for {j_max} radial modes")

        self.grid = grid
        self.bases = bases
        # J[n, j, i] = J_n(k_nj r_i), shared by analysis and synthesis; the
        # analysis multiplies by its transposed view, one column per mode.
        self._j_table = radial_tables(bases, grid.r_nodes)
        self._j_columns = self._j_table.transpose(0, 2, 1)
        self._weights = grid.r_weights * grid.r_nodes
        scale = np.full(n_max + 1, grid.theta_spacing / np.pi)
        scale[0] *= 0.5
        norms = np.stack([basis.norms for basis in bases])
        # Shaped to scale a packed stack (n_max + 1, 2, K, j_max).
        self._coef_scale = (scale[:, None] / norms)[:, None, None, :]
        # The disk integral of a mode's square, per packed slot.
        squares = np.pi * norms
        squares[0] *= 2.0
        self._l2_weights = np.repeat(squares[:, None], 2, axis=1)
        # Below this coefficient magnitude no weighted square sum overflows.
        self._l2_safe = 0.5 * math.sqrt(np.finfo(float).max) / math.sqrt(self._l2_weights.sum())
        # Row 2n + s is cos(n theta) (s = 0) or sin(n theta) (s = 1); the
        # order-0 sine row is exactly zero, so analysis gives that slot 0.
        angles = np.outer(np.arange(n_max + 1), grid.theta_nodes)
        self._trig = np.stack([np.cos(angles), np.sin(angles)], axis=1).reshape(2 * (n_max + 1), -1)
        # The half circle of an even field: its cosine rows, and a copy
        # scaled by the fold weights for the analysis.
        self._cos_half = np.ascontiguousarray(self._trig[0::2, : grid.half_angles])
        self._cos_fold = self._cos_half * grid.fold_weights()
        # Per order and slot, sum_t |cos n theta_t| or |sin n theta_t|; and
        # per order and slot (of 1 or 2), a cut analysis' floor per unit B_0.
        self._angular_sums = np.abs(self._trig).sum(axis=1).reshape(n_max + 1, 2, 1)
        floors = (grid.n_r + grid.n_theta) * np.finfo(float).eps / grid.n_theta * self._angular_sums
        self._floors = {slots: floors[:, :slots].ravel().tolist() for slots in (1, 2)}
        self._weight_sizes = np.abs(self._weights)
        self._scratch = np.empty(0)
        self._shape = (grid.n_r, grid.n_theta)

    @property
    def n_max(self) -> int:
        return len(self.bases) - 1

    @property
    def j_max(self) -> int:
        return self.bases[0].count

    def _check_bases(self, field: SpectralField) -> None:
        if field.bases is self.bases:
            return
        if len(field.bases) != len(self.bases):
            raise ValueError("coefficient bases do not match the transform")
        for mine, theirs in zip(self.bases, field.bases):
            if mine is theirs:
                continue
            if (
                mine.order != theirs.order
                or abs(mine.radius - theirs.radius) > 1e-14
                or not np.array_equal(mine.eigenvalues, theirs.eigenvalues)
            ):
                raise ValueError("coefficient bases do not match the transform")

    def _work(self, size: int) -> np.ndarray:
        """Flat scratch of ``size`` floats for the (2 orders) x K n_r
        intermediate of K states.

        One buffer, grown on demand, serves every call, so a stacked call
        allocates no value-sized array besides its result.
        """
        if self._scratch.size < size:
            self._scratch = np.empty(size)
        return self._scratch[:size]

    def analysis_gain(self) -> np.ndarray:
        """Packed bound (n_max + 1, 2, j_max) on |analysis coefficient| per unit
        of max |values|: |J_n| <= 1 leaves the scale, the radial weights' sum
        sum w r (= R^2 / 2) and the slot's sum of |cos n theta| or |sin n theta|."""
        return self._coef_scale[:, :, 0] * np.abs(self._weights).sum() * self._angular_sums

    def analyze_values(
        self, values: np.ndarray, live: tuple[int | None, int] | None = None
    ) -> np.ndarray:
        """Packed coefficients (n_max + 1, 2, j_max) of grid samples shaped
        (n_r, n_theta), or the packed stack (n_max + 1, 2, K, j_max) of K
        of them shaped (K, n_r, n_theta).

        Samples on the half circle, shaped (..., n_r, half_angles), are taken
        as those of a field even in theta (see ``DiskGrid.unfold``): the
        fold-weighted cosine rows give its cosine slots, and its sine slots
        are 0. With two angles the half circle is the whole one.

        ``live = (orders, width)`` (default: every order and index) keeps the
        leading box only: orders 0 .. orders - 1 and radial indices
        0 .. width - 1, and the result is shaped (orders, 2, [K,] width). The
        angular stage multiplies by the first orders rows per slot of the
        angular table, the radial stage by that box of the J_n table.

        ``orders`` None keeps the orders up to the last one that this bound
        does not place below the rounding floor (n_r + n_theta) eps gain_nj
        max|values| (see ``analysis_gain``); those past it are exact 0 and
        skip the radial stage. As |J_n| <= 1, B_n = sum_i |w_i M_ni| over the
        angular moments M bounds |c_nj| / scale_nj, and B_0 <= n_theta
        (sum_i |w_i|) max|values|, so a slot of a state lies below the floor
        where B_n < (n_r + n_theta) eps (sum_t |trig|) B_0 / n_theta; with an
        inf or NaN sample none does.
        """
        n1, j_max, n_r = self._j_table.shape
        orders, width = live or (n1, j_max)
        trim = orders is None
        orders = n1 if trim else orders
        whole = values.shape[-1] == self._shape[1]
        trig, slots = (self._trig, 2) if whole else (self._cos_fold, 1)
        k = values.size // (n_r * values.shape[-1])
        moments = self._work(slots * orders * k * n_r).reshape(slots * orders, k * n_r)
        np.matmul(trig[: slots * orders], values.reshape(k * n_r, -1).T, out=moments)
        moments = moments.reshape(orders, slots * k, n_r)
        kept = orders
        if trim:  # up to the last order with a bound, per slot and state, not below its floor
            bounds = np.dot(np.abs(moments), self._weight_sizes).ravel().tolist()
            floors, kept = self._floors[slots], len(bounds)
            while kept and bounds[kept - 1] < floors[(kept - 1) // k] * bounds[(kept - 1) % k]:
                kept -= 1
            kept = -(-kept // (slots * k))
        moments = moments[:kept]
        moments *= self._weights
        coeffs = (np.empty if whole and not trim else np.zeros)((orders, 2, k, width))
        radial = coeffs.reshape(orders, 2 * k, width)[:kept, : slots * k]
        np.matmul(moments, self._j_columns[:kept, :, :width], out=radial)
        coeffs[:kept, :slots] *= self._coef_scale[:kept, :slots, :, :width]
        return coeffs if values.ndim == 3 else coeffs.reshape(orders, 2, width)

    def synthesize_values(
        self, coeffs: np.ndarray, out: np.ndarray | None = None, live: tuple[int, int] | None = None
    ) -> np.ndarray:
        """Grid samples (n_r, n_theta) of packed coefficients, or the stack
        (K, n_r, n_theta) of a packed stack (orders, 2, K, width), where the
        coefficients may cover a leading box of orders and radial indices
        only. ``out``, if given, is a C-contiguous array of the result's shape.

        An ``out`` on the half circle, shaped (..., n_r, half_angles), takes
        the samples there of the cosine slots alone: those of an even field,
        whose sine slots are 0 (see ``DiskGrid.unfold``).

        ``live = (orders, width)`` (default: the whole of ``coeffs``) sums
        the leading box only, as if the rest were 0; a caller that knows its
        coefficients outside the box are negligible skips their share of
        both stages.
        """
        n_r = self._j_table.shape[2]
        orders, width = live or (coeffs.shape[0], coeffs.shape[-1])
        if out is None:
            out = np.empty(coeffs.shape[2:-1] + self._shape)
        elif not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        whole = out.shape[-1] == self._shape[1]
        trig, slots = (self._trig, 2) if whole else (self._cos_half, 1)
        coeffs, table = coeffs[:orders, :slots, ..., :width], self._j_table[:orders, :width]
        trig = trig[: slots * orders]
        k = coeffs.shape[2] if coeffs.ndim == 4 else 1
        radial = self._work(slots * orders * k * n_r).reshape(orders, slots * k, n_r)
        np.matmul(coeffs.reshape(orders, slots * k, width), table, out=radial)
        np.matmul(radial.reshape(slots * orders, k * n_r).T, trig, out=out.reshape(k * n_r, -1))
        return out

    def weighted_l2(self, coeffs: np.ndarray, bound: float | None = None) -> np.ndarray:
        """Disk L2 norms of a state-first stack (K, orders, 2, width) of
        packed coefficients over a leading box, the rest taken as 0, one per
        state, from the stored mode norms.

        ``bound``, if given, is an upper bound on |coeffs| the caller knows.
        While it (or else the stack's largest magnitude) keeps the weighted
        squares below overflow a state's norm is one weighted dot; past that
        (~1e150 on a unit disk) each state's finite coefficients are first
        scaled by their largest magnitude. Either way no overflow is raised
        or warned.
        """
        weights = self._l2_weights
        if coeffs.shape[1:] != weights.shape:
            orders, _, width = coeffs.shape[1:]
            weights = weights[:orders, :, :width]
        weights = weights.reshape(-1)
        rows = coeffs.reshape(len(coeffs), -1)
        if bound is None or not bound <= self._l2_safe:
            bound = np.maximum.reduce(np.abs(rows), axis=None)
        if not bound <= self._l2_safe:
            return np.array([self._row_l2(row, weights) for row in rows])
        # A row times a column is one dot each, as np.dot of the two rows.
        squares = np.matmul((rows * weights)[:, None, :], rows[:, :, None])
        return np.sqrt(squares.reshape(-1))

    def _row_l2(self, row: np.ndarray, weights: np.ndarray) -> float:
        """``weighted_l2`` of one raveled state, its bound not known."""
        peak = float(np.abs(row).max())
        if not peak <= self._l2_safe:
            if not math.isfinite(peak):
                return peak
            return peak * self._row_l2(row / peak, weights)
        return math.sqrt(np.dot(weights * row, row))

    def analyze(self, field: DiskField) -> SpectralField:
        if field.grid is not self.grid and not (
            np.array_equal(field.grid.r_nodes, self.grid.r_nodes)
            and field.grid.n_theta == self.grid.n_theta
        ):
            raise ValueError("field grid does not match the transform grid")
        return SpectralField(self.bases, self.analyze_values(field.values))

    def synthesize(self, field: SpectralField) -> DiskField:
        self._check_bases(field)
        return DiskField(self.grid, self.synthesize_values(field.coeffs))


def synthesize_on(spectral: SpectralField, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Evaluate the expansion on an arbitrary (r, theta) tensor product."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    values = np.zeros((r.size, theta.size))
    for n, basis in enumerate(spectral.bases):
        table = basis.radial_table(r).T
        values += np.outer(table @ spectral.coeffs[n, 0], np.cos(n * theta))
        values += np.outer(table @ spectral.coeffs[n, 1], np.sin(n * theta))
    return values


def analyze_radial(profile: np.ndarray, basis: BesselBasis, grid: DiskGrid) -> np.ndarray:
    """Coefficients of a radial profile in an order-zero basis.

    c_j = (1 / N_j) * integral_0^R r J_0(k_j r) profile(r) dr, with N_j
    the stored mode norm (the Dirichlet case reduces this to the familiar
    2 / (R^2 J_1(k_j R)^2) factor).
    """
    if basis.order != 0:
        raise ValueError("radial analysis requires an order-zero basis")
    profile = np.asarray(profile, dtype=float)
    if profile.shape != grid.r_nodes.shape:
        raise ValueError("profile must be sampled on the grid radii")
    table = basis.radial_table(grid.r_nodes)
    return (table * (grid.r_weights * grid.r_nodes)) @ profile / basis.norms


def synthesize_radial(coeffs: np.ndarray, basis: BesselBasis, r: np.ndarray) -> np.ndarray:
    """Radial profile sum_j c_j J_0(k_j r)."""
    if basis.order != 0:
        raise ValueError("radial synthesis requires an order-zero basis")
    return basis.radial_table(r).T @ np.asarray(coeffs, dtype=float)


def field_csv_prefixes(grid: DiskGrid) -> tuple[list[str], list[str]]:
    """The ``r,`` texts of the grid radii and the ``theta,`` texts of the
    grid angles that prefix the values of a field dump on ``grid``."""
    return (
        [f"{r:.17g}," for r in grid.r_nodes.tolist()],
        [f"{th:.17g}," for th in grid.theta_nodes.tolist()],
    )


def write_field_csv(
    field: DiskField, path, prefixes: tuple[list[str], list[str]] | None = None
) -> None:
    """Dump a field as CSV rows (r, theta, value), row-major over the grid.

    ``prefixes`` is ``field_csv_prefixes(field.grid)``, which a caller
    writing many fields on one grid formats once and passes to every call.
    """
    r_texts, theta_texts = prefixes or field_csv_prefixes(field.grid)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("r,theta,value\n")
        for r, values in zip(r_texts, field.values):
            fh.write("".join([f"{r}{th}{v:.17g}\n" for th, v in zip(theta_texts, values.tolist())]))
