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
Gauss-Legendre rule; both are spectrally accurate for smooth fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .bessel import BesselBasis, BoundaryCondition, find_bases, radial_tables

__all__ = [
    "DiskGrid",
    "DiskField",
    "SpectralField",
    "DiskTransform",
    "build_bases",
    "default_grid",
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
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")
        if r.ndim != 1 or w.shape != r.shape or th.ndim != 1:
            raise ValueError("grid arrays must be matching 1-d arrays")
        if np.any(r <= 0.0) or np.any(r >= self.radius):
            raise ValueError("radial nodes must lie strictly inside (0, R)")
        moment = float(np.dot(w, r))
        if abs(moment - 0.5 * self.radius**2) > 1e-12 * 0.5 * self.radius**2:
            raise ValueError("radial rule must integrate r over (0, R) exactly")
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
        """Gauss-Legendre radii mapped to (0, R), uniform angles."""
        x, w = leggauss(n_r)
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


def least_grid(n_max: int, j_max: int) -> tuple[int, int]:
    """Smallest (n_r, n_theta) a transform of this truncation accepts."""
    return j_max + 2, 2 * n_max + 2


def build_bases(
    n_max: int, j_max: int, radius: float, bc: BoundaryCondition
) -> tuple[BesselBasis, ...]:
    """Eigenvalue bases for all angular orders 0..n_max, found together."""
    return find_bases(range(n_max + 1), radius, bc, j_max)


def default_grid(bases: tuple[BesselBasis, ...], n_r: int = 0, n_theta: int = 0) -> DiskGrid:
    """Gauss-Legendre grid for ``bases``; a positive ``n_r`` or ``n_theta``
    sets that size, 0 picks one so quadrature resolves products of the
    stored modes: 64 angles or more, but 2 for bases of order 0 only.

    The trapezoid rule on N angles is exact below degree N (Trefethen and
    Weideman 2014), and an order-0 state and its births are constant in
    theta. Only a theta-varying initial state is projected by the 2-point
    mean, which is its exact angular mean where the varying part is odd
    under theta -> theta + pi, as in the CLI's ``trig_patch``.
    """
    if n_r < 0 or n_theta < 0:
        raise ValueError("grid sizes must be 0 (auto) or positive")
    radius = bases[0].radius
    k_max = max(float(basis.eigenvalues[-1]) for basis in bases)
    # Gauss-Legendre needs roughly 0.7 nodes per unit of k R to integrate
    # mode products to machine accuracy; keep a little slack on top.
    least_r, least_theta = least_grid(len(bases) - 1, bases[0].count)
    n_r = n_r or max(least_r, int(np.ceil(0.75 * k_max * radius)) + 8)
    n_theta = n_theta or (least_theta if len(bases) == 1 else max(least_theta, 64))
    return DiskGrid.gauss_legendre(radius, n_r, n_theta)


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
            raise ValueError(f"n_r={grid.n_r} too small for {j_max} radial modes")

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
        # The disk integral of a mode's square, per packed slot, flattened.
        squares = np.pi * norms
        squares[0] *= 2.0
        self._l2_weights = np.repeat(squares, 2, axis=0).ravel()
        # Below this coefficient magnitude no weighted square sum overflows.
        self._l2_safe = 0.5 * math.sqrt(np.finfo(float).max) / math.sqrt(self._l2_weights.sum())
        # Row 2n + s is cos(n theta) (s = 0) or sin(n theta) (s = 1); the
        # order-0 sine row is exactly zero, so analysis gives that slot 0.
        angles = np.outer(np.arange(n_max + 1), grid.theta_nodes)
        self._trig = np.stack([np.cos(angles), np.sin(angles)], axis=1).reshape(2 * (n_max + 1), -1)
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

    def _work(self, k: int) -> np.ndarray:
        """Flat scratch for the 2 (n_max + 1) x K n_r intermediate of k states.

        One buffer, grown on demand, serves every call, so a stacked call
        allocates no value-sized array besides its result.
        """
        size = k * self._trig.shape[0] * self._shape[0]
        if self._scratch.size < size:
            self._scratch = np.empty(size)
        return self._scratch[:size]

    def analyze_values(self, values: np.ndarray, width: int | None = None) -> np.ndarray:
        """Packed coefficients (n_max + 1, 2, j_max) of grid samples shaped
        (n_r, n_theta), or the packed stack (n_max + 1, 2, K, j_max) of K
        of them shaped (K, n_r, n_theta).

        ``width`` (default j_max) keeps the leading ``width`` radial indices
        only: the result's last axis is ``width`` long, and the radial stage
        multiplies by that many columns of the J_n table.
        """
        n1, j_max, n_r = self._j_table.shape
        k = values.size // (n_r * self._shape[1])
        moments = self._work(k).reshape(2 * n1, k * n_r)
        np.matmul(self._trig, values.reshape(k * n_r, -1).T, out=moments)
        moments = moments.reshape(n1, 2 * k, n_r)
        moments *= self._weights
        table, scale = self._j_columns, self._coef_scale
        if width is None:
            width = j_max
        else:
            table, scale = table[..., :width], scale[..., :width]
        coeffs = np.matmul(moments, table).reshape(n1, 2, k, width)
        coeffs *= scale
        return coeffs if values.ndim == 3 else coeffs.reshape(n1, 2, width)

    def synthesize_values(
        self, coeffs: np.ndarray, out: np.ndarray | None = None, width: int | None = None
    ) -> np.ndarray:
        """Grid samples (n_r, n_theta) of packed coefficients, or the stack
        (K, n_r, n_theta) of a packed stack (n_max + 1, 2, K, j_max).
        ``out``, if given, is a C-contiguous array of the result's shape.

        ``width`` (default j_max) sums the leading ``width`` radial indices
        only, as if the rest were 0; a caller that knows its trailing
        coefficients are 0 skips their share of the radial stage.
        """
        n1, j_max, n_r = self._j_table.shape
        k = coeffs.size // (2 * n1 * j_max)
        radial = self._work(k).reshape(n1, 2 * k, n_r)
        packed, table = coeffs.reshape(n1, 2 * k, j_max), self._j_table
        if width is not None:
            packed, table = packed[..., :width], table[:, :width]
        np.matmul(packed, table, out=radial)
        if out is None:
            out = np.empty(coeffs.shape[2:-1] + self._shape)
        elif not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        np.matmul(radial.reshape(2 * n1, k * n_r).T, self._trig, out=out.reshape(k * n_r, -1))
        return out

    def weighted_l2(self, coeffs: np.ndarray, bound: float | None = None) -> np.ndarray:
        """Disk L2 norms of a state-first stack (K, n_max + 1, 2, j_max) of
        packed coefficients, one per state, from the stored mode norms.

        ``bound``, if given, is an upper bound on |coeffs| the caller knows.
        While it (or else a state's largest magnitude) keeps the weighted
        squares below overflow a state's norm is one weighted dot; finite
        coefficients past that (~1e150 on a unit disk) are first scaled by
        their largest magnitude. Either way no overflow is raised or warned.
        """
        rows = coeffs.reshape(len(coeffs), -1)
        if bound is None or not bound <= self._l2_safe:
            return np.array([self._row_l2(row) for row in rows])
        # A row times a column is one dot each, as np.dot of the two rows.
        squares = np.matmul((rows * self._l2_weights)[:, None, :], rows[:, :, None])
        return np.sqrt(squares.reshape(-1))

    def _row_l2(self, row: np.ndarray) -> float:
        """``weighted_l2`` of one raveled state, its bound not known."""
        peak = float(np.abs(row).max())
        if not peak <= self._l2_safe:
            if not math.isfinite(peak):
                return peak
            return peak * self._row_l2(row / peak)
        return math.sqrt(np.dot(self._l2_weights * row, row))

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
