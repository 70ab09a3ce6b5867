"""Polar grids and the disk eigenfunction transform.

A field w(r, theta) lives in two representations: samples on a tensor
grid (Gauss-Legendre radii crossed with uniform angles), and coefficients
of the truncated expansion

    w = sum_n sum_j J_n(k_nj r) (a_nj cos n*theta + b_nj sin n*theta).

Coefficients are stored pre-normalised: analysis applies the
1/(pi N_nj) weights (1/(2 pi N_0j) for order zero, N_nj the weighted
norm of the mode), so synthesis is a plain sum. Angular integration uses
the trapezoid rule on the periodic grid, radial integration the stored
Gauss-Legendre rule; both are spectrally accurate for smooth fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "analyze_radial",
    "synthesize_radial",
    "synthesize_on",
    "write_field_csv",
    "write_coefficients_csv",
]


@dataclass(frozen=True)
class DiskGrid:
    """Tensor quadrature grid on a disk: interior radii, periodic angles.

    ``r_weights`` integrate dr (the r of the area element is left in the
    integrand), and the radial nodes never touch the r = 0 coordinate
    singularity.
    """

    radius: float
    r_nodes: np.ndarray
    r_weights: np.ndarray
    theta_nodes: np.ndarray

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
        for arr in (r, w, th):
            arr.setflags(write=False)
        object.__setattr__(self, "r_nodes", r)
        object.__setattr__(self, "r_weights", w)
        object.__setattr__(self, "theta_nodes", th)

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
        return float(self.theta_spacing * np.dot(self.r_weights * self.r_nodes, values.sum(axis=1)))


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

    ``a`` holds cosine coefficients, one row per order; ``b`` holds sine
    coefficients for orders 1..n_max only (sin 0 is identically zero).
    """

    bases: tuple[BesselBasis, ...]
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        bases = tuple(self.bases)
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if not bases or [basis.order for basis in bases] != list(range(len(bases))):
            raise ValueError("bases must cover orders 0..n_max in order")
        j_max = bases[0].count
        if any(basis.count != j_max for basis in bases):
            raise ValueError("all bases must hold the same number of modes")
        if a.shape != (len(bases), j_max) or b.shape != (len(bases) - 1, j_max):
            raise ValueError("coefficient arrays do not match the bases")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def zeros(cls, bases: tuple[BesselBasis, ...]) -> "SpectralField":
        j_max = bases[0].count
        return cls(bases, np.zeros((len(bases), j_max)), np.zeros((len(bases) - 1, j_max)))

    @property
    def n_max(self) -> int:
        return len(self.bases) - 1

    @property
    def j_max(self) -> int:
        return self.bases[0].count

    @property
    def radius(self) -> float:
        return self.bases[0].radius

    def is_radial(self, tol: float = 1e-12) -> bool:
        angular = 0.0
        if self.n_max:
            angular = max(float(np.max(np.abs(self.a[1:]))), float(np.max(np.abs(self.b))))
        return angular <= tol


def build_bases(
    n_max: int, j_max: int, radius: float, bc: BoundaryCondition
) -> tuple[BesselBasis, ...]:
    """Eigenvalue bases for all angular orders 0..n_max, found together."""
    return find_bases(range(n_max + 1), radius, bc, j_max)


def default_grid(bases: tuple[BesselBasis, ...], n_theta: int | None = None) -> DiskGrid:
    """Grid sized so quadrature resolves products of the stored modes."""
    radius = bases[0].radius
    j_max = bases[0].count
    n_max = len(bases) - 1
    k_max = max(float(basis.eigenvalues[-1]) for basis in bases)
    # Gauss-Legendre needs roughly 0.7 nodes per unit of k R to integrate
    # mode products to machine accuracy; keep a little slack on top.
    n_r = max(j_max + 2, int(np.ceil(0.75 * k_max * radius)) + 8)
    if n_theta is None:
        n_theta = max(2 * n_max + 2, 64)
    return DiskGrid.gauss_legendre(radius, n_r, n_theta)


class DiskTransform:
    """Precomputed tables mapping grid samples to coefficients and back."""

    def __init__(self, grid: DiskGrid, bases: tuple[BesselBasis, ...]):
        bases = tuple(bases)
        radius = bases[0].radius
        if any(abs(basis.radius - radius) > 1e-14 * radius for basis in bases):
            raise ValueError("bases must share one radius")
        if abs(grid.radius - radius) > 1e-14 * radius:
            raise ValueError("grid radius does not match the basis radius")
        n_max = len(bases) - 1
        j_max = bases[0].count
        if grid.n_theta < 2 * n_max + 2:
            raise ValueError(
                f"n_theta={grid.n_theta} cannot resolve order {n_max}; "
                f"need at least {2 * n_max + 2}"
            )
        if grid.n_r < j_max + 2:
            raise ValueError(f"n_r={grid.n_r} too small for {j_max} radial modes")

        self.grid = grid
        self.bases = bases
        # J[n, j, i] = J_n(k_nj r_i), shared by analysis and synthesis.
        self._j_table = radial_tables(bases, grid.r_nodes)
        self._weights = grid.r_weights * grid.r_nodes
        scale = np.full(n_max + 1, grid.theta_spacing / np.pi)
        scale[0] *= 0.5
        self._norms = np.stack([basis.norms for basis in bases])
        self._coef_scale = scale[:, None] / self._norms
        # Rows cos(n theta) for n = 0..n_max, then sin(n theta) for n = 1..n_max.
        angles = np.outer(np.arange(n_max + 1), grid.theta_nodes)
        self._trig = np.vstack([np.cos(angles), np.sin(angles[1:])])
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
        """Flat scratch for the (2 n_max + 1) x n_r intermediate of k states.

        One buffer, grown on demand, serves every call, so a stacked call
        allocates no value-sized array besides its result.
        """
        size = k * self._trig.shape[0] * self._shape[0]
        if self._scratch.size < size:
            self._scratch = np.empty(size)
        return self._scratch[:size]

    def analyze_values(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients of grid samples shaped (n_r, n_theta), or of a stack of
        K of them shaped (K, n_r, n_theta); a stack costs one pass over the
        J_n table, with K right-hand sides per order.
        """
        n_r, n_theta = self._shape
        stack = values.reshape(-1, n_r, n_theta)
        k, n1 = len(stack), len(self.bases)
        moments = self._work(k).reshape(k, -1, n_r)  # (K, 2 n_max + 1, n_r)
        np.matmul(self._trig, stack.transpose(0, 2, 1), out=moments)
        moments *= self._weights
        moments = moments.transpose(1, 2, 0)  # (2 n_max + 1, n_r, K)
        a = np.matmul(self._j_table, moments[:n1]) * self._coef_scale[..., None]
        b = np.matmul(self._j_table[1:], moments[n1:]) * self._coef_scale[1:, :, None]
        if values.ndim == 3:
            return a.transpose(2, 0, 1), b.transpose(2, 0, 1)
        return a[..., 0], b[..., 0]

    def synthesize_values(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Grid samples of the expansion (a, b), or of a stack of K expansions
        shaped (K, n_max + 1, j_max) and (K, n_max, j_max), which gives
        (K, n_r, n_theta) for one pass over the J_n table. ``out``, if given,
        is a C-contiguous array of the result's shape.
        """
        n1, j_max, n_r = self._j_table.shape
        k = a.size // (n1 * j_max)
        radial = self._work(k).reshape(-1, k, n_r)  # (2 n_max + 1, K, n_r)
        np.matmul(a.reshape(k, n1, j_max).transpose(1, 0, 2), self._j_table, out=radial[:n1])
        np.matmul(b.reshape(k, n1 - 1, j_max).transpose(1, 0, 2), self._j_table[1:], out=radial[n1:])
        if out is None:
            out = np.empty(a.shape[:-2] + self._shape)
        elif not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        np.matmul(radial.transpose(1, 2, 0), self._trig, out=out.reshape((k,) + self._shape))
        return out

    def analyze_profile(self, profile: np.ndarray) -> np.ndarray:
        """Order-zero coefficients of a radial profile sampled on the grid
        radii, or of a stack of profiles shaped (K, n_r)."""
        return (self._weights * profile) @ self._j_table[0].T / self.bases[0].norms

    def synthesize_profile(self, coeffs: np.ndarray) -> np.ndarray:
        """Radial profile sum_j c_j J_0(k_0j r) on the grid radii (one per row
        of a (K, j_max) stack)."""
        return coeffs @ self._j_table[0]

    def weighted_l2(self, a: np.ndarray, b: np.ndarray) -> float:
        """Disk L2 norm of the expansion (a, b), from the stored mode norms.

        Finite coefficients past ~1e154 overflow the squares; the sum is then
        taken again with the coefficients scaled by their largest magnitude.
        """
        with np.errstate(over="ignore"):
            total = 2.0 * np.pi * np.dot(self._norms[0], a[0] ** 2)
            if self.n_max:
                total += np.pi * np.sum(self._norms[1:] * (a[1:] ** 2 + b**2))
        if math.isinf(total) and np.isfinite(a).all() and np.isfinite(b).all():
            scale = max(np.abs(a).max(), np.abs(b).max(initial=0.0))
            return float(scale * self.weighted_l2(a / scale, b / scale))
        return float(np.sqrt(total))

    def analyze(self, field: DiskField) -> SpectralField:
        if field.grid is not self.grid and not (
            np.array_equal(field.grid.r_nodes, self.grid.r_nodes)
            and field.grid.n_theta == self.grid.n_theta
        ):
            raise ValueError("field grid does not match the transform grid")
        a, b = self.analyze_values(field.values)
        return SpectralField(self.bases, a, b)

    def synthesize(self, field: SpectralField) -> DiskField:
        self._check_bases(field)
        return DiskField(self.grid, self.synthesize_values(field.a, field.b))


def synthesize_on(spectral: SpectralField, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Evaluate the expansion on an arbitrary (r, theta) tensor product."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    values = np.zeros((r.size, theta.size))
    for n, basis in enumerate(spectral.bases):
        table = basis.radial_table(r)
        radial_cos = table.T @ spectral.a[n]
        values += np.outer(radial_cos, np.cos(n * theta))
        if n >= 1:
            radial_sin = table.T @ spectral.b[n - 1]
            values += np.outer(radial_sin, np.sin(n * theta))
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


def write_field_csv(field: DiskField, path) -> None:
    """Dump a field as CSV rows (r, theta, value), row-major over the grid."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("r,theta,value\n")
        for i, r in enumerate(field.grid.r_nodes):
            for j, th in enumerate(field.grid.theta_nodes):
                fh.write(f"{r:.17g},{th:.17g},{field.values[i, j]:.17g}\n")


def write_coefficients_csv(spectral: SpectralField, path) -> None:
    """Dump coefficients as CSV rows (n, j, a, b); b is 0 for order 0."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("n,j,a,b\n")
        for n in range(spectral.n_max + 1):
            for j in range(spectral.j_max):
                b = spectral.b[n - 1, j] if n >= 1 else 0.0
                fh.write(f"{n},{j + 1},{spectral.a[n, j]:.17g},{b:.17g}\n")
