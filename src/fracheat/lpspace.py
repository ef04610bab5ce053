"""Discrete L^p([0, pi]) functions: norms, duality pairing, the duality map,
and transforms to the orthonormal sine basis.

Functions live on a uniform midpoint grid, so Dirichlet boundary values never
enter a quadrature sum and the first n_theta - 1 sine modes are exactly
orthogonal under the discrete pairing.  Dual-space elements reuse the same
representation tagged with the conjugate exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "GridFunction",
    "conjugate_exponent",
    "theta_grid",
    "lp_norm",
    "pairing",
    "duality_map",
    "basis_matrix",
    "to_basis",
    "from_basis",
    "basis_values",
    "basis_coefficients",
    "lp_norms",
]


def conjugate_exponent(p: float) -> float:
    return p / (p - 1.0)


@dataclass(frozen=True)
class GridFunction:
    """Real function sampled at the n_theta midpoints of [0, pi], tagged with
    the exponent of the L^p space it belongs to."""

    values: np.ndarray
    p: float = 2.0

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 8:
            raise ValueError(f"values must be a 1-d array of size >= 8, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        # state-space functions use p >= 2; dual elements carry the conjugate
        # exponent p' in (1, 2], so anything above 1 is representable
        if not self.p > 1.0:
            raise ValueError(f"exponent p={self.p} out of range (need p > 1)")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n_theta(self) -> int:
        return self.values.size

    def _compatible(self, other: "GridFunction") -> None:
        if self.n_theta != other.n_theta:
            raise ValueError(f"grid mismatch: {self.n_theta} vs {other.n_theta}")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._compatible(other)
        if abs(self.p - other.p) > 1e-12:
            raise ValueError(f"exponent mismatch: {self.p} vs {other.p}")
        return GridFunction(self.values + other.values, self.p)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._compatible(other)
        if abs(self.p - other.p) > 1e-12:
            raise ValueError(f"exponent mismatch: {self.p} vs {other.p}")
        return GridFunction(self.values - other.values, self.p)

    def __mul__(self, scalar: float) -> "GridFunction":
        return GridFunction(self.values * float(scalar), self.p)

    __rmul__ = __mul__


@lru_cache(maxsize=64)
def theta_grid(n_theta: int) -> np.ndarray:
    """Midpoints (j + 1/2) * pi / n_theta, j = 0..n_theta-1."""
    if n_theta < 8:
        raise ValueError(f"n_theta must be >= 8, got {n_theta}")
    h = math.pi / n_theta
    grid = (np.arange(n_theta) + 0.5) * h
    grid.flags.writeable = False
    return grid


def lp_norm(f: GridFunction) -> float:
    """Midpoint-rule L^p norm on [0, pi]."""
    h = math.pi / f.n_theta
    return float((np.sum(np.abs(f.values) ** f.p) * h) ** (1.0 / f.p))


def pairing(v: GridFunction, vstar: GridFunction) -> float:
    """Duality product int_0^pi v(theta) vstar(theta) dtheta by midpoint rule.

    The two arguments must live on the same grid and carry conjugate
    exponents (1/p + 1/p' = 1); the Hilbert case p = 2 is self-conjugate.
    """
    v._compatible(vstar)
    if abs(1.0 / v.p + 1.0 / vstar.p - 1.0) > 1e-9:
        raise ValueError(f"non-conjugate exponents in pairing: {v.p} and {vstar.p}")
    h = math.pi / v.n_theta
    return float(v.values @ vstar.values * h)


def duality_map(f: GridFunction) -> GridFunction:
    """Normalized duality map J: L^p -> L^p'.

    J(f) = ||f||_p^(2-p) |f|^(p-1) sign(f) pointwise, so that
    <f, J f> = ||f||_p^2 = ||J f||_p'^2; zero maps to zero and p = 2 is the
    identity.
    """
    q = conjugate_exponent(f.p)
    if f.p == 2.0:
        return GridFunction(f.values, q)
    norm = lp_norm(f)
    if norm == 0.0:
        return GridFunction(np.zeros(f.n_theta), q)
    scaled = norm ** (2.0 - f.p) * np.abs(f.values) ** (f.p - 1.0) * np.sign(f.values)
    return GridFunction(scaled, q)


@lru_cache(maxsize=64)
def basis_matrix(n_modes: int, n_theta: int) -> np.ndarray:
    """Columns w_n(theta_j) = sqrt(2/pi) sin(n theta_j), n = 1..n_modes."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if n_modes > n_theta // 2:
        raise ValueError(f"resolution guard: n_modes={n_modes} exceeds n_theta/2={n_theta // 2}")
    theta = theta_grid(n_theta)
    n = np.arange(1, n_modes + 1)
    w = math.sqrt(2.0 / math.pi) * np.sin(np.outer(theta, n))
    w.flags.writeable = False
    return w


def to_basis(f: GridFunction, n_modes: int) -> np.ndarray:
    """Coefficients c_n = pairing(f, w_n) against the orthonormal sine basis."""
    w = basis_matrix(n_modes, f.n_theta)
    h = math.pi / f.n_theta
    return w.T @ f.values * h


def from_basis(coeffs: np.ndarray, n_theta: int, p: float = 2.0) -> GridFunction:
    """Reconstruction sum_n c_n w_n as a grid function with exponent p."""
    coeffs = np.asarray(coeffs, dtype=float)
    w = basis_matrix(coeffs.size, n_theta)
    return GridFunction(w @ coeffs, p)


def basis_values(coeff_rows: np.ndarray, n_theta: int) -> np.ndarray:
    """Grid values (rows @ W^T) of each row of basis coefficients; like a
    `GridFunction`, refuses non-finite values."""
    rows = np.atleast_2d(np.asarray(coeff_rows, dtype=float))
    wt = np.ascontiguousarray(basis_matrix(rows.shape[1], n_theta).T)
    values = np.einsum("ik,kj->ij", rows, wt)
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    return values


def basis_coefficients(values: np.ndarray, n_modes: int) -> np.ndarray:
    """Coefficients h * values @ W of each row of grid values: the rows of
    `to_basis`, and the inverse of `basis_values` on the first n_modes modes.

    Both grid transforms are numpy contractions rather than BLAS products: at
    trajectory size, (513, 8) against (8, 256), OpenBLAS hands the product to
    its thread pool, whose worker then spins for ~0.1 s of CPU after every
    call, while numpy's own loop takes a fraction of a millisecond.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n_theta = values.shape[1]
    wt = np.ascontiguousarray(basis_matrix(n_modes, n_theta).T)
    return np.einsum("ij,kj->ik", values, wt) * (math.pi / n_theta)


def lp_norms(coeff_rows: np.ndarray, n_theta: int, p: float) -> np.ndarray:
    """Midpoint-rule L^p norm of the reconstruction of each coefficient row."""
    values = basis_values(coeff_rows, n_theta)
    np.abs(values, out=values)
    np.power(values, p, out=values)
    return (np.sum(values, axis=1) * (math.pi / n_theta)) ** (1.0 / p)
