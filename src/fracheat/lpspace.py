"""Discrete L^p([0, pi]) functions: norms, the duality map, and transforms to
the orthonormal sine basis.

Functions live on a uniform midpoint grid, so Dirichlet boundary values never
enter a quadrature sum and the first n_theta - 1 sine modes are exactly
orthogonal under the discrete inner product.  A function is the plain array
of its n_theta grid values (a batch of them: one row each), a state or a dual
element alike; the exponent of its space is passed to each function.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .fracops import row_blocks

__all__ = [
    "theta_grid",
    "lp_norm",
    "duality_map",
    "basis_matrix",
    "basis_values",
    "basis_coefficients",
    "lp_norms",
]


def theta_grid(n_theta: int) -> np.ndarray:
    """Midpoints (j + 1/2) * pi / n_theta, j = 0..n_theta-1."""
    if n_theta < 8:
        raise ValueError(f"n_theta must be >= 8, got {n_theta}")
    return (np.arange(n_theta) + 0.5) * (math.pi / n_theta)


def lp_norm(values: np.ndarray, p: float) -> float:
    """Midpoint-rule L^p norm on [0, pi] of one grid function's values."""
    values = np.asarray(values, dtype=float)
    return float((np.sum(np.abs(values) ** p) * (math.pi / values.size)) ** (1.0 / p))


def duality_map(values: np.ndarray, p: float) -> np.ndarray:
    """Normalized duality map J: L^p -> L^p' on one grid function's values.

    J(f) = ||f||_p^(2-p) |f|^(p-1) sign(f) pointwise, so that
    <f, J f> = ||f||_p^2 = ||J f||_p'^2; zero maps to zero.  At p = 2 the
    formula is the identity bit for bit (a -0.0 comes out +0.0).  The norm is
    a Python float, so ||f||^(2-p) is a scalar power.
    """
    values = np.asarray(values, dtype=float)
    norm = lp_norm(values, p)
    if norm == 0.0:
        return np.zeros(values.size)
    return norm ** (2.0 - p) * np.abs(values) ** (p - 1.0) * np.sign(values)


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


def basis_values(coeff_rows: np.ndarray, n_theta: int) -> np.ndarray:
    """Grid values (rows @ W^T) of each row of basis coefficients; refuses
    non-finite values."""
    rows = np.atleast_2d(np.asarray(coeff_rows, dtype=float))
    wt = np.ascontiguousarray(basis_matrix(rows.shape[1], n_theta).T)
    values = np.einsum("ik,kj->ij", rows, wt)
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    return values


def basis_coefficients(values: np.ndarray, n_modes: int) -> np.ndarray:
    """Coefficients h * values @ W of each row of grid values: its inner
    products with the basis, and the inverse of `basis_values` on the first
    n_modes modes.

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
    """Midpoint-rule L^p norm of the reconstruction of each coefficient row;
    rows go in row blocks (`fracops.row_blocks`: 120 KiB of grid values,
    under glibc's mmap threshold), one block array at a time: |values|^p in
    place, released before the next."""
    rows = np.atleast_2d(np.asarray(coeff_rows, dtype=float))
    sums = np.empty(rows.shape[0])
    for block in row_blocks(rows.shape[0], n_theta):
        values = basis_values(rows[block], n_theta)
        sums[block] = np.sum(np.power(np.abs(values, out=values), p, out=values), axis=1)
        del values  # before the next block's values
    return (sums * (math.pi / n_theta)) ** (1.0 / p)
