"""Discrete L^p([0, pi]) functions: norms, the duality map, and transforms to
the orthonormal sine basis.

Functions live on a uniform midpoint grid, so Dirichlet boundary values never
enter a quadrature sum and the first n_theta - 1 sine modes are exactly
orthogonal under the discrete inner product.  A function is the plain array
of its n_theta grid values (a batch of them: one row each), a state or a dual
element alike; the exponent of its space is passed to each function, and
the transforms take the sine basis W of `basis_matrix`, which each
`spectral.SpectralModel` builds once as its `basis`.  Norms and the duality
map scale by max|values| where a plain power sum overflows (p >= ~100), or
underflows below the smallest normal float from values not all 0.
"""

from __future__ import annotations

import math

import numpy as np

from .fracops import row_blocks

# Below this a power sum is subnormal or 0: digits, or the whole norm, lost.
_TINY = float(np.finfo(float).tiny)

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
    with np.errstate(over="ignore"):
        total = np.sum(np.abs(values) ** p)
    if (total == math.inf or total < _TINY and np.any(values)) and np.all(np.isfinite(values)):
        return float(_scaled_norms(values, p))
    return float((total * (math.pi / values.size)) ** (1.0 / p))


def _scaled_norms(values: np.ndarray, p: float) -> np.ndarray:
    """L^p norms along the last axis of finite values, not all 0, whose power
    sum overflows or underflows: max|v| (h sum |v / max|v||^p)^(1/p),
    each term at most 1 and the largest 1.  Only such rows take this form,
    since it rounds differently."""
    top = np.max(np.abs(values), axis=-1, keepdims=True)
    sums = np.sum((np.abs(values) / top) ** p, axis=-1) * (math.pi / values.shape[-1])
    return top[..., 0] * sums ** (1.0 / p)


def duality_map(values: np.ndarray, p: float) -> np.ndarray:
    """Normalized duality map J: L^p -> L^p' on one grid function's values.

    J(f) = ||f||_p^(2-p) |f|^(p-1) sign(f) pointwise, so that
    <f, J f> = ||f||_p^2 = ||J f||_p'^2; zero maps to zero.  At p = 2 the
    formula is the identity bit for bit (a -0.0 comes out +0.0).  Where a
    power overflows, J(f) = max|f| J(f / max|f|), as J is 1-homogeneous.
    """
    values = np.asarray(values, dtype=float)
    norm = lp_norm(values, p)
    if norm == 0.0:
        return np.zeros(values.size)
    with np.errstate(over="ignore", invalid="ignore"):  # a float64 power overflows to inf
        image = np.float64(norm) ** (2.0 - p) * np.abs(values) ** (p - 1.0) * np.sign(values)
    if np.all(np.isfinite(image)) or not math.isfinite(norm):  # a non-finite f has no scale
        return image
    top = np.max(np.abs(values))
    return top * duality_map(values / top, p)


def basis_matrix(n_modes: int, n_theta: int) -> np.ndarray:
    """Read-only columns w_n(theta_j) = sqrt(2/pi) sin(n theta_j), n = 1..n_modes."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if n_modes > n_theta // 2:
        raise ValueError(f"resolution guard: n_modes={n_modes} exceeds n_theta/2={n_theta // 2}")
    theta = theta_grid(n_theta)
    n = np.arange(1, n_modes + 1)
    w = math.sqrt(2.0 / math.pi) * np.sin(np.outer(theta, n))
    w.flags.writeable = False
    return w


def basis_values(coeff_rows: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Grid values (rows @ W^T) of each row of coefficients in `basis`, the
    (n_theta, n_modes) W of `basis_matrix`; refuses non-finite values."""
    rows = np.atleast_2d(np.asarray(coeff_rows, dtype=float))
    values = np.einsum("ik,kj->ij", rows, np.ascontiguousarray(basis.T))
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    return values


def basis_coefficients(values: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Coefficients h * values @ W of each row of grid values: its inner
    products with `basis`, and the inverse of `basis_values` on its modes.

    Both grid transforms are numpy contractions rather than BLAS products: at
    trajectory size, (513, 8) against (8, 256), OpenBLAS hands the product to
    its thread pool, whose worker then spins for ~0.1 s of CPU after every
    call, while numpy's own loop takes a fraction of a millisecond.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    wt = np.ascontiguousarray(basis.T)
    return np.einsum("ij,kj->ik", values, wt) * (math.pi / basis.shape[0])


def lp_norms(coeff_rows: np.ndarray, basis: np.ndarray, p: float) -> np.ndarray:
    """Midpoint-rule L^p norm of the reconstruction in `basis` of each
    coefficient row; rows go in row blocks (`fracops.row_blocks`: 120 KiB of
    grid values, under glibc's mmap threshold), one block array at a time:
    |values|^p in place, released before the next.  A row whose power sum
    overflows, or underflows from coefficients not all 0, is redone
    scaled by its max|value|."""
    rows = np.atleast_2d(np.asarray(coeff_rows, dtype=float))
    n_theta = basis.shape[0]
    sums = np.empty(rows.shape[0])
    with np.errstate(over="ignore"):
        for block in row_blocks(rows.shape[0], n_theta):
            values = basis_values(rows[block], basis)
            sums[block] = np.sum(np.power(np.abs(values, out=values), p, out=values), axis=1)
            del values  # before the next block's values
    norms = (sums * (math.pi / n_theta)) ** (1.0 / p)
    # values are finite: `basis_values` refuses others
    redo = (sums == math.inf) | (sums < _TINY) & np.any(rows, axis=1)
    if np.any(redo):
        norms[redo] = _scaled_norms(basis_values(rows[redo], basis), p)
    return norms
