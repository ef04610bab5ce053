"""Spectral model of the controlled fractional heat system on [0, pi].

The generator is diagonal in the orthonormal sine basis with eigenvalues
-n^2, so both operator families act as Mittag-Leffler multipliers on basis
coefficients: E_alpha(lambda_n t^alpha) for the state family and
E_{alpha,alpha}(lambda_n t^alpha) for the Duhamel family, which callers take
from `fracops.ml_family` on `eigenvalues * t^alpha`.  The input and coupling
operators are kernel integral operators assembled into basis-coordinate
matrices, and the model owns its sine basis (`SpectralModel.basis`); the time
horizon is the `fracops.TimeGrid`'s.  This module builds the model only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fracops import FracOrder, gauss_legendre, row_blocks
from .lpspace import basis_matrix, lp_norm, theta_grid

__all__ = [
    "KernelSpec",
    "SpectralModel",
    "green_kernel",
    "min_kernel",
    "build_model",
]

_KERNEL_KINDS = ("green", "min", "custom")


def green_kernel(theta: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """K(theta, omega) = omega (pi - theta) for omega <= theta, symmetric:
    pi times the Green's function of -d^2/dtheta^2 with Dirichlet ends."""
    lo = np.minimum(theta, omega)
    return lo * (math.pi - np.maximum(theta, omega))


def min_kernel(theta: np.ndarray, omega: np.ndarray) -> np.ndarray:
    return np.minimum(theta, omega)


@dataclass(frozen=True)
class KernelSpec:
    """Symmetric kernel on [0, pi]^2: a named kind or a midpoint-sampled table."""

    kind: str = "green"
    table: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KERNEL_KINDS:
            raise ValueError(f"kernel kind must be one of {_KERNEL_KINDS}, got {self.kind!r}")
        if self.kind == "custom":
            if self.table is None:
                raise ValueError("custom kernel requires a table")
            table = np.asarray(self.table, dtype=float)
            if table.ndim != 2 or table.shape[0] != table.shape[1] or table.shape[0] < 8:
                raise ValueError(f"kernel table must be square with size >= 8, got {table.shape}")
            if not np.all(np.isfinite(table)):
                raise ValueError("kernel table entries must be finite")
            defect = float(np.max(np.abs(table - table.T)))
            if defect > 1e-8 * max(float(np.max(np.abs(table))), 1e-30):
                raise ValueError(f"asymmetric kernel table rejected (defect {defect:.3e})")
            table = table.copy()
            table.flags.writeable = False
            object.__setattr__(self, "table", table)
        elif self.table is not None:
            raise ValueError(f"kernel kind {self.kind!r} does not take a table")

    def values(self, theta: np.ndarray, omega: np.ndarray) -> np.ndarray:
        if self.kind == "green":
            return green_kernel(theta, omega)
        if self.kind == "min":
            return min_kernel(theta, omega)
        return _bilinear_table(self.table, theta, omega)


def _bilinear_table(table: np.ndarray, theta: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of a midpoint-sampled table onto (theta, omega)."""
    m = table.shape[0]
    h = math.pi / m

    def locate(x):
        u = np.clip(np.asarray(x, dtype=float) / h - 0.5, 0.0, m - 1.0)
        i = np.minimum(u.astype(int), m - 2)
        return i, u - i

    it, ft = locate(theta)
    io, fo = locate(omega)
    return (
        table[it, io] * (1 - ft) * (1 - fo)
        + table[it + 1, io] * ft * (1 - fo)
        + table[it, io + 1] * (1 - ft) * fo
        + table[it + 1, io + 1] * ft * fo
    )


@dataclass(frozen=True)
class SpectralModel:
    """Immutable bundle of mode data, operator matrices and their sine basis."""

    n_modes: int
    order: FracOrder
    p: float
    n_theta: int
    eigenvalues: np.ndarray
    b_matrix: np.ndarray
    h_matrix: np.ndarray
    b_norm_bound: float = 0.0
    h_norm_bound: float = 0.0
    # not a field: the state family's multipliers lie in (0, 1] (`validate`'s bound M)
    m_bound = 1.0

    def __post_init__(self) -> None:
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be >= 1, got {self.n_modes}")
        if not 2.0 <= self.p < math.inf:  # L^inf is not reflexive
            raise ValueError(f"state exponent p must be finite and >= 2, got {self.p}")
        ev = np.asarray(self.eigenvalues, dtype=float)
        if ev.shape != (self.n_modes,):
            raise ValueError("eigenvalues must have one entry per mode")
        if np.any(np.diff(ev) >= 0.0):
            raise ValueError("eigenvalues must be strictly decreasing")
        for name in ("eigenvalues", "b_matrix", "h_matrix"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if np.max(np.abs(self.b_matrix - self.b_matrix.T)) > 1e-12 * np.max(np.abs(self.b_matrix)):
            raise ValueError("b_matrix must be symmetric")

    @property
    def dual_p(self) -> float:
        return self.p / (self.p - 1.0)

    @cached_property
    def basis(self) -> np.ndarray:
        """The read-only (n_theta, n_modes) W of `lpspace.basis_matrix`."""
        return basis_matrix(self.n_modes, self.n_theta)


def _assemble_kernel_matrix(kernel: KernelSpec, n_modes: int, n_theta: int) -> np.ndarray:
    """Basis-coordinate matrix M[m, n] = <K w_n, w_m>.

    Named kernels have a derivative kink along theta = omega, so the inner
    integral is split there and both directions use the 64-point Gauss-Legendre
    rule on ceil(n_modes / 16) panels (>= 4 nodes per mode), accurate to ~1e-12.
    Tabulated kernels are integrated with the midpoint rule on their own grid.
    """
    if kernel.kind == "custom":
        m = kernel.table.shape[0]
        if n_modes > m // 2:
            raise ValueError(f"resolution guard: n_modes={n_modes} exceeds table size {m}//2")
        w = basis_matrix(n_modes, m)
        h = math.pi / m
        mat = h * h * (w.T @ kernel.table @ w)
    else:
        x, gw = gauss_legendre(64, -(-n_modes // 16))
        ng = len(x)
        mode = np.arange(1, n_modes + 1)
        scale = math.sqrt(2.0 / math.pi)
        # outer nodes t on [0, pi]; inner panels [0, t] and [t, pi], each with
        # the same Gauss rule: arrays (outer node, panel, inner node), made in
        # row blocks of outer nodes; whole, sin(u n) and its scaled copy are
        # (ng, 2, ng, n_modes) tensors of 67 MB each at 64 modes
        t_out = 0.5 * math.pi * (x + 1.0)
        w_out = 0.5 * math.pi * gw
        lo = np.stack([np.zeros(ng), t_out], axis=1)[:, :, None]
        half = 0.5 * (np.stack([t_out, np.full(ng, math.pi)], axis=1)[:, :, None] - lo)
        inner = np.empty((ng, n_modes))
        for rows in row_blocks(ng, 2 * ng * n_modes):
            u = half[rows] * (x + 1.0) + lo[rows]
            kv = kernel.values(np.broadcast_to(t_out[rows, None, None], u.shape), u)
            basis = np.multiply(u[..., None], mode)  # one block tensor, in place
            np.sin(basis, out=basis)
            basis *= scale
            inner[rows] = np.einsum("ipq,ipq,ipqn->in", half[rows] * gw, kv, basis)
            del u, kv, basis  # before the next block's arrays
        mat = np.einsum("i,im,in->mn", w_out, scale * np.sin(np.outer(t_out, mode)), inner)
    defect = float(np.max(np.abs(mat - mat.T)))
    scale_ref = max(float(np.max(np.abs(mat))), 1e-30)
    if defect > 1e-8 * scale_ref:
        raise ValueError(f"asymmetric kernel rejected (defect {defect:.3e})")
    return 0.5 * (mat + mat.T)


def _kernel_norm_bounds(kernel: KernelSpec, p: float, n_theta: int) -> tuple[float, float]:
    """Computable upper bounds for the operator norms of the kernel operator:
    L^2 -> L^p (Cauchy-Schwarz in the inner variable) and L^p' -> L^p
    (Hoelder in the inner variable), the `lp_norm` over the outer variable
    of each kernel row's L^2 and L^p norm."""
    theta = theta_grid(n_theta)
    row_norms = np.empty((2, n_theta))
    for rows in row_blocks(n_theta, n_theta):
        k = kernel.values(theta[rows, None], theta[None, :])
        row_norms[:, rows] = lp_norm(k, 2.0), lp_norm(k, p)
        del k  # before the next block's values
    bound_l2_lp, bound_lq_lp = lp_norm(row_norms, p)
    return float(bound_l2_lp) * (1.0 + 1e-9), float(bound_lq_lp) * (1.0 + 1e-9)


def _same_kernel(a: KernelSpec, b: KernelSpec) -> bool:
    """Whether two specs describe the same kernel (tables compared by value)."""
    if a.kind != b.kind:
        return False
    return a.kind != "custom" or np.array_equal(a.table, b.table)


def build_model(
    n_modes: int,
    order: FracOrder,
    kernel_b: KernelSpec | None = None,
    kernel_h: KernelSpec | None = None,
    p: float = 2.0,
    n_theta: int = 256,
) -> SpectralModel:
    """Assemble the diagonal-generator model with kernel operators B and H."""
    kernel_b = kernel_b if kernel_b is not None else KernelSpec("green")
    kernel_h = kernel_h if kernel_h is not None else KernelSpec("green")
    if n_modes < 1:  # before any array is sized by it
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if n_modes > n_theta // 2:
        raise ValueError(f"resolution guard: n_modes={n_modes} exceeds n_theta/2={n_theta // 2}")
    eigenvalues = -np.arange(1, n_modes + 1, dtype=float) ** 2
    b_matrix = _assemble_kernel_matrix(kernel_b, n_modes, n_theta)
    b_norm, h_norm = _kernel_norm_bounds(kernel_b, p, n_theta)
    if _same_kernel(kernel_b, kernel_h):  # the bundled config: both green
        h_matrix = b_matrix
    else:
        h_matrix = _assemble_kernel_matrix(kernel_h, n_modes, n_theta)
        _, h_norm = _kernel_norm_bounds(kernel_h, p, n_theta)
    return SpectralModel(
        n_modes=n_modes,
        order=order,
        p=p,
        n_theta=n_theta,
        eigenvalues=eigenvalues,
        b_matrix=b_matrix,
        h_matrix=h_matrix,
        b_norm_bound=b_norm,
        h_norm_bound=h_norm,
    )
