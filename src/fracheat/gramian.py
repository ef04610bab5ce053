"""Controllability Gramian over [0, horizon]: assembly and structural checks.

The Gramian matrix in basis coordinates is the product integration of
sigma^(alpha-1) * diag(e(sigma)) B B^T diag(e(sigma)) over the horizon, with
e(sigma) the Duhamel-family multipliers, summed on the nodes of the quad
grid's `evolve.Propagator` with its terminal weights.  Each quadrature term
is symmetric positive semidefinite with a positive weight, so symmetry and
positivity of the assembled matrix are structural, matching the operator's
proven properties; the verification report re-derives them numerically
anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolve import propagator, write_csv
from .fracops import TimeGrid
from .lpspace import lp_norms
from .spectral import SpectralModel

__all__ = [
    "GramianOperator",
    "GramianReport",
    "check_quad_steps",
    "assemble_gramian",
    "verify_gramian",
    "gramian_min_singular",
    "gramian_norm_bound",
    "gramian_to_csv",
]


@dataclass(frozen=True)
class GramianOperator:
    matrix: np.ndarray
    horizon: float
    quad_steps: int

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=float).copy()
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"matrix must be square, got shape {matrix.shape}")
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0]


def check_quad_steps(quad_steps) -> int:
    """The Gramian's quadrature step count as an int, at least 16."""
    quad_steps = int(quad_steps)
    if quad_steps < 16:
        raise ValueError(f"quad_steps must be >= 16, got {quad_steps}")
    return quad_steps


def assemble_gramian(model: SpectralModel, quad_steps: int = 512) -> GramianOperator:
    """Product-integration assembly of the Gramian at quad_steps resolution."""
    quad_steps = check_quad_steps(quad_steps)
    prop = propagator(model, TimeGrid(model.horizon, quad_steps))
    e, bb = prop.e_force, model.b_matrix @ model.b_matrix.T
    matrix = bb * np.einsum("m,mi,mj->ij", prop.terminal_weights, e, e)
    return GramianOperator(matrix=matrix, horizon=model.horizon, quad_steps=quad_steps)


def gramian_norm_bound(model: SpectralModel) -> float:
    """Operator-norm bound (M/Gamma(alpha))^2 ||B||^2 horizon^alpha / alpha,
    with the computable upper bound for ||B||."""
    alpha = model.order.alpha
    factor = (model.m_bound / math.gamma(alpha)) ** 2 * model.b_norm_bound**2
    return factor * model.horizon**alpha / alpha


@dataclass(frozen=True)
class GramianReport:
    symmetry_defect: float
    min_eigenvalue: float
    quadratic_form_gap: float
    norm_bound: float
    norm_bound_slack: float
    symmetric: bool
    positive: bool
    quadratic_form_ok: bool
    norm_bound_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.symmetric and self.positive and self.quadratic_form_ok and self.norm_bound_ok


def verify_gramian(
    gram: GramianOperator,
    model: SpectralModel,
    n_samples: int = 100,
    seed: int = 0,
) -> GramianReport:
    """Numerical audit: symmetry, positivity, the quadratic-form identity
    <x*, G x*> = int sigma^(alpha-1) ||B* T*(sigma) x*||^2 dsigma (computed on
    the assembly nodes through an independent code path), and the norm bound."""
    g = gram.matrix
    defect = float(np.max(np.abs(g - g.T))) if g.size else 0.0
    min_eig = float(np.linalg.eigvalsh(0.5 * (g + g.T)).min())

    prop = propagator(model, TimeGrid(model.horizon, gram.quad_steps))
    weights, mults = prop.terminal_weights, prop.e_force
    rng = np.random.default_rng(seed)
    bound = gramian_norm_bound(model)
    xstars = rng.standard_normal((n_samples, model.n_modes))
    worst_gap = 0.0
    for xstar in xstars:
        lhs = float(xstar @ g @ xstar)
        # ||B* T_alpha*(sigma) x*||_U^2 at each node, U = L^2 coordinates
        images = (mults * xstar) @ model.b_matrix
        rhs = float(weights @ np.sum(images * images, axis=1))
        gap = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        worst_gap = max(worst_gap, gap)
    slack = (lp_norms(xstars @ g.T, model.n_theta, model.p)
             / (bound * lp_norms(xstars, model.n_theta, model.dual_p)))
    worst_slack = float(np.max(slack, initial=0.0))
    return GramianReport(
        symmetry_defect=defect,
        min_eigenvalue=min_eig,
        quadratic_form_gap=worst_gap,
        norm_bound=bound,
        norm_bound_slack=worst_slack,
        symmetric=defect <= 1e-10,
        positive=min_eig >= -1e-10,
        quadratic_form_ok=worst_gap <= 1e-8,
        norm_bound_ok=worst_slack <= 1.0,
    )


def gramian_min_singular(gram: GramianOperator) -> float:
    return float(np.linalg.svd(gram.matrix, compute_uv=False)[-1])


def gramian_to_csv(gram: GramianOperator, stream, header_lines: tuple[str, ...] = ()) -> None:
    n = gram.n_modes
    write_csv(stream, header_lines, ["row"] + [f"c{j}" for j in range(1, n + 1)],
              ([i, *row] for i, row in enumerate(gram.matrix.tolist(), start=1)))
