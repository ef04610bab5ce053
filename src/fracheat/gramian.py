"""Controllability Gramian over the time grid's [0, a]: assembly and structural checks.

The Gramian is a plain read-only (n_modes, n_modes) array in basis
coordinates: the product integration of sigma^(alpha-1) * diag(e(sigma)) B B^T
diag(e(sigma)) over the horizon, e(sigma) the Duhamel-family multipliers, on
the nodes and terminal weights of the time grid's `evolve.Propagator`, the
instance the closed loop reads on that grid.  Each quadrature term is
symmetric positive semidefinite with a positive weight, so symmetry and
positivity are structural, matching the operator's proven properties; the
verification report re-derives them numerically anyway.  One eigensolve of
the symmetrized Gramian gives both its smallest eigenvalue (positivity) and
its smallest |eigenvalue|, which for a symmetric matrix is its smallest
singular value (injectivity of the truncated model, with that of B, against
`numpy.linalg.matrix_rank`'s tolerance, so the verdict does not move with B's scale).
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass

import numpy as np

from .evolve import propagator
from .fracops import TimeGrid, gaussian_rows
from .lpspace import lp_norms
from .spectral import SpectralModel

__all__ = [
    "GramianReport",
    "check_steps",
    "assemble_gramian",
    "verify_gramian",
    "gramian_norm_bound",
]


def check_steps(steps: int) -> int:
    """The time grid's step count, the Gramian's quadrature too: >= 16."""
    if steps < 16:
        raise ValueError(f"steps must be >= 16, got {steps}")
    return steps


def assemble_gramian(model: SpectralModel, grid: TimeGrid) -> np.ndarray:
    """Product-integration assembly of the Gramian on the nodes of `grid`."""
    check_steps(grid.steps)
    prop = propagator(model, grid)
    e, bb = prop.e_force, model.b_matrix @ model.b_matrix.T
    matrix = bb * np.einsum("m,mi,mj->ij", prop.terminal_weights, e, e)
    matrix.flags.writeable = False
    return matrix


def gramian_norm_bound(model: SpectralModel, grid: TimeGrid) -> float:
    """Operator-norm bound (M/Gamma(alpha))^2 ||B||^2 a^alpha / alpha, a the
    grid's horizon, with the computable upper bound for ||B||."""
    alpha = model.order.alpha
    factor = (model.m_bound / math.gamma(alpha)) ** 2 * model.b_norm_bound**2
    return factor * grid.horizon**alpha / alpha


@dataclass(frozen=True)
class GramianReport:
    symmetry_defect: float
    min_eigenvalue: float
    sigma_min: float  # smallest |eigenvalue| of the same eigensolve: sigma_min(G)
    sigma_min_b: float  # smallest |eigenvalue| of the symmetric B: sigma_min(B)
    injective: bool  # B and G of full numerical rank: sigma_min > n eps sigma_max for each
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
    gram: np.ndarray,
    model: SpectralModel,
    grid: TimeGrid,
    n_samples: int = 100,
    seed: int = 0,
) -> GramianReport:
    """Numerical audit: symmetry, positivity, the quadratic-form identity
    <x*, G x*> = int sigma^(alpha-1) ||B* T*(sigma) x*||^2 dsigma, and the
    norm bound, the last two on `n_samples` standard normal x* drawn from the
    standard library's `random.Random(seed)`.  The identity re-sums the same
    `terminal_weights` and `e_force` of `grid` per sample, so it checks the
    assembly's algebra and cannot see the Gramian's quadrature error."""
    defect = float(np.max(np.abs(gram - gram.T))) if gram.size else 0.0
    eigs = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    min_eig = float(eigs.min())
    sigmas, sigmas_b = (np.sort(np.abs(e)) for e in (eigs, np.linalg.eigvalsh(model.b_matrix)))

    prop = propagator(model, grid)
    weights, mults = prop.terminal_weights, prop.e_force
    bound = gramian_norm_bound(model, grid)
    xstars = gaussian_rows(random.Random(seed), n_samples, model.n_modes)
    worst_gap = 0.0
    for xstar in xstars:
        lhs = float(xstar @ gram @ xstar)
        # ||B* T_alpha*(sigma) x*||_U^2 at each node, U = L^2 coordinates
        images = (mults * xstar) @ model.b_matrix
        rhs = float(weights @ np.sum(images * images, axis=1))
        gap = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        worst_gap = max(worst_gap, gap)
    slack = (lp_norms(xstars @ gram.T, model.basis, model.p)
             / (bound * lp_norms(xstars, model.basis, model.dual_p)))
    worst_slack = float(np.max(slack, initial=0.0))
    return GramianReport(
        symmetry_defect=defect,
        min_eigenvalue=min_eig,
        sigma_min=float(sigmas[0]),
        sigma_min_b=float(sigmas_b[0]),
        injective=all(s[0] > s.size * sys.float_info.epsilon * s[-1] for s in (sigmas, sigmas_b)),
        quadratic_form_gap=worst_gap,
        norm_bound=bound,
        norm_bound_slack=worst_slack,
        symmetric=defect <= 1e-10,
        positive=min_eig >= -1e-10,
        quadratic_form_ok=worst_gap <= 1e-8,
        norm_bound_ok=worst_slack <= 1.0,
    )
