"""Nonsmooth potentials, measurable selections and the regularized fixed point.

A potential is a scalar, locally Lipschitz function of the state value r
alone, whose interval-valued generalized derivative a constant eta bounds;
selections turn the interval into one forcing value per (node, grid point).
The composite map g -> selection(closed-loop trajectory of g) is iterated
with full steps while the trajectory gap shrinks and with Krasnoselskii
averaging in forcing space, where convex combinations stay admissible, from
the first step that fails to shrink it.  Non-convergence is a reported outcome, not an
exception: existence of the fixed point is topological and the iteration is
a heuristic.  A solve holds one (steps+1, n_theta) array, the iterate: each
step selects, relaxes and projects it in one pass over row blocks, and a
full step whose selection is the iterate bit for bit ends the solve without
re-running its closed loop.  The closing audit is one more full step of the
same pass, on the same array.  `epsilon_sweep` yields one epsilon at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .control import (
    ClosedLoopRun,
    ConvergenceError,
    closed_loop_trajectory,
    control_l2_norm,
    deficiency_vector,
    terminal_identity_residual,
)
from .fracops import TimeGrid, row_blocks
from .lpspace import basis_coefficients, basis_values, lp_norms
from .spectral import SpectralModel

__all__ = [
    "NonsmoothPotential",
    "abs_potential",
    "saturating_potential",
    "tabulated_potential",
    "audit_potential",
    "SELECTION_STRATEGIES",
    "check_strategy",
    "FixedPointResult",
    "check_relaxation",
    "fixed_point_iterate",
    "SweepEntry",
    "check_epsilons",
    "epsilon_sweep",
    "free_terminal_miss",
    "hvi_residual",
]

SELECTION_STRATEGIES = ("minimal_norm", "midpoint", "sign_zero", "sticky")


@dataclass(frozen=True)
class NonsmoothPotential:
    """Scalar potential F(r), held only through its interval generalized
    derivative (no command evaluates F): `interval(r)` maps an array of r to
    arrays (lo, hi) of its shape, and the constant `eta` bounds |dF|, so it
    lies in L^{1/alpha1}(0, a) for any alpha1, as the hypotheses assume."""

    interval: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    eta: float


def abs_potential(c: float) -> NonsmoothPotential:
    """F = c |r|: derivative interval c sign(r), [-c, c] at the kink."""
    if not 0.0 <= c < math.inf:
        raise ValueError(f"abs potential coefficient must be finite and >= 0, got {c}")

    def ival(r):
        # (r > 0) 2c - c is where(r > 0, c, -c) bit for bit when c > 0 (2c - c
        # = c exactly; NaN r gives -c in both), without np.where's slower
        # broadcast of two scalars; at c = 0 only the sign of zero can differ
        return (r > 0.0) * (2.0 * c) - c, (r >= 0.0) * (2.0 * c) - c

    return NonsmoothPotential(ival, c)


def saturating_potential(c: float, cap: float) -> NonsmoothPotential:
    """F = c min(|r|, cap): kinks at r = 0 and |r| = cap, derivative 0 beyond."""
    if not (0.0 <= c < math.inf and cap > 0.0):
        raise ValueError(f"sat potential needs a finite c >= 0 and cap > 0, "
                         f"got c={c}, cap={cap}")

    def ival(r):
        return (np.where((r > 0.0) & (r < cap), c, np.where((r >= -cap) & (r <= 0.0), -c, 0.0)),
                np.where((r >= 0.0) & (r <= cap), c, np.where((r > -cap) & (r < 0.0), -c, 0.0)))

    return NonsmoothPotential(ival, c)


def tabulated_potential(breaks: np.ndarray, values: np.ndarray) -> NonsmoothPotential:
    """Piecewise-linear potential in r given by (breaks, values); beyond the
    table the end slopes hold (F continues linearly)."""
    breaks = np.asarray(breaks, dtype=float)
    values = np.asarray(values, dtype=float)
    if not (np.all(np.isfinite(breaks)) and np.all(np.isfinite(values))):
        raise ValueError("potential table entries must be finite")
    if breaks.ndim != 1 or breaks.size < 2 or np.any(np.diff(breaks) <= 0):
        raise ValueError("breaks must be strictly increasing with at least 2 entries")
    if values.shape != breaks.shape:
        raise ValueError("values must match breaks")
    slopes = np.diff(values) / np.diff(breaks)

    def ival(r):
        # the segment whose slope holds at r, the end ones beyond the table
        idx = np.clip(np.searchsorted(breaks, r, side="right") - 1, 0, slopes.size - 1)
        # interval at interior break points spans the adjacent slopes
        left = slopes[np.where(np.isin(r, breaks[1:-1]), idx - 1, idx)]
        return np.minimum(left, slopes[idx]), np.maximum(left, slopes[idx])

    return NonsmoothPotential(ival, float(np.max(np.abs(slopes))))


def audit_potential(pot: NonsmoothPotential, r_samples: np.ndarray) -> None:
    """Runtime admissibility audit on `r_samples`: lo <= hi and |lo|, |hi| <= eta."""
    lo, hi = pot.interval(r_samples)
    if np.any(lo > hi + 1e-14):
        raise ValueError("potential interval inverted")
    if max(np.max(np.abs(lo)), np.max(np.abs(hi))) > pot.eta + 1e-12:
        raise ValueError(f"potential bound eta={pot.eta} violated")


def check_strategy(strategy: str) -> str:
    """`strategy` if it names one of SELECTION_STRATEGIES."""
    if strategy not in SELECTION_STRATEGIES:
        raise ValueError(f"strategy must be one of {SELECTION_STRATEGIES}, got {strategy!r}")
    return strategy


def _map_step(pot: NonsmoothPotential, strategy: str, states: np.ndarray,
              model: SpectralModel, g: np.ndarray, omega: float):
    """The one selection rule and bound check: select along `states` (row k
    at node t_k), sticky from `g`, and write (1 - omega) g + omega selection
    into `g` in one pass over its row blocks (`fracops.row_blocks`: 120 KiB,
    under glibc's mmap threshold).  Returns (rows H ghat(t_k) of the new `g`,
    whether the selection was `g` bit for bit).  At most three block arrays
    live at once (the selection, lo and hi)."""
    coefficients = np.empty((states.shape[0], model.n_modes))
    same = True
    for rows in row_blocks(states.shape[0], model.n_theta):
        block = basis_values(states[rows], model.basis)  # r, then the selection
        lo, hi = pot.interval(block)
        if strategy == "midpoint":
            np.multiply(0.5, lo + hi, out=block)
        elif strategy == "sign_zero":
            block[...] = np.where((lo <= 0.0) & (hi >= 0.0), 0.0, 0.5 * (lo + hi))
        elif strategy == "sticky":
            np.clip(g[rows], lo, hi, out=block)
        else:  # minimal_norm
            np.clip(0.0, lo, hi, out=block)
        if np.any(np.maximum(block.max(axis=1), -block.min(axis=1)) > pot.eta + 1e-12):  # max |g|
            raise AssertionError("selection escaped the admissible bound")
        del lo, hi  # before the pass below and the next block's temporaries
        same = same and np.array_equal(block.view(np.int64), g[rows].view(np.int64))
        if omega == 1.0:
            g[rows] = block
        else:  # g's block is read before it is written
            g[rows] *= 1.0 - omega
            block *= omega
            g[rows] += block
        coefficients[rows] = basis_coefficients(g[rows], model.basis)
        del block  # before the next block's
    return coefficients @ model.h_matrix.T, same


@dataclass
class FixedPointResult:
    """Fixed point at tolerance.

    `g` is an exact pointwise selection along `run.states` (so membership
    checks hold at machine precision), `residuals` the trajectory gap of each
    iteration, and `fixed_point_residual` the sup-norm trajectory change
    under the audit, one more full step of the loop's own pass on the
    iterate's array -- the dynamics-vs-membership gap inherent to stopping at
    tolerance.  `closed_loops` counts the closed loops run: the initial one,
    the audit's, and one per step but a settled last step, whose selection
    is the iterate bit for bit (gap 0.0); an audit whose selection is the
    iterate bit for bit runs none either.
    """

    g: np.ndarray
    run: ClosedLoopRun
    residuals: list[float]
    iterations: int
    converged: bool
    fixed_point_residual: float
    closed_loops: int


def _trajectory_gap(model: SpectralModel, a: np.ndarray, b: np.ndarray) -> float:
    """Sup over nodes of the state norm of a - b, for states of one grid."""
    return float(np.max(lp_norms(a - b, model.basis, model.p)))


def check_relaxation(relaxation: float) -> float:
    """The fixed point's back-off damping, in (0, 1]: at 0 the loop would
    stand still and report a false convergence with gap 0."""
    if not 0.0 < relaxation <= 1.0:
        raise ValueError(f"relaxation must lie in (0, 1], got {relaxation}")
    return relaxation


def fixed_point_iterate(
    model: SpectralModel,
    gram: np.ndarray,
    grid: TimeGrid,
    epsilon: float,
    pot: NonsmoothPotential,
    z: np.ndarray,
    x0: np.ndarray,
    strategy: str = "sticky",
    relaxation: float = 0.5,
    tol: float = 1e-8,
    max_iter: int = 80,
    resolvent_tol: float = 1e-11,
    resolvent_max_iter: int = 400,
) -> FixedPointResult:
    """Safeguarded iteration of g -> selection(closed-loop trajectory of g).

    Full steps (g <- selection) come first: once the selection settles, the
    next full step lands on the fixed point itself.  From the first step
    whose trajectory gap fails to shrink, the rest of the solve averages,
    g <- (1 - relaxation) g + relaxation selection (Krasnoselskii), so
    `relaxation` is the damping used once full steps stop contracting.
    Stops when successive trajectories differ by at most tol in the sup (over
    nodes) state norm, or when a full step's selection is the iterate bit for
    bit, whose closed loop is the current one (gap 0.0); exhaustion of
    max_iter returns the last iterate flagged as non-converged.
    """
    relaxation = check_relaxation(relaxation)
    check_strategy(strategy)

    def run_for(forcing: np.ndarray) -> ClosedLoopRun:
        return closed_loop_trajectory(
            model, gram, grid, epsilon, z, x0, forcing=forcing,
            tol=resolvent_tol, max_iter=resolvent_max_iter,
        )

    g = np.zeros((grid.steps + 1, model.n_theta))
    run, closed_loops = run_for(np.zeros((grid.steps + 1, model.n_modes))), 1
    residuals: list[float] = []
    converged = settled = False
    iterations = 0
    omega = 1.0
    for iterations in range(1, max_iter + 1):
        # g <- (1 - omega) g + omega selection, in place
        forcing, same = _map_step(pot, strategy, run.states, model, g, omega)
        if omega == 1.0 and same:  # g's closed loop is `run`, bit for bit
            residuals.append(0.0)
            converged = settled = True
            break
        run_new, closed_loops = run_for(forcing), closed_loops + 1
        del forcing  # before the next step's
        gap = _trajectory_gap(model, run_new.states, run.states)
        if residuals and gap >= residuals[-1]:
            omega = relaxation  # full steps stopped contracting: average from here on
        residuals.append(gap)
        run = run_new
        if gap <= tol:
            converged = True
            break
    fp_residual = 0.0
    if not settled:  # the audit: one more full step, g <- selection
        forcing, same = _map_step(pot, strategy, run.states, model, g, 1.0)
        if not same:  # else the audit run would be `run` itself, bit for bit
            audit, closed_loops = run_for(forcing), closed_loops + 1
            fp_residual = _trajectory_gap(model, audit.states, run.states)
    return FixedPointResult(
        g=g,
        run=run,
        residuals=residuals,
        iterations=iterations,
        converged=converged,
        fixed_point_residual=fp_residual,
        closed_loops=closed_loops,
    )


@dataclass
class SweepEntry:
    """One epsilon of a sweep.  A failed solve has NaN numbers and keeps its
    `ConvergenceError` message and resolvent residual history; a solved one
    keeps the fixed point's trajectory gap per iteration, its
    `fixed_point_residual` and its closed-loop count (0 on a failed solve,
    as `iterations`)."""

    epsilon: float
    terminal_miss: float
    control_energy: float
    iterations: int
    converged: bool
    identity_residual: float
    predicted_miss: float
    failure: str | None = None
    residual_history: list[float] = field(default_factory=list)
    fixed_point_residual: float = math.nan
    fixed_point_history: list[float] = field(default_factory=list)
    closed_loops: int = 0


def free_terminal_miss(model: SpectralModel, grid: TimeGrid, z: np.ndarray,
                       x0: np.ndarray) -> float:
    """Miss of the uncontrolled, unforced dynamics: ||z - S(a) x0||."""
    return float(lp_norms(deficiency_vector(model, grid, z, x0), model.basis, model.p)[0])


def check_epsilons(values) -> list[float]:
    """The epsilon list: finite, nonempty, strictly descending, and no value
    below the 1e-5 desk-scale floor."""
    eps = list(values)
    bad = [e for e in eps if not math.isfinite(e)]
    if bad:
        raise ValueError(f"sweep.epsilons must be finite, got {bad[0]}")
    if not eps or any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("sweep.epsilons must be a nonempty strictly descending list")
    if eps[-1] < 1e-5:
        raise ValueError(f"sweep.epsilons below the 1e-5 desk-scale floor, got {eps[-1]}")
    return eps


def epsilon_sweep(
    model: SpectralModel,
    gram: np.ndarray,
    grid: TimeGrid,
    pot: NonsmoothPotential,
    z: np.ndarray,
    x0: np.ndarray,
    eps_list,
    strategy: str = "sticky",
    relaxation: float = 0.5,
    tol: float = 1e-8,
    max_iter: int = 80,
    resolvent_tol: float = 1e-11,
    resolvent_max_iter: int = 400,
) -> Iterator[tuple[SweepEntry, FixedPointResult | None]]:
    """Regularization study over a descending epsilon list (min 1e-5).

    Entries are independent (no warm starts); per-epsilon failures are
    recorded and the sweep continues.  An entry is converged only when its
    fixed point converged and the final resolvent solve reached its tol.
    The list is checked on the call; each epsilon is solved as the caller
    iterates, yielding its entry and fixed point (None where the solve failed).
    """
    eps = check_epsilons(eps_list)

    def solve(e: float) -> tuple[SweepEntry, FixedPointResult | None]:
        try:
            fp = fixed_point_iterate(
                model, gram, grid, e, pot, z, x0,
                strategy=strategy, relaxation=relaxation, tol=tol, max_iter=max_iter,
                resolvent_tol=resolvent_tol, resolvent_max_iter=resolvent_max_iter,
            )
        except ConvergenceError as exc:
            return SweepEntry(e, math.nan, math.nan, 0, False, math.nan, math.nan,
                              failure=str(exc),
                              residual_history=[float(r) for r in exc.residual_history]), None
        run = fp.run
        miss, predicted = lp_norms([run.states[-1] - np.asarray(z, float),
                                    e * run.solve.result], model.basis, model.p)
        return SweepEntry(
            epsilon=e,
            terminal_miss=float(miss),
            control_energy=control_l2_norm(run.control, grid),
            iterations=fp.iterations,
            converged=fp.converged and run.solve.converged,
            identity_residual=terminal_identity_residual(run, model, np.asarray(z, float)),
            predicted_miss=float(predicted),
            fixed_point_residual=fp.fixed_point_residual,
            fixed_point_history=list(fp.residuals),
            closed_loops=fp.closed_loops,
        ), fp

    return map(solve, eps)


def hvi_residual(
    model: SpectralModel,
    states: np.ndarray,
    g: np.ndarray,
    pot: NonsmoothPotential,
    test_directions: np.ndarray,
) -> float:
    """Worst signed violation of <H g(t), v*> <= integral of the directional
    derivative along H* v*, over every node (row k of `states` and of `g` at
    t_k) and the test directions: nonpositive (up to roundoff) when
    g is a true pointwise selection, positive for some direction on a
    non-member forcing."""
    test_directions = np.asarray(test_directions, dtype=float)
    if test_directions.ndim != 2 or test_directions.shape[1] != model.n_modes:
        raise ValueError("test_directions must be (m, n_modes) coefficient rows")
    lo, hi = pot.interval(basis_values(states, model.basis))
    lhs = basis_coefficients(g, model.basis) @ model.h_matrix.T @ test_directions.T
    # support function of [lo, hi] along d: hi d where d > 0, lo d where d < 0
    direction = basis_values(test_directions @ model.h_matrix, model.basis)
    # contractions over the grid axis: as `@` products OpenBLAS would run them
    # on its thread pool (see `lpspace.basis_coefficients`)
    rhs = (np.einsum("kj,mj->km", hi, np.maximum(direction, 0.0))
           + np.einsum("kj,mj->km", lo, np.minimum(direction, 0.0))) * (math.pi / model.n_theta)
    return float(np.max(lhs - rhs))
