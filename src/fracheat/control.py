"""Regularized control synthesis and the closed-loop trajectory map.

The regularized equation eps*x + G J(x) = y is solved directly in the Hilbert
case and otherwise by Newton's method, backtracking on the residual norm.
The synthesized control is one more input of the mild solution, and the
closed loop's control channel reads the same `evolve.Propagator` as the
Gramian assembled on its grid, which makes the identity

    q(a) = z - eps * (eps I + G J)^{-1} d,   d the deficiency vector,

hold to the solver's tolerance plus rounding (~1e-15).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fracops import TimeGrid, as_number
from .evolve import mild_solution, propagator
from .lpspace import basis_matrix, duality_map, lp_norm, lp_norms
from .spectral import SpectralModel

__all__ = [
    "ConvergenceError",
    "ResolventSolve",
    "ClosedLoopRun",
    "coordinate_duality_map",
    "check_resolvent_tol",
    "check_resolvent_max_iter",
    "regularized_resolvent",
    "deficiency_vector",
    "closed_loop_trajectory",
    "terminal_identity_residual",
    "control_l2_norm",
    "theta_constant",
    "a_priori_state_bound",
    "control_norm_bound",
]


class ConvergenceError(RuntimeError):
    """Raised when a resolvent solve exhausts max_iter or its residual turns
    NaN or inf, as the message states; `residual_history` ||r|| per iteration."""

    def __init__(self, message: str, residual_history: list[float]):
        super().__init__(message)
        self.residual_history = residual_history


def coordinate_duality_map(model: SpectralModel, x: np.ndarray) -> np.ndarray:
    """Duality map in basis coordinates: h W^T J(W x)."""
    if model.p == 2.0:
        return np.asarray(x, dtype=float)
    w = basis_matrix(model.n_modes, model.n_theta)
    return w.T @ duality_map(w @ np.asarray(x, dtype=float), model.p) * (math.pi / model.n_theta)


def _duality_map_jacobian(model: SpectralModel, x: np.ndarray) -> np.ndarray:
    """Jacobian of coordinate_duality_map at x (dense n_modes x n_modes): the
    grid Jacobian diag + rank1 v v^T projected as h W^T diag W + h rank1
    (W^T v)(W^T v)^T, never formed on the grid.

    Where |u|^(p-1) or ||u||^(2-2p) overflows (p = 64 on the bundled data),
    the same formula runs on u / ||u||, whose norm is 1: DJ is 0-homogeneous.
    That is not the rule everywhere since it rounds differently and moves the
    pinned p = 4 outputs.
    """
    w = basis_matrix(model.n_modes, model.n_theta)
    u = w @ np.asarray(x, dtype=float)
    norm = lp_norm(u, model.p)
    if norm == 0.0:
        return np.zeros((model.n_modes, model.n_modes))
    with np.errstate(over="ignore", invalid="ignore"):  # a float64 power overflows to inf
        jac = _projected_jacobian(w, u, np.float64(norm), model.p)
    return jac if np.all(np.isfinite(jac)) else _projected_jacobian(w, u / norm, 1.0, model.p)


def _projected_jacobian(w: np.ndarray, u: np.ndarray, norm: float, p: float) -> np.ndarray:
    h = math.pi / w.shape[0]
    wv = w.T @ (np.abs(u) ** (p - 1.0) * np.sign(u))
    diag = (p - 1.0) * norm ** (2.0 - p) * np.abs(u) ** (p - 2.0)
    rank1 = (2.0 - p) * norm ** (2.0 - 2.0 * p) * h
    return h * (w.T * diag) @ w + (h * rank1) * np.outer(wv, wv)


@dataclass
class ResolventSolve:
    """Outcome of solving eps*x + G J(x) = y; method direct, newton or trivial."""

    result: np.ndarray
    residual_history: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    method: str = "direct"


def _residual(gram: np.ndarray, model: SpectralModel, epsilon: float,
              x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return epsilon * x + gram @ coordinate_duality_map(model, x) - y


def check_resolvent_tol(tol) -> float:
    """The resolvent's relative tolerance as a finite float >= 0."""
    tol = as_number(tol, "resolvent_tol", float)
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"resolvent_tol must be finite and >= 0, got {tol}")
    return tol


def check_resolvent_max_iter(max_iter) -> int:
    """The resolvent's Newton iteration cap as an int >= 1."""
    max_iter = as_number(max_iter, "resolvent_max_iter")
    if max_iter < 1:
        raise ValueError(f"resolvent_max_iter must be an integer >= 1, got {max_iter}")
    return max_iter


def regularized_resolvent(
    gram: np.ndarray,
    model: SpectralModel,
    epsilon: float,
    y: np.ndarray,
    tol: float = 1e-11,
    max_iter: int = 400,
) -> ResolventSolve:
    """Solve (eps I + G J) x = y in basis coordinates to ||r|| <= tol ||y||.

    Hilbert case: one dense linear solve.  p > 2: Newton from the Hilbert
    solution.  The step solves (eps I + G DJ(x)) s = -r; DJ is the Hessian of
    1/2 ||W x||^2, positive semidefinite, so the matrix G (eps G^-1 + DJ) is
    nonsingular.  As s is the exact Newton step, d/dlam 1/2 ||r(x + lam s)||^2
    = -||r||^2 at lam = 0, and lam halves from 1 until
    ||r(x + lam s)|| <= (1 - 1e-4 lam) ||r||.
    """
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    y = np.asarray(y, dtype=float)
    if y.shape != (model.n_modes,):
        raise ValueError(f"rhs must have shape ({model.n_modes},), got {y.shape}")
    y_norm = float(np.linalg.norm(y))
    if y_norm == 0.0:
        return ResolventSolve(np.zeros_like(y), [0.0], 0, True, "trivial")
    identity = np.eye(model.n_modes)
    x = np.linalg.solve(epsilon * identity + gram, y)
    res_vec = _residual(gram, model, epsilon, x, y)
    res = float(np.linalg.norm(res_vec))
    if model.p == 2.0:
        return ResolventSolve(x, [res], 1, res <= tol * y_norm, "direct")

    history, lam = [res], 0.0  # lam: the last step length, 0 before any step
    for it in range(max_iter + 1):
        if res <= tol * y_norm:
            return ResolventSolve(x, history, it, True, "newton")
        if not math.isfinite(res):
            raise ConvergenceError(f"resolvent residual {res} at Newton iteration {it} "
                                   f"(eps={epsilon}, p={model.p})", history)
        if it == max_iter:
            break
        step = np.linalg.solve(epsilon * identity + gram @ _duality_map_jacobian(model, x), -res_vec)
        lam, cand_vec = 1.0, _residual(gram, model, epsilon, x + step, y)
        while not np.linalg.norm(cand_vec) <= (1.0 - 1e-4 * lam) * res and lam > 1e-10:
            lam *= 0.5
            cand_vec = _residual(gram, model, epsilon, x + lam * step, y)
        x, res_vec = x + lam * step, cand_vec
        res = float(np.linalg.norm(res_vec))
        history.append(res)
    raise ConvergenceError(
        f"resolvent did not reach tol={tol} within {max_iter} Newton iterations "
        f"(eps={epsilon}, last residual {res:.3e}, last step length lam={lam:.3e})", history)


def deficiency_vector(
    model: SpectralModel,
    grid: TimeGrid,
    z: np.ndarray,
    x0: np.ndarray,
    forcing: np.ndarray | None = None,
) -> np.ndarray:
    """d = z - S(a) x0 - int_0^a (a-s)^(alpha-1) T(a-s) [H g](s) ds, with the
    forcing already H-applied and node-sampled: row N of the forced free run,
    from the propagator's terminal sum, with no full trajectory."""
    prop = propagator(model, grid)
    free = prop.e_state[-1] * np.asarray(x0, dtype=float)
    if forcing is not None:
        free = free + prop.forcing_anchor[-1] * forcing[-1] + prop.terminal(forcing)
    return np.asarray(z, dtype=float) - free


@dataclass
class ClosedLoopRun:
    """Synthesized control together with the states it produces: `states`
    (steps+1, n_modes), row k the state q(t_k) on the closed loop's grid."""

    epsilon: float
    states: np.ndarray
    control: np.ndarray           # (steps+1, n_modes) coordinates in U
    deficiency: np.ndarray
    solve: ResolventSolve


def closed_loop_trajectory(
    model: SpectralModel,
    gram: np.ndarray,
    grid: TimeGrid,
    epsilon: float,
    z: np.ndarray,
    x0: np.ndarray,
    forcing: np.ndarray | None = None,
    tol: float = 1e-11,
    max_iter: int = 400,
) -> ClosedLoopRun:
    """Run the regularized control law and integrate the controlled system:
    the terminal sum gives the deficiency d, the resolvent gives w, and one
    mild solution carries the forcing and the control B u(t_j), with
    u(t_j) = B^T (e(a - t_j) o J(w))."""
    d = deficiency_vector(model, grid, z, x0, forcing)
    solve = regularized_resolvent(gram, model, epsilon, d, tol=tol, max_iter=max_iter)
    jw = coordinate_duality_map(model, solve.result)
    control = (propagator(model, grid).e_force[::-1] * jw) @ model.b_matrix
    states = mild_solution(model, grid, x0, forcing=forcing, control=control @ model.b_matrix.T)
    return ClosedLoopRun(epsilon, states, control, d, solve)


def terminal_identity_residual(
    run: ClosedLoopRun,
    model: SpectralModel,
    z: np.ndarray,
) -> float:
    """Relative gap between q(a) and z - eps * (eps I + G J)^{-1} d."""
    z = np.asarray(z, dtype=float)
    predicted = z - run.epsilon * run.solve.result
    gap, z_norm, d_norm = lp_norms([run.states[-1] - predicted, z, run.deficiency],
                                   model.n_theta, model.p)
    return float(gap / max(z_norm, d_norm, 1e-30))


def control_l2_norm(control: np.ndarray, grid: TimeGrid) -> float:
    """L^2(I, U) norm of node-sampled control by the trapezoid rule."""
    control = np.asarray(control, dtype=float)
    sq = np.sum(control * control, axis=1)
    w = np.full(grid.steps + 1, grid.dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    return float(math.sqrt(np.sum(w * sq)))


def theta_constant(model: SpectralModel, eta: float) -> float:
    """Hoelder constant of the forcing term:
    (a^(b(alpha-1)+1) / (b(alpha-1)+1))^(1-alpha1) ||eta||_{L^{1/alpha1}(0, a)},
    with b = 1/(1-alpha1), an exponent > 0 as `FracOrder` keeps alpha1 < alpha;
    the constant bound eta has the norm eta a^alpha1."""
    alpha, alpha1, a = model.order.alpha, model.order.alpha1, model.horizon
    expo = 1.0 / (1.0 - alpha1) * (alpha - 1.0) + 1.0
    return (a**expo / expo) ** (1.0 - alpha1) * eta * a**alpha1


def _bound_terms(model: SpectralModel, epsilon: float, z: np.ndarray, x0: np.ndarray,
                 eta: float) -> tuple[float, float]:
    """The free part M||x0|| + (M/Gamma(alpha)) ||H|| Theta of both bounds, and
    the control bound's (1/eps) (M/Gamma(alpha)) ||B|| * deficiency scale,
    the scale ||z|| + M||x0|| + (M/Gamma(alpha)) ||H|| Theta."""
    gain = model.m_bound / math.gamma(model.order.alpha)
    z_norm, x0_norm = lp_norms([z, x0], model.n_theta, model.p)
    base = model.m_bound * x0_norm + gain * model.h_norm_bound * theta_constant(model, eta)
    return base, gain * model.b_norm_bound * (z_norm + base) / epsilon


def a_priori_state_bound(
    model: SpectralModel,
    epsilon: float,
    z: np.ndarray,
    x0: np.ndarray,
    eta: float,
) -> float:
    """Sup-norm bound for the closed-loop trajectory at this regularization:
    M||x0|| + (M/Gamma(alpha)) ||H|| Theta
    + (1/eps) (M ||B|| / Gamma(alpha))^2 (a^alpha / alpha) * deficiency scale."""
    alpha = model.order.alpha
    base, control = _bound_terms(model, epsilon, z, x0, eta)
    return base + (control * model.m_bound * model.b_norm_bound / math.gamma(alpha)
                   * model.horizon**alpha / alpha)


def control_norm_bound(
    model: SpectralModel,
    epsilon: float,
    z: np.ndarray,
    x0: np.ndarray,
    eta: float,
) -> float:
    """L^2(I, U) bound for the synthesized control:
    (1/eps)(M/Gamma(alpha)) ||B|| * deficiency scale * sqrt(a)."""
    return _bound_terms(model, epsilon, z, x0, eta)[1] * math.sqrt(model.horizon)
