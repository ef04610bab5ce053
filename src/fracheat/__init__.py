"""fracheat: Caputo-fractional evolution on [0, pi] with nonsmooth forcing,
controllability Gramian assembly and regularized approximate-control synthesis."""

__version__ = "0.1.0"

from .fracops import (
    FracOrder,
    TimeGrid,
    caputo_derivative,
    mittag_leffler,
    mittag_leffler2,
    rl_integral,
    wright_density,
)
from .lpspace import duality_map, lp_norm
from .spectral import (
    KernelSpec,
    SpectralModel,
    build_model,
    injectivity_diagnostic,
    propagate_forcing,
    propagate_state,
)
from .evolve import Trajectory, l1_reference, mild_solution
from .gramian import (
    GramianOperator,
    assemble_gramian,
    gramian_min_singular,
    verify_gramian,
)
from .control import (
    ClosedLoopRun,
    ConvergenceError,
    ResolventSolve,
    closed_loop_trajectory,
    regularized_resolvent,
    terminal_identity_residual,
)
from .hvi import (
    NonsmoothPotential,
    abs_potential,
    epsilon_sweep,
    fixed_point_iterate,
    hvi_residual,
    saturating_potential,
    select_forcing,
    zero_potential,
)

__all__ = [
    "__version__",
    "FracOrder",
    "TimeGrid",
    "mittag_leffler",
    "mittag_leffler2",
    "wright_density",
    "rl_integral",
    "caputo_derivative",
    "lp_norm",
    "duality_map",
    "KernelSpec",
    "SpectralModel",
    "build_model",
    "propagate_state",
    "propagate_forcing",
    "injectivity_diagnostic",
    "Trajectory",
    "mild_solution",
    "l1_reference",
    "GramianOperator",
    "assemble_gramian",
    "verify_gramian",
    "gramian_min_singular",
    "ResolventSolve",
    "ClosedLoopRun",
    "ConvergenceError",
    "regularized_resolvent",
    "closed_loop_trajectory",
    "terminal_identity_residual",
    "NonsmoothPotential",
    "zero_potential",
    "abs_potential",
    "saturating_potential",
    "select_forcing",
    "fixed_point_iterate",
    "epsilon_sweep",
    "hvi_residual",
]
