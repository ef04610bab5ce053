import math
from pathlib import Path

import numpy as np
import pytest

from fracheat.cli import main
from fracheat.config import build_experiment, default_config_text, load_config
from fracheat.evolve import mild_solution
from fracheat.fracops import TimeGrid, row_blocks
from fracheat.gramian import assemble_gramian
from fracheat.lpspace import (
    basis_coefficients,
    basis_matrix,
    basis_values,
    lp_norm,
    lp_norms,
)
from fracheat.hvi import (
    SELECTION_STRATEGIES,
    NonsmoothPotential,
    _map_step,
    abs_potential,
    audit_potential,
    check_epsilons,
    epsilon_sweep,
    fixed_point_iterate,
    free_terminal_miss,
    hvi_residual,
    saturating_potential,
    tabulated_potential,
)

from conftest import ORDER, bump_coefficients, traced_peak

CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "heat_default.cfg"


@pytest.fixture(scope="module")
def problem(model_p2, gram_p2, grid_512):
    x0 = bump_coefficients(8)
    z = np.zeros(8)
    z[0] = 0.6
    z[1] = 0.2
    z[2] = -0.1
    return model_p2, gram_p2, grid_512, x0, z


class TestPotentials:
    def test_abs_interval(self):
        pot = abs_potential(1.0)
        lo, hi = pot.interval(np.array([-2.0, 0.0, 3.0]))
        assert np.allclose(lo, [-1.0, -1.0, 1.0])
        assert np.allclose(hi, [-1.0, 1.0, 1.0])

    def test_saturating_interval(self):
        pot = saturating_potential(2.0, cap=1.0)
        lo, hi = pot.interval(np.array([-2.0, -1.0, 0.5, 1.0, 3.0]))
        assert np.allclose(lo, [0.0, -2.0, 2.0, 0.0, 0.0])
        assert np.allclose(hi, [0.0, 0.0, 2.0, 2.0, 0.0])

    def test_tabulated_slopes_and_kinks(self):
        pot = tabulated_potential([-1.0, 0.0, 1.0], [1.0, 0.0, 2.0])
        lo, hi = pot.interval(np.array([-0.5, 0.0, 0.5]))
        assert np.allclose(lo, [-1.0, -1.0, 2.0])
        assert np.allclose(hi, [-1.0, 2.0, 2.0])
        assert pot.eta == pytest.approx(2.0)

    def test_audit_rejects_inverted_bound(self):
        pot = abs_potential(1.0)
        bad = NonsmoothPotential(pot.interval, 0.5)
        with pytest.raises(ValueError):
            audit_potential(bad, np.linspace(-2, 2, 41))

    def test_guards(self):
        with pytest.raises(ValueError):
            abs_potential(-1.0)
        with pytest.raises(ValueError):
            saturating_potential(1.0, cap=0.0)
        with pytest.raises(ValueError):
            tabulated_potential([0.0, 0.0], [1.0, 1.0])


def abs_value(c):
    """F = c |r|."""
    return lambda r: c * np.abs(np.asarray(r, dtype=float))


def saturating_value(c, cap):
    """F = c min(|r|, cap)."""
    return lambda r: c * np.minimum(np.abs(np.asarray(r, dtype=float)), cap)


def tabulated_value(breaks, values):
    """The piecewise-linear F through (breaks, values), linear with the end
    slopes beyond the table."""
    breaks, values = np.asarray(breaks, dtype=float), np.asarray(values, dtype=float)
    slopes = np.diff(values) / np.diff(breaks)

    def value(r):
        r = np.asarray(r, dtype=float)
        idx = np.clip(np.searchsorted(breaks, r, side="right") - 1, 0, slopes.size - 1)
        return values[idx] + slopes[idx] * (r - breaks[idx])
    return value


TABLE_BREAKS = np.array([-1.0, -0.3, 0.4, 1.2])
TABLE_VALUES = np.random.default_rng(6).standard_normal(4)
# (potential, its F, the points checked): every kink, smooth points, and
# points beyond the cap or the table
POTENTIALS_WITH_VALUES = {
    "abs": (abs_potential(0.7), abs_value(0.7), (0.0, -1.5, 2.0)),
    "sat": (saturating_potential(0.8, cap=0.9), saturating_value(0.8, 0.9),
            (0.0, 0.9, -0.9, 0.4, -2.0, 3.0)),
    "table": (tabulated_potential(TABLE_BREAKS, TABLE_VALUES),
              tabulated_value(TABLE_BREAKS, TABLE_VALUES), (-0.3, 0.4, -1.0, 1.2, -2.5, 3.0)),
}


def clarke_directional(pot, r, v):
    """Generalized directional derivative at r along v: the support function
    max(lo*v, hi*v) of the derivative interval [lo, hi]."""
    lo, hi = pot.interval(np.asarray(r, dtype=float))
    return np.maximum(lo * v, hi * v)


class TestClarkeDirectional:
    def test_abs_kink_support_function(self):
        pot = abs_potential(1.0)
        assert clarke_directional(pot, 0.0, 1.0) == pytest.approx(1.0)
        assert clarke_directional(pot, 0.0, -2.0) == pytest.approx(2.0)

    def test_smooth_region_singleton(self):
        pot = abs_potential(1.0)
        for v in (-3.0, 0.5):
            assert clarke_directional(pot, 2.0, v) == pytest.approx(v)

    @pytest.mark.parametrize("name", list(POTENTIALS_WITH_VALUES))
    def test_interval_against_difference_quotient(self, name):
        """The interval is the Clarke derivative of F: at each kink, at smooth
        points and beyond the table, where the end slopes hold."""
        pot, value, points = POTENTIALS_WITH_VALUES[name]

        def limsup_quotient(r, v):
            # brute-force Clarke quotient on a fine grid around the point
            best = -math.inf
            for xi in np.linspace(r - 1e-4, r + 1e-4, 41):
                for h in (1e-6, 1e-7):
                    best = max(best, float((value(xi + h * v) - value(xi)) / h))
            return best

        for r in points:
            for v in (1.0, -1.0, 2.5):
                got = float(clarke_directional(pot, r, v))
                assert got == pytest.approx(limsup_quotient(r, v), abs=1e-3)


def select(pot, strategy, grid, states, model, previous=None):
    """The selection along `states`: one full step of the fixed point's pass
    on a copy of `previous` (zeros when None, which clip to the same bits as
    the scalar 0), sticky from it."""
    shape = (grid.steps + 1, model.n_theta)
    out = np.zeros(shape) if previous is None else np.array(previous, dtype=float)
    _map_step(pot, strategy, states, model, out, 1.0)
    return out


def project(model, g):
    """Rows H ghat(t_k) of grid-valued forcing, over the whole grid at once."""
    return basis_coefficients(g, model.basis) @ model.h_matrix.T


class TestSelection:
    def test_positive_trajectory_smooth_branch(self, problem):
        model, _, grid, x0, _ = problem
        pot = abs_potential(0.4)
        traj = mild_solution(model, grid, x0)  # bump stays positive
        g = select(pot, "minimal_norm", grid, traj, model)
        assert np.allclose(g[1:], 0.4)

    def test_zero_state_symmetric_interval(self, model_p2):
        pot = abs_potential(0.7)
        grid = TimeGrid(1.0, 8)
        for strategy in ("sign_zero", "midpoint", "minimal_norm"):
            g = select(pot, strategy, grid, np.zeros((9, 8)), model_p2)
            assert np.all(g == 0.0)

    def test_membership_audit_random_trajectories(self, model_p2):
        rng = np.random.default_rng(31)
        pot = saturating_potential(0.8, cap=0.9)
        grid = TimeGrid(1.0, 16)
        for strategy in ("minimal_norm", "midpoint", "sign_zero", "sticky"):
            states = rng.standard_normal((17, 8))
            prev = rng.standard_normal((17, model_p2.n_theta))
            g = select(pot, strategy, grid, states, model_p2, previous=prev)
            for k in range(grid.steps + 1):
                q_vals = basis_matrix(8, model_p2.n_theta) @ states[k]
                lo, hi = pot.interval(q_vals)
                assert np.all(g[k] >= lo - 1e-14)
                assert np.all(g[k] <= hi + 1e-14)

    def test_dual_norm_stays_in_admissible_set(self, problem):
        model, gram, grid, x0, z = problem
        pot = abs_potential(0.3)
        fp = fixed_point_iterate(model, gram, grid, 1e-2, pot, z, x0)
        bound = math.pi ** (1.0 / model.dual_p) * 0.3
        for k in range(0, grid.steps + 1, 64):
            g_norm = lp_norm(fp.g[k], model.dual_p)
            assert g_norm <= bound * (1.0 + 1e-12)

    def test_unknown_strategy(self, problem):
        model, gram, grid, x0, z = problem
        with pytest.raises(ValueError, match="strategy"):
            fixed_point_iterate(model, gram, grid, 1e-2, abs_potential(0.1), z, x0,
                                strategy="greedy")


def reference_abs_interval(c):
    """The earlier abs_potential interval, five full temporaries."""
    def ival(r):
        r = np.asarray(r, dtype=float)
        lo = np.where(r > 0.0, c, -c) * np.ones_like(r)
        hi = lo.copy()
        kink = r == 0.0
        lo = np.where(kink, -c, lo)
        hi = np.where(kink, c, hi)
        return lo, hi
    return ival


def reference_saturating_interval(c, cap):
    """The earlier saturating_potential interval, one where per kink."""
    def ival(r):
        r = np.asarray(r, dtype=float)
        slope = np.where(np.abs(r) < cap, np.where(r > 0.0, c, -c), 0.0)
        lo = np.where(r == 0.0, -c, slope)
        hi = np.where(r == 0.0, c, slope)
        lo = np.where(r == cap, 0.0, lo)
        hi = np.where(r == cap, c, hi)
        lo = np.where(r == -cap, -c, lo)
        hi = np.where(r == -cap, 0.0, hi)
        return lo, hi
    return ival


def reference_tabulated_interval(breaks, values):
    """The earlier tabulated_potential interval, with a second search at breaks."""
    breaks, values = np.asarray(breaks, dtype=float), np.asarray(values, dtype=float)
    slopes = np.diff(values) / np.diff(breaks)

    def ival(r):
        r = np.asarray(r, dtype=float)
        idx = np.clip(np.searchsorted(breaks, r, side="right") - 1, 0, slopes.size - 1)
        lo = slopes[idx]
        hi = lo.copy()
        at_break = np.isin(r, breaks[1:-1])
        if np.any(at_break):
            jdx = np.clip(np.searchsorted(breaks, r) - 1, 0, slopes.size - 1)
            left = slopes[np.clip(jdx, 0, slopes.size - 1)]
            right = slopes[np.clip(jdx + 1, 0, slopes.size - 1)]
            lo = np.where(at_break, np.minimum(left, right), lo)
            hi = np.where(at_break, np.maximum(left, right), hi)
        return lo, hi
    return ival


BREAKS, VALUES = [-1.0, 0.0, 0.5, 1.0], [1.0, 0.0, 0.75, 2.0]
REFERENCE_INTERVALS = [
    (abs_potential(0.3), reference_abs_interval(0.3)),
    (saturating_potential(0.8, cap=0.9), reference_saturating_interval(0.8, 0.9)),
    (tabulated_potential(BREAKS, VALUES), reference_tabulated_interval(BREAKS, VALUES)),
]


@pytest.mark.parametrize("case", range(len(REFERENCE_INTERVALS)))
def test_interval_matches_reference(case):
    pot, ref = REFERENCE_INTERVALS[case]
    r = np.array([-np.inf, -2.0, -1.0, -0.9, -0.3, -1e-300, -0.0, 0.0, 1e-300, 0.5, 0.9, 1.0,
                  3.0, np.inf, np.nan])
    for arg in (r, r.reshape(3, 5), 0.0, 0.9, -1.0):
        for new, old in zip(pot.interval(arg), ref(arg)):
            assert np.shape(new) == np.shape(old) and np.result_type(new) == np.result_type(old)
            assert np.array_equal(new, old, equal_nan=True)


def reference_zero_potential():
    """The earlier zero potential, a closure of its own: zeros of r's shape."""
    def ival(r):
        z = np.zeros_like(np.asarray(r, dtype=float))
        return z, z.copy()

    return NonsmoothPotential(ival, 0.0)


def test_zero_spec_is_the_zero_potential_bit_for_bit(model_p2):
    # the config spec `zero` builds abs_potential(0.0): the same intervals,
    # selections and eta as the closure it replaced, signed zeros included
    pot, ref = abs_potential(0.0), reference_zero_potential()
    rng = np.random.default_rng(20)
    r = np.concatenate([rng.standard_normal(40), [0.0, -0.0, np.nan, np.inf, -np.inf]])
    for arg in (r, r.reshape(5, 9)):
        for new, old in zip(pot.interval(arg), ref.interval(arg)):
            assert new.dtype == old.dtype and new.shape == old.shape
            assert np.array_equal(new.view(np.int64), old.view(np.int64))
    assert pot.eta == ref.eta == 0.0
    grid = TimeGrid(1.0, 16)
    states = rng.standard_normal((17, 8))
    states[0] = 0.0
    for previous in (None, np.full((17, model_p2.n_theta), -0.0)):
        for strategy in SELECTION_STRATEGIES:
            new = select(pot, strategy, grid, states, model_p2, previous=previous)
            old = select(ref, strategy, grid, states, model_p2, previous=previous)
            assert np.array_equal(new.view(np.int64), old.view(np.int64))


def reference_select(pot, strategy, grid, states, model, previous=None):
    """The earlier selection over the whole grid, with eta checked once per node."""
    lo, hi = pot.interval(basis_values(states, model.basis))
    if strategy == "midpoint":
        g = 0.5 * (lo + hi)
    elif strategy == "sign_zero":
        g = np.where((lo <= 0.0) & (hi >= 0.0), 0.0, 0.5 * (lo + hi))
    elif strategy == "sticky" and previous is not None:
        g = np.clip(previous, lo, hi)
    else:
        g = np.clip(0.0, lo, hi)
    assert not np.any(np.max(np.abs(g), axis=1) > pot.eta + 1e-12)
    return g


# nodes in one row block at 256 grid points (60 at a 120 KiB budget)
BLOCK_NODES = next(row_blocks(1 << 20, 256)).stop


@pytest.mark.parametrize("strategy", SELECTION_STRATEGIES)
# 2 BLOCK_NODES + 1 nodes at 256 grid points: two full row blocks, then one node
@pytest.mark.parametrize("steps", [32, 2 * BLOCK_NODES])
def test_selection_matches_reference(model_p2, strategy, steps):
    rng = np.random.default_rng(17)
    grid = TimeGrid(1.0, steps)
    states = rng.standard_normal((steps + 1, 8))
    states[0] = 0.0  # a zero row puts every grid point on the kink r = 0
    previous = rng.uniform(-1.0, 1.0, (steps + 1, model_p2.n_theta))
    cases = [(pot, NonsmoothPotential(ref, pot.eta)) for pot, ref in REFERENCE_INTERVALS]
    for pot, ref in cases + [(abs_potential(0.0), reference_zero_potential())]:
        for prev in (None, previous):
            new = select(pot, strategy, grid, states, model_p2, previous=prev)
            old = reference_select(ref, strategy, grid, states, model_p2, previous=prev)
            assert new.dtype == old.dtype and np.array_equal(new, old)


class TestFixedPoint:
    def test_zero_potential_converges_immediately(self, problem):
        model, gram, grid, x0, z = problem
        fp = fixed_point_iterate(model, gram, grid, 1e-2, abs_potential(0.0), z, x0)
        assert fp.converged
        assert fp.iterations == 1
        assert fp.fixed_point_residual <= 1e-14

    def test_small_lipschitz_contraction(self, problem):
        model, gram, grid, x0, z = problem
        pot = abs_potential(0.05)
        fp = fixed_point_iterate(model, gram, grid, 1e-2, pot, z, x0, tol=1e-8, max_iter=50)
        assert fp.converged
        assert fp.iterations <= 50
        assert fp.residuals[-1] <= 1e-8

    def test_self_consistency_of_fixed_point(self, problem):
        model, gram, grid, x0, z = problem
        pot = abs_potential(0.3)
        fp = fixed_point_iterate(model, gram, grid, 1e-2, pot, z, x0, tol=1e-8)
        assert fp.converged
        assert fp.fixed_point_residual <= 1e-8

    def test_exhaustion_is_flagged_not_raised(self, problem):
        model, gram, grid, x0, z = problem
        pot = abs_potential(0.3)
        fp = fixed_point_iterate(model, gram, grid, 1e-2, pot, z, x0, tol=1e-8, max_iter=1)
        assert not fp.converged
        assert fp.iterations == 1

    def test_a_priori_bound_respected(self, problem):
        from fracheat.control import a_priori_state_bound

        model, gram, grid, x0, z = problem
        pot = abs_potential(0.3)
        fp = fixed_point_iterate(model, gram, grid, 1e-2, pot, z, x0)
        dual_bound = math.pi ** (1.0 / model.dual_p) * pot.eta
        n0 = a_priori_state_bound(model, grid, 1e-2, z, x0, dual_bound)
        sup = np.max(lp_norms(fp.run.states, model.basis, 2.0))
        assert sup <= n0


def reference_fixed_point(model, gram, grid, epsilon, pot, z, x0, relaxation=0.5,
                          tol=1e-8, max_iter=80, full_steps=0):
    """The earlier fixed point: Krasnoselskii averaging at `relaxation` on
    every step.  `full_steps` > 0 takes that many undamped steps first, which
    replays a back-off after a given step.  Returns (run, gaps, converged)."""
    from fracheat.control import closed_loop_trajectory

    def run_for(g):
        return closed_loop_trajectory(model, gram, grid, epsilon, z, x0,
                                      forcing=project(model, g))

    g = np.zeros((grid.steps + 1, model.n_theta))
    run = run_for(g)
    gaps = []
    for it in range(1, max_iter + 1):
        omega = 1.0 if it <= full_steps else relaxation
        g_sel = reference_select(pot, "sticky", grid, run.states, model, previous=g)
        g_new = (1.0 - omega) * g + omega * g_sel
        run_new = run_for(g_new)
        gaps.append(float(np.max(lp_norms(run_new.states - run.states,
                                          model.basis, model.p))))
        g, run = g_new, run_new
        if gaps[-1] <= tol:
            return run, gaps, True
    return run, gaps, False


def terminal_miss(model, run, z):
    return float(lp_norms(run.states[-1] - z, model.basis, model.p)[0])


BUNDLED_EPS = (1e-1, 1e-2, 1e-3, 1e-4)
# a target from the benchmark's seed 14: at eps = 1e-3 one grid point sits on
# the kink and the selection chatters under either scheme
CHATTERING_TARGET = np.array([0.505639, 0.216207, -0.106082, 0, 0, 0, 0, 0])


class TestSafeguardedFixedPoint:
    @pytest.mark.parametrize("which", ["p2", "p4"])
    def test_full_steps_reach_the_averaged_fixed_point(self, request, which, grid_512):
        model = request.getfixturevalue(f"model_{which}")
        gram = request.getfixturevalue(f"gram_{which}")
        x0, z = bump_coefficients(8), np.array([0.6, 0.2, -0.1, 0, 0, 0, 0, 0])
        pot = abs_potential(0.3)
        for eps in BUNDLED_EPS:
            fp = fixed_point_iterate(model, gram, grid_512, eps, pot, z, x0, tol=1e-8)
            ref_run, ref_gaps, ref_converged = reference_fixed_point(
                model, gram, grid_512, eps, pot, z, x0)
            assert fp.converged and ref_converged
            assert fp.iterations <= 5 < len(ref_gaps)
            assert fp.fixed_point_residual <= 1e-8
            assert abs(terminal_miss(model, fp.run, z)
                       - terminal_miss(model, ref_run, z)) <= 1e-9

    def test_back_off_to_averaging_when_full_steps_stall(self, problem):
        model, gram, grid, x0, _ = problem
        pot = abs_potential(0.3)
        flags, ref_flags = [], []
        for eps in BUNDLED_EPS:
            fp = fixed_point_iterate(model, gram, grid, eps, pot, CHATTERING_TARGET, x0)
            flags.append(fp.converged)
            ref_flags.append(reference_fixed_point(model, gram, grid, eps, pot,
                                                   CHATTERING_TARGET, x0)[2])
            if eps != 1e-3:
                continue
            gaps = fp.residuals
            stall = next(k for k in range(1, len(gaps)) if gaps[k] >= gaps[k - 1])
            # full steps up to the first non-shrinking gap, averaging after it
            _, replay, _ = reference_fixed_point(model, gram, grid, eps, pot,
                                                 CHATTERING_TARGET, x0, full_steps=stall + 1)
            assert replay == gaps
            _, undamped, _ = reference_fixed_point(model, gram, grid, eps, pot,
                                                   CHATTERING_TARGET, x0, relaxation=1.0,
                                                   max_iter=stall + 2)
            assert undamped != gaps[: stall + 2]
        assert flags == ref_flags == [True, True, False, True]


def reference_fixed_point_iterate(model, gram, grid, epsilon, pot, z, x0, strategy="sticky",
                                  relaxation=0.5, tol=1e-8, max_iter=80):
    """The fixed point with every step's closed loop run: a settled full step
    too, then a closing selection over the whole grid decides the audit, in
    a second grid array.  Returns (g, run, residuals, iterations, converged,
    fixed_point_residual, closed_loops)."""
    from fracheat.control import closed_loop_trajectory

    def run_for(g):
        return closed_loop_trajectory(model, gram, grid, epsilon, z, x0,
                                      forcing=project(model, g))

    def gap(a, b):
        return float(np.max(lp_norms(a.states - b.states,
                                     model.basis, model.p)))

    g = np.zeros((grid.steps + 1, model.n_theta))
    g_sel = np.empty_like(g)
    run, loops = run_for(g), 1
    residuals, converged, iterations, omega = [], False, 0, 1.0
    for iterations in range(1, max_iter + 1):
        g_sel[...] = reference_select(pot, strategy, grid, run.states, model, previous=g)
        g *= 1.0 - omega
        g_sel *= omega
        g += g_sel
        run_new, loops = run_for(g), loops + 1
        residuals.append(gap(run_new, run))
        if len(residuals) > 1 and residuals[-1] >= residuals[-2]:
            omega = relaxation
        run = run_new
        if residuals[-1] <= tol:
            converged = True
            break
    g_select = reference_select(pot, strategy, grid, run.states, model, previous=g)
    if np.array_equal(g_select, g):
        g_select, fp_residual = g, 0.0
    else:
        fp_residual, loops = gap(run_for(g_select), run), loops + 1
    return g_select, run, residuals, iterations, converged, fp_residual, loops


SETTLE_POTENTIALS = {
    "abs": abs_potential(0.3),
    "sat": saturating_potential(0.3, cap=0.5),
    "zero": abs_potential(0.0),
    "table": tabulated_potential(BREAKS, VALUES),
}
SETTLE_CASES = (  # (model, strategy, potential, epsilon, max_iter, settles)
    [("p2", strategy, pot, 1e-2, 80, True) for strategy in SELECTION_STRATEGIES
     for pot in SETTLE_POTENTIALS]
    + [("p4", "sticky", "abs", 1e-3, 80, True), ("p4", "midpoint", "table", 1e-2, 80, True),
       ("p4", "sign_zero", "sat", 1e-2, 6, False),  # cut while its gap still shrinks
       ("chatter", "sticky", "abs", 1e-3, 12, False),  # backs off to averaging
       ("p2", "sticky", "abs", 1e-3, 1, False)]  # cut after one step whose selection moves
)


class TestSettledFixedPoint:
    @pytest.mark.parametrize("which,strategy,potential,eps,max_iter,settles", SETTLE_CASES)
    def test_matches_reference_loop(self, request, grid_512, which, strategy, potential, eps,
                                    max_iter, settles):
        model = request.getfixturevalue("model_p4" if which == "p4" else "model_p2")
        gram = request.getfixturevalue("gram_p4" if which == "p4" else "gram_p2")
        x0 = bump_coefficients(8)
        z = CHATTERING_TARGET if which == "chatter" else np.array([0.6, 0.2, -0.1, 0, 0, 0, 0, 0])
        pot = SETTLE_POTENTIALS[potential]
        fp = fixed_point_iterate(model, gram, grid_512, eps, pot, z, x0, strategy=strategy,
                                 max_iter=max_iter)
        g, run, residuals, iterations, converged, fp_residual, loops = \
            reference_fixed_point_iterate(model, gram, grid_512, eps, pot, z, x0,
                                          strategy=strategy, max_iter=max_iter)
        assert np.array_equal(fp.g, g)
        assert np.array_equal(fp.run.states, run.states)
        assert np.array_equal(fp.run.control, run.control)
        assert (fp.residuals, fp.iterations, fp.converged, fp.fixed_point_residual) == (
            residuals, iterations, converged, fp_residual)
        # a settled solve skips the closed loop of its last step, and only that
        settled = fp.converged and fp.residuals[-1] == 0.0
        assert fp.closed_loops == loops - settled
        assert settled == settles

    def test_solve_holds_one_grid_array(self):
        # one 4096-step solve peaks at ~1.5 grid arrays: the iterate plus row
        # blocks and the closed loops' own arrays; a second, whole-grid
        # selection buffer puts it at ~2.5
        exp = build_experiment(load_config(CONFIG_PATH, ["solver.steps=4096"]),
                               CONFIG_PATH.parent)
        gram = assemble_gramian(exp.model, exp.grid)
        mild_solution(exp.model, exp.grid, exp.x0)  # the grid's shared propagator tables
        grid_array = (exp.grid.steps + 1) * exp.model.n_theta * 8
        fp, peak = traced_peak(lambda: fixed_point_iterate(exp.model, gram, exp.grid, 1e-3,
                                                           exp.potential, exp.target, exp.x0))
        assert fp.converged and fp.closed_loops == fp.iterations
        assert peak < 1.6 * grid_array

    @pytest.mark.parametrize("settings", [[], ["model.p=4"]])
    def test_audit_adds_no_grid_array(self, settings):
        # on the bundled model, a settled solve and a solve cut before it
        # settles, whose audit runs on the iterate's own array, both hold one
        # grid array; the row blocks and the closed loops' own arrays stay
        # under 1.25 MB (a second audit array put the cut solve at 2 arrays)
        exp = build_experiment(load_config(CONFIG_PATH, settings), CONFIG_PATH.parent)
        gram = assemble_gramian(exp.model, exp.grid)
        mild_solution(exp.model, exp.grid, exp.x0)  # the grid's shared propagator tables
        grid_array = (exp.grid.steps + 1) * exp.model.n_theta * 8
        for max_iter, settles in ((80, True), (1, False)):
            fp, peak = traced_peak(lambda: fixed_point_iterate(
                exp.model, gram, exp.grid, 1e-3, exp.potential, exp.target, exp.x0,
                max_iter=max_iter))
            settled = fp.converged and fp.residuals[-1] == 0.0
            assert settled == settles
            assert fp.closed_loops == fp.iterations + (0 if settled else 2)
            assert peak <= grid_array + 1.25 * 2**20


class TestSweep:
    def test_zero_potential_matches_linear_formula(self, problem):
        model, gram, grid, x0, z = problem
        entries = [e for e, _ in epsilon_sweep(model, gram, grid, abs_potential(0.0), z, x0,
                                               [1e-1, 1e-2, 1e-3])]
        free = mild_solution(model, grid, x0)
        d = z - free[-1]
        for entry in entries:
            w = np.linalg.solve(entry.epsilon * np.eye(8) + gram, d)
            closed_form, = lp_norms(entry.epsilon * w, model.basis, 2.0)
            assert entry.terminal_miss == pytest.approx(closed_form, rel=1e-8)
            assert entry.identity_residual <= 1e-10

    def test_epsilon_halving_decreases_miss(self, problem):
        model, gram, grid, x0, z = problem
        eps = [0.1 * 0.5**j for j in range(6)]
        entries = [e for e, _ in epsilon_sweep(model, gram, grid, abs_potential(0.0), z, x0, eps)]
        misses = [e.terminal_miss for e in entries]
        assert all(a > b for a, b in zip(misses, misses[1:]))

    def test_nonsmooth_sweep_two_resolutions(self, model_p2):
        # property check: miss decreases toward zero, reproduced on a coarser grid
        pot = abs_potential(0.3)
        x0 = bump_coefficients(4)
        z = np.array([0.6, 0.2, -0.1, 0.0])
        results = {}
        for steps, n_theta in ((256, 128), (128, 64)):
            from fracheat.spectral import build_model

            model = build_model(4, ORDER, None, None, 2.0, n_theta)
            grid = TimeGrid(1.0, steps)
            gram = assemble_gramian(model, grid)
            entries = [e for e, _ in epsilon_sweep(model, gram, grid, pot, z,
                                                   bump_coefficients(4, n_theta),
                                                   [1e-1, 1e-2, 1e-3])]
            misses = [e.terminal_miss for e in entries]
            assert all(e.converged for e in entries)
            assert all(a > b for a, b in zip(misses, misses[1:]))
            results[steps] = misses
        for fine, coarse in zip(results[256], results[128]):
            assert abs(fine - coarse) <= 0.1 * max(fine, coarse)

    def test_holds_one_epsilon_at_a_time(self):
        # each fixed point dropped before the next epsilon, as `cli.cmd_sweep`
        # drops it: about 4 MB, against 12 MB while every epsilon's
        # selection and iterate stayed alive
        exp = build_experiment(load_config(CONFIG_PATH), CONFIG_PATH.parent)
        gram = assemble_gramian(exp.model, exp.grid)

        def sweep():
            for entry, result in epsilon_sweep(
                    exp.model, gram, exp.grid, exp.potential, exp.target, exp.x0,
                    exp.epsilons, strategy=exp.strategy, relaxation=exp.relaxation,
                    tol=exp.fixed_point_tol, max_iter=exp.fixed_point_max_iter,
                    resolvent_tol=exp.resolvent_tol,
                    resolvent_max_iter=exp.resolvent_max_iter):
                assert entry.converged and result is not None
                del result

        _, peak = traced_peak(sweep)
        assert peak <= 6e6

    def test_guards(self, problem):
        model, gram, grid, x0, z = problem
        # the list is checked on the call, before anything iterates the sweep
        with pytest.raises(ValueError):
            epsilon_sweep(model, gram, grid, abs_potential(0.0), z, x0, [1e-2, 1e-1])
        with pytest.raises(ValueError):
            epsilon_sweep(model, gram, grid, abs_potential(0.0), z, x0, [1e-1, 1e-6])
        with pytest.raises(ValueError):
            epsilon_sweep(model, gram, grid, abs_potential(0.0), z, x0, [])
        assert check_epsilons([1e-1, 1e-5]) == [0.1, 1e-5]
        with pytest.raises(ValueError, match="1e-5"):
            check_epsilons([1e-1, 1e-6])
        for bad in ([math.nan], [math.inf], [1e-1, math.nan], [math.inf, 1e-1]):
            with pytest.raises(ValueError, match="sweep.epsilons must be finite"):
                check_epsilons(bad)

    def test_csv_shape(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(default_config_text())
        settings = ["model.modes=4", "solver.steps=96", "solver.n_theta=64",
                    "sweep.epsilons=1e-1, 1e-2", "problem.potential=zero"]
        assert main(["sweep", str(config)] + [a for s in settings for a in ("--set", s)]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("# fracheat=")
        assert lines[1] == "epsilon,terminal_miss,control_energy,iterations,converged"
        assert len(lines) == 2 + 2
        assert [line.split(",")[0] for line in lines[2:]] == ["0.1", "0.01"]


class TestHviResidual:
    def test_zero_potential_trivial(self, problem):
        model, gram, grid, x0, z = problem
        traj = mild_solution(model, grid, x0)
        g = np.zeros((grid.steps + 1, model.n_theta))
        dirs = np.eye(8)
        assert hvi_residual(model, traj, g, abs_potential(0.0), dirs) <= 1e-14

    def test_converged_run_satisfies_inequality(self, problem):
        model, gram, grid, x0, z = problem
        pot = abs_potential(0.3)
        fp = fixed_point_iterate(model, gram, grid, 1e-2, pot, z, x0)
        rng = np.random.default_rng(7)
        dirs = np.vstack([rng.standard_normal((31, 8)), np.eye(8)[0]])
        assert hvi_residual(model, fp.run.states, fp.g, pot, dirs) <= 1e-8

    def test_adversarial_forcing_flagged(self, problem):
        model, gram, grid, x0, z = problem
        pot = abs_potential(0.3)
        fp = fixed_point_iterate(model, gram, grid, 1e-2, pot, z, x0)
        rng = np.random.default_rng(7)
        dirs = np.vstack([rng.standard_normal((31, 8)), np.eye(8)[0]])
        bad = fp.g + 1.0  # pointwise outside the derivative interval
        assert hvi_residual(model, fp.run.states, bad, pot, dirs) > 1e-3


def test_free_terminal_miss(problem):
    model, gram, grid, x0, z = problem
    free = mild_solution(model, grid, x0)
    want = lp_norm(basis_matrix(8, 256) @ (z - free[-1]), 2.0)
    assert free_terminal_miss(model, grid, z, x0) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("settings", [
    [], ["model.p=4"], ["model.modes=16", "problem.target=sine:3:0.7"]])
def test_free_terminal_miss_is_the_free_runs_terminal_miss(settings):
    # the deficiency's terminal sum against the full free trajectory, bit for bit
    exp = build_experiment(load_config(CONFIG_PATH, settings), CONFIG_PATH.parent)
    free = mild_solution(exp.model, exp.grid, exp.x0)
    want, = lp_norms(exp.target - free[-1], exp.model.basis, exp.model.p)
    assert free_terminal_miss(exp.model, exp.grid, exp.target, exp.x0) == float(want)


@pytest.mark.parametrize("alpha,p", [(0.6, 2.0), (0.9, 4.0)])
def test_pipeline_away_from_reference_order(alpha, p):
    # nothing in the chain is specific to the bundled fractional order
    from fracheat.fracops import FracOrder
    from fracheat.spectral import build_model

    order = FracOrder(alpha, alpha / 2.0)
    model = build_model(4, order, None, None, p, 64)
    grid = TimeGrid(1.0, 96)
    gram = assemble_gramian(model, grid)
    x0 = bump_coefficients(4, 64)
    z = np.array([0.5, 0.1, 0.0, 0.0])
    fp = fixed_point_iterate(model, gram, grid, 1e-2, abs_potential(0.2), z, x0)
    assert fp.converged
    from fracheat.control import terminal_identity_residual

    assert terminal_identity_residual(fp.run, model, z) <= 1e-6
    miss, = lp_norms(fp.run.states[-1] - z, model.basis, p)
    assert miss < free_terminal_miss(model, grid, z, x0)
