import math
import time
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

import fracheat.fracops as fracops
from fracheat.fracops import FracOrder, TimeGrid, l1_coefficients, ml_family, row_blocks
from fracheat.cli import _write_node_table
from fracheat.evolve import l1_reference, mild_solution
from fracheat.spectral import SpectralModel, build_model

from conftest import ORDER


@pytest.fixture(scope="module")
def model4():
    return build_model(4, ORDER, None, None, 2.0, 256)


def smooth_forcing(grid, amplitudes):
    return np.outer(np.sin(2.0 * grid.nodes) + 1.5, amplitudes)


def synthetic_single_mode(eigenvalue: float) -> SpectralModel:
    return SpectralModel(
        n_modes=1,
        order=ORDER,
        p=2.0,
        n_theta=256,
        eigenvalues=np.array([eigenvalue]),
        b_matrix=np.array([[1.0]]),
        h_matrix=np.array([[1.0]]),
        b_norm_bound=1.0,
        h_norm_bound=1.0,
    )


class TestMildSolution:
    def test_homogeneous_is_exact_relaxation(self, model4):
        grid = TimeGrid(1.0, 64)
        x0 = np.array([1.0, -0.5, 0.25, 2.0])
        traj = mild_solution(model4, grid, x0)
        want = ml_family(0.75, (1.0,), model4.eigenvalues * grid.nodes[:, None] ** 0.75)[0] * x0
        assert np.allclose(traj, want, atol=1e-13)

    def test_constant_forcing_single_mode_analytic(self, model4):
        grid = TimeGrid(1.0, 512)
        x0 = np.array([0.7, 0.0, 0.0, 0.0])
        c = 1.3
        forcing = np.tile(np.array([c, 0.0, 0.0, 0.0]), (grid.steps + 1, 1))
        traj = mild_solution(model4, grid, x0, forcing=forcing)
        e_state, e_ratio = ml_family(0.75, (1.0, 1.75), np.array([-1.0]))
        want = e_state[0] * 0.7 + c * e_ratio[0]
        err = abs(traj[-1][0] - want)
        assert err <= 1e-4  # contract tolerance at 512 steps
        assert err <= 1e-10  # endpoint-anchored rule is exact for constants

    def test_zero_eigenvalue_reduces_to_fractional_integral(self):
        model = synthetic_single_mode(0.0)
        grid = TimeGrid(1.0, 64)
        c = 2.4
        forcing = np.full((grid.steps + 1, 1), c)
        traj = mild_solution(model, grid, np.zeros(1), forcing=forcing)
        for k, t in enumerate(grid.nodes):
            want = c * t**0.75 / math.gamma(1.75)
            assert traj[k][0] == pytest.approx(want, abs=1e-12)

    def test_superposition(self, model4):
        rng = np.random.default_rng(8)
        grid = TimeGrid(1.0, 128)
        x0 = rng.standard_normal(4)
        f1 = rng.standard_normal((129, 4))
        f2 = rng.standard_normal((129, 4))
        u1 = rng.standard_normal((129, 4))
        a, b = 0.7, -1.9
        combined = mild_solution(model4, grid, a * x0, forcing=a * f1 + b * f2, control=a * u1)
        t1 = mild_solution(model4, grid, x0, forcing=f1, control=u1)
        t2 = mild_solution(model4, grid, np.zeros(4), forcing=f2)
        gap = np.abs(combined - (a * t1 + b * t2)).max()
        assert gap <= 1e-10

    def test_terminal_cauchy_refinement(self, model4):
        rng = np.random.default_rng(12)
        amp = rng.standard_normal(4)
        terminals = []
        for steps in (128, 256, 512):
            grid = TimeGrid(1.0, steps)
            forcing = smooth_forcing(grid, amp)
            control = np.outer(np.cos(grid.nodes), amp[::-1])
            traj = mild_solution(model4, grid, np.zeros(4), forcing=forcing, control=control)
            terminals.append(traj[-1])
        d1 = np.linalg.norm(terminals[1] - terminals[0])
        d2 = np.linalg.norm(terminals[2] - terminals[1])
        assert d2 < d1
        assert d1 / d2 >= 1.8  # at least first-order decay of the increments

    @pytest.mark.parametrize("solver", [mild_solution, l1_reference])
    @pytest.mark.parametrize("inputs,message", [
        ({"x0": np.zeros(3)}, "x0 must have shape (4,), got (3,)"),
        ({"forcing": np.zeros((5, 4))}, "forcing must have shape (17, 4), got (5, 4)"),
        ({"control": np.zeros((17, 3))}, "control must have shape (17, 4), got (17, 3)"),
        ({"forcing": np.zeros(4), "control": np.zeros(4)},
         "forcing must have shape (17, 4), got (4,)"),
    ], ids=["x0-short", "forcing-rows", "control-modes", "forcing-first"])
    def test_shape_guards(self, model4, solver, inputs, message):
        """Both solvers reject a wrong-shaped x0, forcing or control with one
        message naming the input, checked in that order."""
        with pytest.raises(ValueError) as err:
            solver(model4, TimeGrid(1.0, 16), **{"x0": np.zeros(4), **inputs})
        assert str(err.value) == message


@lru_cache(maxsize=2)
def green_model(n_modes):
    return build_model(n_modes, ORDER, None, None, 2.0, 256)


def reference_l1_starting_weights(alpha, steps):
    """`evolve._l1_starting_weights` as it was, with `np.convolve`."""
    b = l1_coefficients(alpha, steps)
    k = np.arange(0, steps + 1, dtype=float)
    g2m = math.gamma(2.0 - alpha)
    d = np.zeros(steps + 1)
    d[1:] = k[1:] ** alpha - k[:-1] ** alpha
    r1 = math.gamma(1.0 + alpha) - np.convolve(b, d)[: steps + 1] / g2m
    if 2.0 * alpha > 1.7:
        return r1, np.zeros(steps + 1)
    d2 = np.zeros(steps + 1)
    d2[1:] = k[1:] ** (2.0 * alpha) - k[:-1] ** (2.0 * alpha)
    gam2 = math.gamma(2.0 * alpha + 1.0) / math.gamma(alpha + 1.0)
    r2 = gam2 * k**alpha - np.convolve(b, d2)[: steps + 1] / g2m
    tau2 = (r2 - r1) / (2.0 ** (2.0 * alpha) - 2.0**alpha)
    return r1 - (2.0**alpha - 2.0) * tau2, tau2


def reference_l1(model, grid, x0, forcing=None, control=None):
    """`l1_reference` as it was: the 2x2 start, then a Python loop over the
    nodes with an O(k) history sum per step."""
    alpha, lam, n = model.order.alpha, model.eigenvalues, model.n_modes
    c = 1.0 / (grid.dt**alpha * math.gamma(2.0 - alpha))
    b = l1_coefficients(alpha, grid.steps)
    tau1, tau2 = reference_l1_starting_weights(alpha, grid.steps)
    s1 = tau1 / grid.dt**alpha
    s2 = tau2 / grid.dt**alpha

    def inhomogeneity(k):
        w = np.zeros(n)
        if forcing is not None:
            w = w + forcing[k]
        if control is not None:
            w = w + control[k]
        return w

    states = np.empty((grid.steps + 1, n))
    states[0] = x0
    a11 = c + s1[1] - 2.0 * s2[1] - lam
    a12 = np.full(n, s2[1])
    a21 = np.full(n, c * (b[1] - 1.0) + s1[2] - 2.0 * s2[2])
    a22 = c + s2[2] - lam
    r1 = (c + s1[1] - s2[1]) * x0 + inhomogeneity(1)
    r2 = (c * b[1] + s1[2] - s2[2]) * x0 + inhomogeneity(2)
    det = a11 * a22 - a12 * a21
    states[1] = (r1 * a22 - a12 * r2) / det
    states[2] = (a11 * r2 - a21 * r1) / det
    increments = np.zeros((grid.steps, n))
    increments[0] = states[1] - states[0]
    increments[1] = states[2] - states[1]
    d1 = states[1] - states[0]
    d2 = states[2] - 2.0 * states[1] + states[0]
    for k in range(3, grid.steps + 1):
        hist = np.einsum("j,jn->n", b[1:k], increments[k - 2 :: -1][: k - 1])
        rhs = c * (states[k - 1] - hist) - s1[k] * d1 - s2[k] * d2 + inhomogeneity(k)
        states[k] = rhs / (c - lam)
        increments[k - 1] = states[k] - states[k - 1]
    return states


class TestL1Reference:
    @pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
    @pytest.mark.parametrize("n_modes,steps", [(8, 512), (8, 4096), (64, 512), (64, 4096)])
    def test_toeplitz_solve_matches_the_node_loop(self, alpha, n_modes, steps):
        """The series-inverse solve and the FFT starting weights against the
        loop and `np.convolve` they replaced: they sum in another order, so
        agreement is to 1e-12 of the largest state, not bitwise."""
        model = replace(green_model(n_modes), order=FracOrder(alpha, 0.4))  # alpha-free build
        grid = TimeGrid(1.0, steps)
        rng = np.random.default_rng(steps + n_modes)
        x0 = rng.standard_normal(n_modes)
        forcing = smooth_forcing(grid, rng.standard_normal(n_modes))
        control = np.outer(np.cos(3.0 * grid.nodes), rng.standard_normal(n_modes))
        new = l1_reference(model, grid, x0, forcing=forcing, control=control)
        ref = reference_l1(model, grid, x0, forcing=forcing, control=control)
        assert np.abs(new - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_column_blocks_are_bitwise_the_whole_solve(self, monkeypatch):
        # the modes are independent: blocks of 8 columns and of 1 (the budget's
        # own at 16385 nodes) give the bits of one solve over all 64
        model, grid = green_model(64), TimeGrid(1.0, 16384)
        rng = np.random.default_rng(64)
        x0 = rng.standard_normal(64)
        forcing = smooth_forcing(grid, rng.standard_normal(64))
        control = np.outer(np.cos(3.0 * grid.nodes), rng.standard_normal(64))
        assert next(row_blocks(64, grid.steps + 1)) == slice(0, 1)
        blocked = {}
        for width in (1, 8, 64):
            monkeypatch.setattr(fracops, "_BLOCK_BYTES", 8 * width * (grid.steps + 1))
            assert next(row_blocks(64, grid.steps + 1)) == slice(0, width)
            blocked[width] = l1_reference(model, grid, x0, forcing=forcing, control=control)
        for width in (1, 8):
            assert np.array_equal(blocked[width].view(np.int64), blocked[64].view(np.int64))

    @pytest.mark.parametrize("steps", [2, 3, 4, 5])
    def test_shortest_grids_match_the_node_loop(self, model4, steps):
        grid = TimeGrid(1.0, steps)
        x0 = np.array([1.0, -0.5, 0.25, 2.0])
        forcing = smooth_forcing(grid, np.array([0.3, -1.0, 0.5, 2.0]))
        new = l1_reference(model4, grid, x0, forcing=forcing)
        ref = reference_l1(model4, grid, x0, forcing=forcing)
        assert np.abs(new - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_fine_grid_runs_in_well_under_a_second(self):
        # the node loop with the O(N^2) starting weights took 1.1-2.5 s cold on a 2-vCPU VM
        model = build_model(8, ORDER, None, None, 2.0, 256)
        grid = TimeGrid(1.0, 16384)
        forcing = smooth_forcing(grid, np.linspace(-1.0, 1.0, 8))
        started = time.perf_counter()
        ref = l1_reference(model, grid, np.linspace(0.5, -0.5, 8), forcing=forcing)
        assert time.perf_counter() - started <= 1.0
        assert np.all(np.isfinite(ref))

    def test_zero_data_tracks_relaxation(self, model4):
        # scheme error of the corrected L1 on the stiff relaxation: the sup is
        # taken in the startup region; away from it the agreement is much
        # tighter (terminal checked separately)
        grid = TimeGrid(1.0, 512)
        x0 = np.array([1.0, -0.5, 0.25, 2.0])
        mild = mild_solution(model4, grid, x0)
        ref = l1_reference(model4, grid, x0)
        assert np.abs(mild - ref).max() <= 2e-2
        assert np.abs(mild[-1] - ref[-1]).max() <= 5e-3

    def test_cross_solver_agreement(self, model4):
        rng = np.random.default_rng(42)
        amp = rng.standard_normal(4)
        rels = []
        for steps in (128, 256, 512):
            grid = TimeGrid(1.0, steps)
            forcing = smooth_forcing(grid, amp)
            mild = mild_solution(model4, grid, np.zeros(4), forcing=forcing)
            ref = l1_reference(model4, grid, np.zeros(4), forcing=forcing)
            gap = np.sqrt(((mild - ref) ** 2).sum(axis=1)).max()
            scale = np.sqrt((mild**2).sum(axis=1)).max()
            rels.append(gap / scale)
        assert rels[-1] <= 1e-3
        # observed order on the terminal-state gap over three levels
        terms = []
        for steps in (128, 256, 512):
            grid = TimeGrid(1.0, steps)
            forcing = smooth_forcing(grid, amp)
            mild = mild_solution(model4, grid, np.zeros(4), forcing=forcing)
            ref = l1_reference(model4, grid, np.zeros(4), forcing=forcing)
            terms.append(np.linalg.norm(mild[-1] - ref[-1]))
        assert math.log2(terms[0] / terms[2]) / 2.0 >= 1.0

    def test_classical_limit(self):
        order = FracOrder(0.999, 0.4)
        model = build_model(4, order, None, None, 2.0, 256)
        grid = TimeGrid(1.0, 512)
        x0 = np.array([1.0, -0.5, 0.25, 2.0])
        ref = l1_reference(model, grid, x0)
        classic = np.array([np.exp(model.eigenvalues * t) * x0 for t in grid.nodes])
        assert np.abs(ref - classic).max() <= 1e-2


class TestTrajectoryIO:
    @pytest.mark.parametrize("solver", [mild_solution, l1_reference])
    def test_solvers_return_the_states_array(self, model4, solver):
        grid = TimeGrid(1.0, 16)
        states = solver(model4, grid, np.array([1.0, 0.0, 0.0, 0.0]),
                        forcing=np.ones((17, 4)), control=np.ones((17, 4)))
        assert type(states) is np.ndarray
        assert states.shape == (grid.steps + 1, 4) and states.dtype == np.float64

    def test_csv(self, model4, tmp_path):
        grid = TimeGrid(1.0, 8)
        traj = mild_solution(model4, grid, np.array([1.0, 0.0, 0.0, 0.0]))
        path = tmp_path / "trajectory.csv"
        _write_node_table(path, ("origin=test",), grid.nodes, "c", traj)
        text = path.read_text()
        assert text.startswith("# origin=test")
        assert text.count("\n") == 2 + grid.steps + 1
