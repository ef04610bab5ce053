"""Acceptance gate: every criterion at its stated tolerance, desk scale
(N <= 16 modes, 512 time steps, 256 spatial points).  Each test prints one
pass/fail line; the bundled configuration drives the controllability study.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from fracheat.config import build_experiment, load_config
from fracheat.control import (
    closed_loop_trajectory,
    regularized_resolvent,
    terminal_identity_residual,
)
from fracheat.evolve import l1_reference, mild_solution
from fracheat.fracops import TimeGrid, ml_family
from fracheat.gramian import assemble_gramian, verify_gramian
from fracheat.hvi import abs_potential, epsilon_sweep, free_terminal_miss, hvi_residual
from fracheat.lpspace import lp_norms

from conftest import bump_coefficients, caputo_at, density_on_gauss_grid, ml_oracle, rl_integral_at

CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "heat_default.cfg"


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def bundled_sweeps():
    """Regularization sweeps of the bundled configuration at p in {2, 4} and
    two grid resolutions."""
    out = {}
    for p in (2.0, 4.0):
        for steps, n_theta in ((512, 256), (256, 128)):
            cfg = load_config(CONFIG_PATH, [
                f"model.p={p}", f"solver.steps={steps}", f"solver.n_theta={n_theta}",
            ])
            exp = build_experiment(cfg, CONFIG_PATH.parent)
            gram = assemble_gramian(exp.model, exp.grid)
            entries, results = map(list, zip(*epsilon_sweep(
                exp.model, gram, exp.grid, exp.potential, exp.target, exp.x0,
                exp.epsilons, strategy=exp.strategy, relaxation=exp.relaxation,
                tol=exp.fixed_point_tol, max_iter=exp.fixed_point_max_iter,
                resolvent_tol=exp.resolvent_tol,
                resolvent_max_iter=exp.resolvent_max_iter,
            )))
            free = free_terminal_miss(exp.model, exp.grid, exp.target, exp.x0)
            out[(p, steps)] = {
                "experiment": exp,
                "gramian": gram,
                "entries": entries,
                "results": results,
                "free_miss": free,
            }
    return out


def test_criterion_1_special_functions():
    z = np.linspace(-5.0, 1.0, 61)
    worst_exp = float(np.max(np.abs(ml_family(1.0, (1.0,), z)[0] - np.exp(z)) / np.exp(z)))
    worst_mass = 0.0
    worst_sub = 0.0
    for alpha in (0.6, 0.75, 0.9):
        tau, w, vals = density_on_gauss_grid(alpha)
        worst_mass = max(worst_mass, abs(float(w @ vals) - 1.0))
        lam = 1.0
        first = float(w @ (vals * np.exp(-lam * tau))) - ml_oracle(alpha, 1.0, -lam)
        second = alpha * float(w @ (tau * vals * np.exp(-lam * tau))) - ml_oracle(
            alpha, alpha, -lam
        )
        worst_sub = max(worst_sub, abs(first), abs(second))
    ok = worst_exp <= 1e-10 and worst_mass <= 1e-6 and worst_sub <= 1e-6
    report(1, "special functions", ok,
           f"exp defect {worst_exp:.2e}, mass defect {worst_mass:.2e}, "
           f"subordination defect {worst_sub:.2e}")


def test_criterion_2_fractional_calculus():
    worst_int = 0.0
    for alpha in (0.6, 0.75, 0.9):
        grid = TimeGrid(1.0, 64)
        ones = np.ones(grid.steps + 1)
        for t, k in ((0.25, 16), (0.5, 32), (1.0, 64)):
            want = t**alpha / math.gamma(alpha + 1.0)
            worst_int = max(worst_int, abs(rl_integral_at(ones, grid.dt, alpha, k) - want) / want)
    alpha = 0.75
    grid = TimeGrid(1.0, 512)
    got = caputo_at(grid.nodes.copy(), grid.dt, alpha, 512)
    want = 1.0 / math.gamma(2.0 - alpha)
    linear_err = abs(got - want)
    # refinement order measured on the first non-exact monomial t^2
    errs = []
    for steps in (128, 256, 512):
        g = TimeGrid(1.0, steps)
        got2 = caputo_at(g.nodes**2, g.dt, alpha, steps // 2)
        want2 = 2.0 * 0.5 ** (2.0 - alpha) / math.gamma(3.0 - alpha)
        errs.append(abs(got2 - want2))
    order = math.log2(errs[0] / errs[2]) / 2.0
    ok = worst_int <= 1e-10 and linear_err <= 1e-4 and order >= 1.0
    report(2, "fractional calculus", ok,
           f"integral defect {worst_int:.2e}, L1 defect {linear_err:.2e}, order {order:.2f}")


def test_criterion_3_operator_families(model_p2, grid_512):
    rng = np.random.default_rng(2024)
    m = model_p2.m_bound
    alpha = model_p2.order.alpha
    bound_t = m / math.gamma(alpha)
    worst_s = 0.0
    worst_t = 0.0
    for _ in range(1000):
        t = rng.uniform(0.0, grid_512.horizon)
        x = rng.standard_normal(model_p2.n_modes)
        # state (beta = 1) and Duhamel (beta = alpha) multipliers at t
        s, f = ml_family(alpha, (1.0, alpha), model_p2.eigenvalues * t**alpha)
        nx, ns, nt = lp_norms([x, s * x, f * x], model_p2.basis, 2.0)
        worst_s = max(worst_s, float(ns / nx))
        worst_t = max(worst_t, float(nt / nx))
    diag_defect = max(
        abs(model_p2.b_matrix[n - 1, n - 1] - math.pi / n**2) for n in range(1, 9)
    )
    off = model_p2.b_matrix - np.diag(np.diag(model_p2.b_matrix))
    diag_defect = max(diag_defect, float(np.max(np.abs(off))))
    ok = (
        worst_s <= m * (1.0 + 1e-12)
        and worst_t <= bound_t * (1.0 + 1e-12)
        and diag_defect <= 1e-8
    )
    report(3, "operator families", ok,
           f"sup |S| {worst_s:.9f} <= {m}, sup |T| {worst_t:.9f} <= {bound_t:.6f}, "
           f"kernel defect {diag_defect:.2e}")


def test_criterion_4_gramian(model_p2, gram_p2, grid_512):
    rep = verify_gramian(gram_p2, model_p2, grid_512, n_samples=100, seed=7)
    ok = (
        rep.symmetry_defect <= 1e-10
        and rep.min_eigenvalue >= -1e-10
        and rep.quadratic_form_gap <= 1e-8
        and rep.norm_bound_slack <= 1.0
    )
    report(4, "gramian", ok,
           f"symmetry {rep.symmetry_defect:.2e}, min eig {rep.min_eigenvalue:.2e}, "
           f"form gap {rep.quadratic_form_gap:.2e}, bound slack {rep.norm_bound_slack:.3f}")


def test_criterion_5_resolvent(model_p2, gram_p2, model_p4, gram_p4):
    rng = np.random.default_rng(5)
    worst_lemma = 0.0
    for model, gram in ((model_p2, gram_p2), (model_p4, gram_p4)):
        for eps in (1e-3, 1e-2, 1e-1, 1.0):
            for _ in range(25):
                y = rng.standard_normal(8)
                solve = regularized_resolvent(gram, model, eps, y)
                image, source = lp_norms([eps * solve.result, y], model.basis, model.p)
                worst_lemma = max(worst_lemma, float(image / source))
    from test_control import conjugate_gradient_resolvent, fd_newton_oracle

    worst_hilbert = 0.0
    for eps in (1e-2, 1e-1):
        y = rng.standard_normal(8)
        direct = regularized_resolvent(gram_p2, model_p2, eps, y)
        iterative = conjugate_gradient_resolvent(gram_p2, eps, y)
        worst_hilbert = max(worst_hilbert, float(np.max(np.abs(direct.result - iterative))))

    worst_newton = 0.0
    for seed in range(5):
        y = np.random.default_rng(100 + seed).standard_normal(8)
        solve = regularized_resolvent(gram_p4, model_p4, 0.1, y, tol=1e-12)
        for start_seed in range(2):
            start = np.random.default_rng(start_seed).standard_normal(8)
            oracle = fd_newton_oracle(gram_p4, model_p4, 0.1, y, start)
            worst_newton = max(worst_newton, float(np.max(np.abs(solve.result - oracle))))
    ok = worst_lemma <= 1.0 + 1e-8 and worst_hilbert <= 1e-10 and worst_newton <= 1e-8
    report(5, "resolvent", ok,
           f"lemma ratio {worst_lemma:.9f}, hilbert gap {worst_hilbert:.2e}, "
           f"newton-oracle gap {worst_newton:.2e}")


def test_criterion_6_cross_solver(model_p2):
    rng = np.random.default_rng(42)
    amp = rng.standard_normal(4)
    model = model_p2
    grid = TimeGrid(1.0, 512)
    forcing = np.outer(np.sin(2.0 * grid.nodes) + 1.5, rng.standard_normal(8))
    mild = mild_solution(model, grid, np.zeros(8), forcing=forcing)
    ref = l1_reference(model, grid, np.zeros(8), forcing=forcing)
    gap = float(np.max(lp_norms(mild - ref, model.basis, 2.0)))
    scale = float(np.max(lp_norms(mild, model.basis, 2.0)))
    rel_gap = gap / scale
    x0 = rng.standard_normal(8)
    f1 = rng.standard_normal((513, 8))
    u1 = rng.standard_normal((513, 8))
    a_, b_ = 0.7, -1.9
    combined = mild_solution(model, grid, a_ * x0, forcing=a_ * f1, control=b_ * u1)
    part1 = mild_solution(model, grid, x0, forcing=f1)
    part2 = mild_solution(model, grid, np.zeros(8), control=u1)
    lin_gap = float(np.max(np.abs(combined - (a_ * part1 + b_ * part2))))
    ok = rel_gap <= 1e-3 and lin_gap <= 1e-10
    report(6, "cross-solver", ok, f"relative gap {rel_gap:.2e}, superposition {lin_gap:.2e}")


def test_criterion_7_terminal_identity(bundled_sweeps, model_p2, gram_p2, grid_512):
    x0 = bump_coefficients(8)
    z = np.zeros(8)
    z[0] = 0.6
    z[1] = 0.2
    z[2] = -0.1
    linear_run = closed_loop_trajectory(model_p2, gram_p2, grid_512, 1e-2, z, x0)
    linear_res = terminal_identity_residual(linear_run, model_p2, z)
    worst_nonsmooth = 0.0
    for data in bundled_sweeps.values():
        for entry in data["entries"]:
            if entry.converged:
                worst_nonsmooth = max(worst_nonsmooth, entry.identity_residual)
    ok = linear_res <= 1e-6 and worst_nonsmooth <= 1e-5
    report(7, "terminal-state identity", ok,
           f"linear {linear_res:.2e} <= 1e-6, nonsmooth {worst_nonsmooth:.2e} <= 1e-5")


def test_criterion_8_approximate_controllability(bundled_sweeps):
    details = []
    ok = True
    for p in (2.0, 4.0):
        fine = bundled_sweeps[(p, 512)]
        coarse = bundled_sweeps[(p, 256)]
        for data in (fine, coarse):
            misses = [e.terminal_miss for e in data["entries"]]
            ok = ok and all(e.converged for e in data["entries"])
            ok = ok and all(a > b for a, b in zip(misses, misses[1:]))
        final_ratio = fine["entries"][-1].terminal_miss / fine["free_miss"]
        ok = ok and final_ratio <= 0.05
        for ef, ec in zip(fine["entries"], coarse["entries"]):
            rel = abs(ef.terminal_miss - ec.terminal_miss) / max(
                ef.terminal_miss, ec.terminal_miss
            )
            ok = ok and rel <= 0.10
        details.append(f"p={p}: final/free {final_ratio:.3%}")
    report(8, "approximate controllability", ok, "; ".join(details))


def test_criterion_9_hvi_residual(bundled_sweeps):
    rng = np.random.default_rng(9)
    worst = -math.inf
    checked = 0
    pot = abs_potential(0.3)
    for (p, steps), data in bundled_sweeps.items():
        if steps != 512:
            continue
        model, grid = data["experiment"].model, data["experiment"].grid
        dirs = np.vstack([rng.standard_normal((31, model.n_modes)), np.eye(model.n_modes)[0]])
        for result in data["results"]:
            if result is None or not result.converged:
                continue
            worst = max(worst, hvi_residual(model, result.run.states, result.g, pot, dirs))
            checked += 1
        adversarial = hvi_residual(
            model, data["results"][0].run.states, data["results"][0].g + 1.0, pot, dirs
        )
    ok = checked >= 8 and worst <= 1e-8 and adversarial > 1e-3
    report(9, "hemivariational residual", ok,
           f"worst violation {worst:.2e} over {checked} runs, adversarial {adversarial:.2e}")
