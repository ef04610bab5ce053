import math
from pathlib import Path

import numpy as np
import pytest

from fracheat.cli import cmd_validate, main
from fracheat.config import build_experiment, load_config
from fracheat.control import (
    ConvergenceError,
    _duality_map_jacobian,
    a_priori_state_bound,
    closed_loop_trajectory,
    control_l2_norm,
    control_norm_bound,
    coordinate_duality_map,
    deficiency_vector,
    regularized_resolvent,
    terminal_identity_residual,
    theta_constant,
)
from fracheat.evolve import mild_solution
from fracheat.fracops import TimeGrid, ml_family
from fracheat.gramian import assemble_gramian
from fracheat.lpspace import basis_matrix, duality_map, lp_norm, lp_norms
from fracheat.spectral import build_model

from conftest import ORDER, bump_coefficients

ROOT = Path(__file__).resolve().parents[1]


def fd_newton_oracle(gram, model, eps, y, x_init, iters=60):
    """Independent brute-force solver: Newton with finite-difference Jacobian."""
    x = x_init.astype(float).copy()
    n = y.size

    def residual(v):
        return eps * v + gram @ coordinate_duality_map(model, v) - y

    for _ in range(iters):
        f = residual(x)
        if np.linalg.norm(f) < 1e-13 * max(np.linalg.norm(y), 1.0):
            break
        jac = np.zeros((n, n))
        d = 1e-7
        for j in range(n):
            xp = x.copy()
            xp[j] += d
            xm = x.copy()
            xm[j] -= d
            jac[:, j] = (residual(xp) - residual(xm)) / (2.0 * d)
        x = x - np.linalg.solve(jac, f)
    return x


def reference_resolvent(g, model, eps, y, tol=1e-11, max_iter=400):
    """The p > 2 solver the Newton loop on Phi replaced, kept as an oracle:
    damped Picard steps x <- (1-w) x + w (y - G J x)/eps from the Hilbert
    solution, w adapted to residual decrease, then damped Newton backtracking
    on ||r|| once progress stalls.  Returns (solution, final ||r||)."""
    identity = np.eye(model.n_modes)

    def residual(v):
        return eps * v + g @ coordinate_duality_map(model, v) - y

    omega = min(1.0, eps / (eps + float(np.linalg.norm(g, 2))))
    x = np.linalg.solve(eps * identity + g, y)
    res_vec = residual(x)
    res = last = float(np.linalg.norm(res_vec))
    newton, stall = False, 0
    for _ in range(max_iter):
        if res <= tol * float(np.linalg.norm(y)):
            return x, res
        if newton:
            step = np.linalg.solve(eps * identity + g @ _duality_map_jacobian(model, x), -res_vec)
            lam = 1.0
            while lam > 1e-6:
                cand = x + lam * step
                cand_vec = residual(cand)
                if np.linalg.norm(cand_vec) < res:
                    break
                lam *= 0.5
            x, res_vec, res = cand, cand_vec, float(np.linalg.norm(cand_vec))
        else:
            cand = (1.0 - omega) * x + omega * (y - g @ coordinate_duality_map(model, x)) / eps
            cand_vec = residual(cand)
            cand_res = float(np.linalg.norm(cand_vec))
            if cand_res < res:
                x, res_vec, res = cand, cand_vec, cand_res
                stall = stall + 1 if cand_res > 0.9 * last else 0
                omega = min(1.0, omega * 1.2)
            else:
                omega *= 0.5
                stall += 1
            newton = stall >= 3 or omega < 1e-8
        last = res
    raise ConvergenceError("reference resolvent did not converge", [res])


def phi_armijo_resolvent(g, model, eps, y, tol=1e-11, max_iter=400):
    """The Newton loop that backtracking on ||r|| replaced, kept as an oracle:
    the same Newton step from the Hilbert solution, taken whole if it halves
    ||r||, else lam halves until Armijo's condition holds on the convex
    Phi(x) = (eps/2) x^T G^-1 x + 1/2 ||W x||_{p,h}^2 - x^T G^-1 y, whose
    gradient is G^-1 r.  Returns (solution, ||r|| history, line searches)."""
    identity = np.eye(model.n_modes)
    w = basis_matrix(model.n_modes, model.n_theta)

    def residual(v):
        return eps * v + g @ coordinate_duality_map(model, v) - y

    x = np.linalg.solve(eps * identity + g, y)
    res_vec = residual(x)
    history, searches = [float(np.linalg.norm(res_vec))], 0
    for it in range(max_iter + 1):
        if history[-1] <= tol * float(np.linalg.norm(y)):
            return x, history, searches
        if it == max_iter:
            break
        step = np.linalg.solve(eps * identity + g @ _duality_map_jacobian(model, x), -res_vec)
        lam = 1.0
        cand_vec = residual(x + step)
        if not np.linalg.norm(cand_vec) <= 0.5 * history[-1]:
            searches += 1
            u = np.linalg.solve(g, step)
            linear, quadratic = float(u @ (eps * x - y)), 0.5 * eps * float(u @ step)
            start = 0.5 * lp_norm(w @ x, model.p) ** 2

            def change(lam):
                return (lam * linear + lam * lam * quadratic
                        + (0.5 * lp_norm(w @ (x + lam * step), model.p) ** 2 - start))

            while change(lam) > 1e-4 * lam * float(u @ res_vec) and lam > 1e-10:
                lam *= 0.5
            cand_vec = residual(x + lam * step)
        x, res_vec = x + lam * step, cand_vec
        history.append(float(np.linalg.norm(res_vec)))
    raise ConvergenceError("Newton with Armijo on Phi did not converge", history)


def residual_backtracking_log(g, model, eps, y, tol=1e-11, max_iter=400):
    """The Newton loop that the natural monotonicity test replaced, kept as an
    oracle: the same Newton step from the Hilbert solution, lam halving from 1
    until ||r(x + lam s)|| <= (1 - 1e-4 lam) ||r|| or lam <= 1e-10.  Returns
    (||r||, lam) for each iteration, up to ||r|| <= tol ||y|| or max_iter."""
    identity = np.eye(model.n_modes)

    def residual(v):
        return eps * v + g @ coordinate_duality_map(model, v) - y

    x = np.linalg.solve(eps * identity + g, y)
    res_vec, log = residual(x), []
    while np.linalg.norm(res_vec) > tol * np.linalg.norm(y) and len(log) < max_iter:
        res = float(np.linalg.norm(res_vec))
        step = np.linalg.solve(eps * identity + g @ _duality_map_jacobian(model, x), -res_vec)
        lam, cand_vec = 1.0, residual(x + step)
        while not np.linalg.norm(cand_vec) <= (1.0 - 1e-4 * lam) * res and lam > 1e-10:
            lam *= 0.5
            cand_vec = residual(x + lam * step)
        log.append((res, lam))
        x, res_vec = x + lam * step, cand_vec
    return log


def conjugate_gradient_resolvent(gram, eps, y, tol=1e-13, max_iter=2000):
    """Independent p = 2 solver: conjugate gradients on (eps I + G) x = y from
    zero, at most max_iter iterations, to ||r|| <= tol ||y||."""
    matrix = eps * np.eye(y.size) + gram
    x, r, d = np.zeros_like(y), y.copy(), y.copy()
    res = [float(np.linalg.norm(r))]
    while res[-1] > tol * res[0]:
        if len(res) > max_iter:
            raise ConvergenceError("CG did not converge", res)
        ad = matrix @ d
        alpha = res[-1] ** 2 / float(d @ ad)
        x, r = x + alpha * d, r - alpha * ad
        res.append(float(np.linalg.norm(r)))
        d = r + (res[-1] / res[-2]) ** 2 * d
    return x


def gap_over_residual_bound(gram, model, eps, y):
    """||x_new - x_ref|| over the bound ||(eps I + G DJ(x))^-1|| (||r_new|| + ||r_ref||)
    that the two residuals allow to first order; at most 1 when both solves
    solve the same equation."""
    new = regularized_resolvent(gram, model, eps, y)
    ref, ref_res = reference_resolvent(gram, model, eps, y)
    jac = eps * np.eye(model.n_modes) + gram @ _duality_map_jacobian(model, new.result)
    bound = np.linalg.norm(np.linalg.inv(jac), 2) * (new.residual_history[-1] + ref_res)
    return float(np.linalg.norm(new.result - ref)) / bound


class TestResolvent:
    def test_zero_right_hand_side(self, gram_p2, model_p2):
        solve = regularized_resolvent(gram_p2, model_p2, 0.1, np.zeros(8))
        assert np.all(solve.result == 0.0)
        assert solve.converged

    def test_scalar_linear_case(self):
        model = build_model(1, ORDER, None, None, 2.0, 256)
        gram = assemble_gramian(model, TimeGrid(1.0, 64))
        g = gram[0, 0]
        y = np.array([0.83])
        for eps in (1e-3, 0.1, 2.0):
            solve = regularized_resolvent(gram, model, eps, y)
            assert solve.result[0] == pytest.approx(0.83 / (eps + g), rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-3, 1e-2, 1e-1, 1.0])
    def test_contraction_bound(self, gram_p2, model_p2, gram_p4, model_p4, eps):
        rng = np.random.default_rng(int(eps * 1e5))
        for model, gram in ((model_p2, gram_p2), (model_p4, gram_p4)):
            for _ in range(25):
                y = rng.standard_normal(8)
                solve = regularized_resolvent(gram, model, eps, y)
                num, den = lp_norms([eps * solve.result, y], model.basis, model.p)
                assert num <= den * (1.0 + 1e-8)

    def test_hilbert_equivalence(self, gram_p2, model_p2):
        rng = np.random.default_rng(17)
        for eps in (1e-2, 1e-1):
            y = rng.standard_normal(8)
            direct = regularized_resolvent(gram_p2, model_p2, eps, y)
            assert direct.method == "direct"
            iterative = conjugate_gradient_resolvent(gram_p2, eps, y)
            assert np.max(np.abs(direct.result - iterative)) <= 1e-10

    def test_p4_against_newton_oracle(self, model_p4):
        # synthetic 2x2 operator: keep it small so the oracle is cheap
        import dataclasses

        model = dataclasses.replace(model_p4, n_modes=2,
                                    eigenvalues=np.array([-1.0, -4.0]),
                                    b_matrix=np.eye(2), h_matrix=np.eye(2))
        gram = np.array([[0.8, 0.2], [0.2, 0.5]])
        rng = np.random.default_rng(5)
        y = rng.standard_normal(2)
        solve = regularized_resolvent(gram, model, 0.1, y, tol=1e-12)
        assert solve.converged
        for seed in range(3):
            start = np.random.default_rng(seed).standard_normal(2)
            oracle = fd_newton_oracle(gram, model, 0.1, y, start)
            assert np.max(np.abs(solve.result - oracle)) <= 1e-8
        norm_out, norm_in = lp_norms([0.1 * solve.result, y], model.basis, 4.0)
        assert norm_out <= norm_in * (1.0 + 1e-8)

    def test_nonconvergence_carries_history(self, gram_p4, model_p4):
        y = np.ones(8)
        with pytest.raises(ConvergenceError) as err:
            regularized_resolvent(gram_p4, model_p4, 1e-4, y, tol=1e-14, max_iter=2)
        assert len(err.value.residual_history) == 3
        # the message names the last residual and step length
        assert "last residual" in str(err.value) and "lam=" in str(err.value)
        with pytest.raises(ConvergenceError) as err:
            regularized_resolvent(gram_p4, model_p4, 1e-4, y, max_iter=0)
        assert len(err.value.residual_history) == 1

    def test_non_finite_residual_stops_the_solve(self, gram_p4, model_p4):
        # an infinite Gramian entry makes the Hilbert start's residual
        # non-finite; the solve stops there instead of 400 non-finite steps later
        gram = gram_p4.copy()
        gram[0, 0] = np.inf
        y = np.random.default_rng(2).standard_normal(8)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ConvergenceError) as err:
            regularized_resolvent(gram, model_p4, 1e-2, y)
        history = err.value.residual_history
        assert len(history) == 1 and not math.isfinite(history[0])
        assert "Newton iteration 0 (eps=0.01, p=4.0)" in str(err.value)

    @pytest.mark.parametrize("p", ["100", "150", "200"])
    def test_validate_past_the_norm_overflow(self, p, capsys):
        # |u|^p overflows in the L^p norm from p ~ 100 on: the norms and the
        # duality map scale by max|u| there, and every check passes
        config = ROOT / "configs" / "heat_default.cfg"
        assert main(["validate", str(config), "--set", f"model.p={p}"]) == 0
        out, err = capsys.readouterr()
        assert "[FAIL]" not in out and err == ""

    def test_guards(self, gram_p2, model_p2):
        with pytest.raises(ValueError):
            regularized_resolvent(gram_p2, model_p2, 0.0, np.zeros(8))
        with pytest.raises(ValueError):
            regularized_resolvent(gram_p2, model_p2, 0.1, np.zeros(5))


class TestNewtonOnPhi:
    """The Newton loop, backtracking on the simplified Newton step, against the
    three solvers it replaced: Picard + Newton, which needed hundreds of
    iterations or failed at the larger mode counts, Newton with Armijo on the
    convex objective Phi, whose two merit functions cycled at p = 24, and
    Newton backtracking on ||r||, which stalled from p ~ 640 on."""

    @staticmethod
    def validate_solves(monkeypatch, p):
        """The (gram, model, eps, y) of `validate`'s 30 solves at this p, seed 0."""
        import fracheat.cli

        solves = []

        def record(gram, model, eps, y, **kwargs):
            solves.append((gram, model, eps, np.array(y)))
            return regularized_resolvent(gram, model, eps, y, **kwargs)

        monkeypatch.setattr(fracheat.cli, "regularized_resolvent", record)
        exp = build_experiment(load_config(str(ROOT / "configs" / "heat_default.cfg"),
                                           [f"model.p={p}"]), ROOT)
        assert cmd_validate(exp) == 0
        assert len(solves) == 30 and {eps for _, _, eps, _ in solves} == {1e-2, 1e-1, 1.0}
        return solves

    def test_matches_reference_on_validate_p4_solves(self, monkeypatch, capsys):
        # the 30 solves of `validate` at p = 4, seed 0 (eps in 1e-2, 1e-1, 1);
        # observed: gap / bound <= 0.90, relative gap <= 8.4e-12 at tol 1e-11.
        # Armijo on Phi searched on 3 of them and gives the same bits on all:
        # on the 6th both take a full step that raises ||r|| from 19.33 to
        # 22.25 and shrinks the simplified Newton step (backtracking on ||r||
        # halved it and differed there by at most 1e-12 relative)
        searches, differ = 0, []
        for i, (gram, model, eps, y) in enumerate(self.validate_solves(monkeypatch, 4)):
            assert gap_over_residual_bound(gram, model, eps, y) <= 1.0
            solve = regularized_resolvent(gram, model, eps, y)
            old, old_history, old_searches = phi_armijo_resolvent(gram, model, eps, y)
            searches += old_searches
            if not (np.array_equal(solve.result, old) and solve.residual_history == old_history):
                differ.append(i)
                assert any(b > a for a, b in zip(old_history, old_history[1:]))
                assert np.max(np.abs(solve.result - old)) <= 1e-12 * np.max(np.abs(old))
        assert searches == 3 and differ == []

    def test_p24_two_cycle_converges(self, monkeypatch, capsys):
        # the 26th solve of `validate` at p = 24 (eps = 1, the contraction
        # check's sixth sample): the full-step test and Armijo on Phi disagreed
        # and ||r|| cycled 5.268 -> 2.217 -> 5.268 for all 400 iterations
        gram, model, eps, y = self.validate_solves(monkeypatch, 24)[25]
        assert eps == 1.0
        with pytest.raises(ConvergenceError):
            phi_armijo_resolvent(gram, model, eps, y)
        solve = regularized_resolvent(gram, model, eps, y)
        assert solve.converged
        assert solve.residual_history[-1] <= 1e-11 * np.linalg.norm(y)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p", ["24", "64"])
    def test_validate_passes_at_large_p(self, capsys, p):
        # p = 24 cycled between two merit functions; p = 64 overflowed the
        # duality-map Jacobian to a NaN Newton step
        config = ROOT / "configs" / "heat_default.cfg"
        assert main(["validate", str(config), "--set", f"model.p={p}"]) == 0
        assert "[FAIL]" not in capsys.readouterr().out

    def test_p1000_stall_converges(self, monkeypatch, capsys):
        # `validate` at p = 1000 passes (it exited 2); its 4th solve (eps =
        # 0.01) is where backtracking on ||r|| stalled: the Newton step is
        # right (it matches central differences to 1e-9), but |u|^(p-1) is
        # near a step function and ||r|| tracks its linear model only up to
        # lam ~ 1e-3, so lam = 2^-8 is taken for ever while ||r|| creeps down
        # from 1.43; the natural monotonicity test converges in 51 iterations
        gram, model, eps, y = self.validate_solves(monkeypatch, 1000)[3]
        assert eps == 1e-2
        log = residual_backtracking_log(gram, model, eps, y, max_iter=100)
        assert len(log) == 100 and log[-1][0] > 1.4
        assert all(lam <= 2.0 ** -8 for _, lam in log[50:])
        solve = regularized_resolvent(gram, model, eps, y)
        assert solve.converged and solve.iterations <= 60
        assert solve.residual_history[-1] <= 1e-11 * np.linalg.norm(y)

    def test_rounding_floor_ends_the_solve(self, monkeypatch, capsys):
        # the 12th solve of `validate` at p = 1000 (eps = 0.1): ||r|| floors
        # at 1.4e-11 ||y||, over tol, since |u|^(p-1) carries ~p ulps; no
        # step length shrinks the simplified Newton step, whose size is
        # rounding, so the solve ends there as converged, x within tol
        gram, model, eps, y = self.validate_solves(monkeypatch, 1000)[11]
        assert eps == 1e-1
        solve = regularized_resolvent(gram, model, eps, y)
        assert solve.converged
        assert 1e-11 < solve.residual_history[-1] / np.linalg.norm(y) < 3e-11
        x = solve.result
        jac = eps * np.eye(model.n_modes) + gram @ _duality_map_jacobian(model, x)
        step = np.linalg.solve(jac, y - eps * x - gram @ coordinate_duality_map(model, x))
        assert np.linalg.norm(step) <= 1e-11 * np.linalg.norm(x)

    @pytest.mark.parametrize("p", ["640", "900"])
    def test_validate_passes_where_backtracking_on_r_stalled(self, capsys, p):
        # backtracking on ||r|| stalled at p = 640, 680, 700, 840, 860, 880,
        # 940 and 1000 on a scan in steps of 20; it passed at 900 by chance
        config = ROOT / "configs" / "heat_default.cfg"
        assert main(["validate", str(config), "--set", f"model.p={p}"]) == 0
        assert "[FAIL]" not in capsys.readouterr().out

    def test_matches_reference_on_model_p4(self, gram_p4, model_p4):
        # the contraction-bound inputs; observed: gap / bound <= 0.95 (at eps = 1)
        for eps in (1e-3, 1e-2, 1e-1, 1.0):
            rng = np.random.default_rng(int(eps * 1e5))
            for _ in range(25):
                y = rng.standard_normal(8)
                assert gap_over_residual_bound(gram_p4, model_p4, eps, y) <= 1.0

    @pytest.mark.parametrize("n_modes", [16, 32, 64])
    def test_bump_target_converges_in_few_steps(self, n_modes):
        # p = 4, bump target from the bump state at 512 steps: the replaced
        # solver took 182-278 iterations at eps = 1e-4 and 1e-5 and raised
        # ConvergenceError at 64 modes, eps = 1e-5; Newton takes 5-16
        model = build_model(n_modes, ORDER, None, None, 4.0, 256)
        grid = TimeGrid(1.0, 512)
        gram = assemble_gramian(model, grid)
        bump = bump_coefficients(n_modes)
        d = deficiency_vector(model, grid, bump, bump)
        for eps in (1e-4, 1e-5, 1e-6):
            solve = regularized_resolvent(gram, model, eps, d)
            assert solve.converged and solve.method == "newton"
            assert solve.iterations <= 50
            assert solve.residual_history[-1] <= 1e-11 * np.linalg.norm(d)


class TestControlSynthesis:
    def test_reached_target_needs_no_control(self, model_p2, gram_p2, grid_512):
        x0 = bump_coefficients(8)
        free = mild_solution(model_p2, grid_512, x0)
        run = closed_loop_trajectory(model_p2, gram_p2, grid_512, 0.1, free[-1], x0)
        assert np.max(np.abs(run.deficiency)) <= 1e-12
        assert np.max(np.abs(run.control)) <= 1e-10

    def test_scalar_chain_oracle(self):
        model = build_model(1, ORDER, None, None, 2.0, 256)
        grid = TimeGrid(1.0, 512)
        gram = assemble_gramian(model, grid)
        eps = 0.05
        x0 = np.array([0.4])
        z = np.array([1.1])
        run = closed_loop_trajectory(model, gram, grid, eps, z, x0)
        control, d = run.control, run.deficiency
        g11 = gram[0, 0]
        b11 = model.b_matrix[0, 0]
        for j in (0, 128, 511):
            t = grid.nodes[j]
            mult = ml_family(0.75, (0.75,), model.eigenvalues * (1.0 - t) ** 0.75)[0][0]
            want = b11 * mult * d[0] / (eps + g11)
            assert control[j, 0] == pytest.approx(want, rel=1e-10)

    def test_control_energy_within_paper_bound(self, model_p2, gram_p2, grid_512):
        x0 = bump_coefficients(8)
        z = np.zeros(8)
        z[0] = 0.6
        eta = math.pi ** 0.5 * 0.3
        for eps in (1e-2, 1e-1):
            run = closed_loop_trajectory(model_p2, gram_p2, grid_512, eps, z, x0)
            bound = control_norm_bound(model_p2, grid_512, eps, z, x0, eta)
            assert control_l2_norm(run.control, grid_512) <= bound

    def test_theta_constant_constant_eta(self, model_p2, grid_512):
        # constant eta: the L^(1/alpha1) norm collapses to eta * a^alpha1
        eta_val = 0.7
        got = theta_constant(model_p2, grid_512, eta_val)
        alpha, alpha1 = 0.75, 0.4
        b = 1.0 / (1.0 - alpha1)
        expo = b * (alpha - 1.0) + 1.0
        want = (1.0**expo / expo) ** (1.0 - alpha1) * eta_val * 1.0**alpha1
        assert got == pytest.approx(want, rel=1e-10)


class TestClosedLoop:
    def test_free_dynamics_when_target_is_reached(self, model_p2, gram_p2, grid_512):
        x0 = bump_coefficients(8)
        free = mild_solution(model_p2, grid_512, x0)
        run = closed_loop_trajectory(model_p2, gram_p2, grid_512, 0.1, free[-1], x0)
        assert np.max(np.abs(run.states - free)) <= 1e-10

    def test_a_priori_bound(self, model_p2, gram_p2, grid_512):
        x0 = bump_coefficients(8)
        z = np.zeros(8)
        z[0] = 0.6
        eta = 0.0
        for eps in (1e-2, 1e-1):
            run = closed_loop_trajectory(model_p2, gram_p2, grid_512, eps, z, x0)
            n0 = a_priori_state_bound(model_p2, grid_512, eps, z, x0, eta)
            sup = np.max(lp_norms(run.states, model_p2.basis, 2.0))
            assert sup <= n0

    def test_forcing_continuity(self, model_p2, gram_p2, grid_512):
        # || closed_loop(g + delta phi) - closed_loop(g) || = O(delta)
        rng = np.random.default_rng(23)
        x0 = bump_coefficients(8)
        z = np.zeros(8)
        z[0] = 0.6
        phi = np.outer(np.sin(3.0 * grid_512.nodes), rng.standard_normal(8))
        base = closed_loop_trajectory(model_p2, gram_p2, grid_512, 1e-2, z, x0)
        ratios = []
        for delta in (1e-2, 1e-3, 1e-4):
            run = closed_loop_trajectory(
                model_p2, gram_p2, grid_512, 1e-2, z, x0, forcing=delta * phi
            )
            gap = np.max(lp_norms(run.states - base.states, model_p2.basis, 2.0))
            ratios.append(gap / delta)
        assert max(ratios) / min(ratios) <= 1.5  # first-order response


class TestTerminalIdentity:
    def test_linear_case_machine_exact(self, model_p2, gram_p2, grid_512):
        x0 = bump_coefficients(8)
        z = np.zeros(8)
        z[0] = 0.5
        z[3] = 0.1
        run = closed_loop_trajectory(model_p2, gram_p2, grid_512, 1e-2, z, x0)
        assert terminal_identity_residual(run, model_p2, z) <= 1e-6

    def test_nonlinear_duality_case(self, model_p4, gram_p4, grid_512):
        x0 = bump_coefficients(8)
        z = np.zeros(8)
        z[0] = 0.5
        run = closed_loop_trajectory(model_p4, gram_p4, grid_512, 1e-2, z, x0, tol=1e-12)
        assert terminal_identity_residual(run, model_p4, z) <= 1e-6

    def test_residual_decreases_under_joint_refinement(self, model_p2):
        # with deliberately mismatched quadratures the identity residual is a
        # genuine discretization defect and must vanish under refinement
        x0 = bump_coefficients(8)
        z = np.zeros(8)
        z[0] = 0.5
        residuals = []
        for steps in (64, 128, 256):
            gram = assemble_gramian(model_p2, TimeGrid(1.0, 2 * steps))
            grid = TimeGrid(1.0, steps)
            run = closed_loop_trajectory(model_p2, gram, grid, 1e-2, z, x0)
            residuals.append(terminal_identity_residual(run, model_p2, z))
        assert residuals[0] > residuals[1] > residuals[2]

    def test_miss_equals_predicted_contraction(self, model_p2, gram_p2, grid_512):
        x0 = bump_coefficients(8)
        z = np.zeros(8)
        z[1] = 0.4
        run = closed_loop_trajectory(model_p2, gram_p2, grid_512, 5e-3, z, x0)
        miss, predicted = lp_norms([run.states[-1] - z, 5e-3 * run.solve.result],
                                   model_p2.basis, 2.0)
        assert miss == pytest.approx(predicted, rel=1e-10)


def duality_inputs(p):
    rng = np.random.default_rng(int(p))
    return [np.zeros(8), bump_coefficients(8), *rng.standard_normal((20, 8))]


@pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
def test_coordinate_duality_map_matches_grid_function_route(p):
    # the earlier route through a grid function: reconstruct, map, project
    model = build_model(8, ORDER, None, None, p, 256)
    w = basis_matrix(model.n_modes, model.n_theta)
    for x in duality_inputs(p):
        old = w.T @ duality_map(w @ x, p) * (math.pi / model.n_theta)
        new = coordinate_duality_map(model, x)
        assert np.max(np.abs(new - old)) <= 1e-15 * np.max(np.abs(old))  # x = 0: exact zeros


@pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
def test_coordinate_duality_map_is_bitwise_the_coordinate_formula(p):
    # the formula coordinate_duality_map carried before lpspace.duality_map
    # owned it: the norm a Python float, so norm ** (2 - p) is a scalar power
    model = build_model(8, ORDER, None, None, p, 256)
    w = basis_matrix(model.n_modes, model.n_theta)
    h = math.pi / model.n_theta
    for x in duality_inputs(p):
        u = w @ x
        norm = float((np.sum(np.abs(u) ** p) * h) ** (1.0 / p))
        want = (np.zeros(8) if norm == 0.0
                else w.T @ (norm ** (2.0 - p) * np.abs(u) ** (p - 1.0) * np.sign(u)) * h)
        assert np.array_equal(coordinate_duality_map(model, x), want)


def grid_matrix_jacobian(model, x):
    """The duality-map Jacobian as it was first written: the dense
    (n_theta, n_theta) grid matrix diag I + rank1 v v^T, projected on the modes."""
    p, h = model.p, math.pi / model.n_theta
    w = basis_matrix(model.n_modes, model.n_theta)
    u = w @ x
    norm = float((np.sum(np.abs(u) ** p) * h) ** (1.0 / p))
    if norm == 0.0:
        return np.zeros((model.n_modes, model.n_modes))
    v = np.abs(u) ** (p - 1.0) * np.sign(u)
    diag = (p - 1.0) * norm ** (2.0 - p) * np.abs(u) ** (p - 2.0)
    rank1 = (2.0 - p) * norm ** (2.0 - 2.0 * p) * h
    return h * w.T @ (diag[:, None] * np.eye(u.size) + rank1 * np.outer(v, v)) @ w


@pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
def test_duality_map_jacobian_matches_grid_matrix(p):
    from fracheat.control import _duality_map_jacobian

    model = build_model(8, ORDER, None, None, p, 256)
    for x in duality_inputs(p):
        old = grid_matrix_jacobian(model, x)
        new = _duality_map_jacobian(model, x)
        assert np.max(np.abs(new - old)) <= 1e-13 * np.max(np.abs(old))  # x = 0: exact zeros


def test_duality_map_jacobian_at_p64_matches_central_difference():
    # at p = 64 and ||x|| ~ 1e-3, ||u||^(2-2p) overflows: the plain formula
    # raises on its Python float, and the scaled form gives the Jacobian
    model = build_model(8, ORDER, None, None, 64.0, 256)
    rng = np.random.default_rng(64)
    for x in (1e-3 * bump_coefficients(8), *1e-3 * rng.standard_normal((3, 8))):
        with pytest.raises(OverflowError):
            grid_matrix_jacobian(model, x)
        d = 1e-6 * np.linalg.norm(x)
        fd = np.column_stack([(coordinate_duality_map(model, x + d * e)
                               - coordinate_duality_map(model, x - d * e)) / (2.0 * d)
                              for e in np.eye(8)])
        jac = _duality_map_jacobian(model, x)
        assert np.all(np.isfinite(jac))
        assert np.max(np.abs(jac - fd)) <= 1e-7 * np.max(np.abs(fd))  # observed <= 5.1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_resolvent_at_p64_is_homogeneous():
    # J is 1-homogeneous, so the solution scales with y; at 1e-6 y the Newton
    # step needs the scaled Jacobian (the plain one raised OverflowError)
    config = ROOT / "configs" / "heat_default.cfg"
    exp = build_experiment(load_config(config, ["model.p=64"]), config.parent)
    gram = assemble_gramian(exp.model, exp.grid)
    y = np.random.default_rng(2).standard_normal(8)
    big = regularized_resolvent(gram, exp.model, 1e-2, y)
    small = regularized_resolvent(gram, exp.model, 1e-2, 1e-6 * y)
    assert big.converged and small.converged
    assert np.max(np.abs(1e-6 * big.result - small.result)) <= 1e-10 * np.max(np.abs(small.result))
