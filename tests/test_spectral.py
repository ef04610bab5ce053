import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import fracheat.spectral as spectral_module
from fracheat.cli import main
from fracheat.fracops import gauss_legendre, ml_family
from fracheat.spectral import (
    KernelSpec,
    _assemble_kernel_matrix,
    _kernel_norm_bounds,
    build_model,
    green_kernel,
)
from fracheat.lpspace import lp_norms, theta_grid

from conftest import ORDER, density_on_gauss_grid, traced_peak

E_075_M1 = 0.393108302815754062
BUNDLED = Path(__file__).resolve().parents[1] / "configs" / "heat_default.cfg"


def brute_force_entry(kernel, m, n):
    """2-D quadrature oracle for <K w_n, w_m>, inner integral split along the
    kernel's diagonal kink."""
    scale = 2.0 / math.pi

    def inner(theta):
        lo, _ = quad(lambda w: kernel(theta, w) * math.sin(n * w), 0.0, theta, limit=200)
        hi, _ = quad(lambda w: kernel(theta, w) * math.sin(n * w), theta, math.pi, limit=200)
        return (lo + hi) * math.sin(m * theta)

    val, _ = quad(inner, 0.0, math.pi, limit=200)
    return scale * val


def package_rule(n_modes):
    """The package's Gauss rule for the kernel matrix: ceil(n_modes / 16)
    panels of 64 nodes."""
    return gauss_legendre(64, -(-n_modes // 16))


def reference_kernel_matrix(kernel, n_modes):
    """The earlier assembly of a named kernel: a Python loop over the outer
    Gauss nodes, the inner integral split at the node into two panels."""
    x, gw = package_rule(n_modes)
    mode = np.arange(1, n_modes + 1)
    scale = math.sqrt(2.0 / math.pi)
    mat = np.zeros((n_modes, n_modes))
    for ti, wi in zip(0.5 * math.pi * (x + 1.0), 0.5 * math.pi * gw):
        inner = np.zeros(n_modes)
        for lo, hi in ((0.0, ti), (ti, math.pi)):
            u = 0.5 * (hi - lo) * (x + 1.0) + lo
            kv = kernel.values(np.full_like(u, ti), u)
            inner += (0.5 * (hi - lo) * gw * kv) @ (scale * np.sin(np.outer(u, mode)))
        mat += wi * np.outer(scale * np.sin(mode * ti), inner)
    return 0.5 * (mat + mat.T)


def unblocked_kernel_matrix(kernel, n_modes, rule=None):
    """The named-kernel assembly before row blocks: sin(u n) as one
    (ng, 2, ng, n_modes) tensor, on the package's rule or on `rule`."""
    x, gw = package_rule(n_modes) if rule is None else rule
    ng = len(x)
    mode = np.arange(1, n_modes + 1)
    scale = math.sqrt(2.0 / math.pi)
    t_out = 0.5 * math.pi * (x + 1.0)
    w_out = 0.5 * math.pi * gw
    lo = np.stack([np.zeros(ng), t_out], axis=1)[:, :, None]
    half = 0.5 * (np.stack([t_out, np.full(ng, math.pi)], axis=1)[:, :, None] - lo)
    u = half * (x + 1.0) + lo
    kv = kernel.values(np.broadcast_to(t_out[:, None, None], u.shape), u)
    inner = np.einsum("ipq,ipq,ipqn->in", half * gw, kv, scale * np.sin(u[..., None] * mode))
    mat = np.einsum("i,im,in->mn", w_out, scale * np.sin(np.outer(t_out, mode)), inner)
    return 0.5 * (mat + mat.T)


def reference_kernel_norm_bounds(kernel, p, n_theta):
    """The earlier norm bounds: the kernel on the whole (n_theta, n_theta)
    meshgrid, then two sums per row."""
    theta = theta_grid(n_theta)
    h = math.pi / n_theta
    tt, oo = np.meshgrid(theta, theta, indexing="ij")
    k = kernel.values(tt, oo)
    row_l2 = np.sum(k * k, axis=1) * h
    bound_l2_lp = (np.sum(row_l2 ** (p / 2.0)) * h) ** (1.0 / p)
    row_lp = np.sum(np.abs(k) ** p, axis=1) * h
    bound_lq_lp = (np.sum(row_lp) * h) ** (1.0 / p)
    return float(bound_l2_lp) * (1.0 + 1e-9), float(bound_lq_lp) * (1.0 + 1e-9)


def green_table():
    """min(x, y) (pi - max(x, y)) on the 24-point midpoint grid."""
    x = (np.arange(24) + 0.5) * math.pi / 24
    return np.minimum.outer(x, x) * (math.pi - np.maximum.outer(x, x))


def norm_bound_kernels():
    """The named kernels and a symmetric, non-separable 24 x 24 table."""
    x = (np.arange(24) + 0.5) * math.pi / 24
    table = green_table() + 0.1 * np.cos(np.add.outer(x, x))
    return [KernelSpec("green"), KernelSpec("min"), KernelSpec("custom", table)]


def log_space_kernel_norm_bounds(kernel, p, n_theta):
    """The meshgrid formula summed in log space, where no power over- or
    underflows; the bounds' factor 1 + 1e-9 included."""
    theta = theta_grid(n_theta)
    log_h = math.log(math.pi / n_theta)
    k = np.abs(kernel.values(*np.meshgrid(theta, theta, indexing="ij")))
    log_l2 = np.log(np.sum(k * k, axis=1)) + log_h
    return (math.exp((np.logaddexp.reduce(0.5 * p * log_l2) + log_h) / p) * (1.0 + 1e-9),
            math.exp((np.logaddexp.reduce(p * np.log(k).ravel()) + 2.0 * log_h) / p)
            * (1.0 + 1e-9))


class TestKernelAssembly:
    @pytest.mark.parametrize("kind", ["green", "min"])
    @pytest.mark.parametrize("n_modes", [8, 16, 64])
    def test_row_blocks_match_the_unblocked_tensor(self, kind, n_modes):
        want = unblocked_kernel_matrix(KernelSpec(kind), n_modes)
        got, peak = traced_peak(lambda: _assemble_kernel_matrix(KernelSpec(kind), n_modes, 256))
        assert np.array_equal(got, want)
        # the whole sin(u n) tensor alone is 67 MB at 64 modes, and each whole
        # (ng, 2, ng) node, kernel or weight array 1 MB (about 0.55 MB observed)
        assert peak <= 1.5e6

    @pytest.mark.parametrize("kind", ["green", "min"])
    @pytest.mark.parametrize("n_modes", [8, 16, 24, 32, 40, 64])
    def test_panel_rule_matches_the_single_rule(self, kind, n_modes):
        # the earlier rule: one max(64, 4 n_modes)-point Gauss-Legendre rule,
        # the same 64 nodes up to 16 modes; beyond, against a 1024-node rule,
        # the panels are off by at most 1.5e-14 of max |B| and the single rule
        # by 1.9e-14 (the two at most 7.6e-15 apart observed)
        single = np.polynomial.legendre.leggauss(max(64, 4 * n_modes))
        want = unblocked_kernel_matrix(KernelSpec(kind), n_modes, single)
        got = _assemble_kernel_matrix(KernelSpec(kind), n_modes, 256)
        if n_modes <= 16:
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind", ["green", "min"])
    @pytest.mark.parametrize("n_modes", [1, 8, 16, 40])
    def test_einsum_assembly_matches_node_loop(self, kind, n_modes):
        # one einsum sums in another order than the loop: 1e-14 relative to
        # the largest entry (about 3e-16 observed)
        want = reference_kernel_matrix(KernelSpec(kind), n_modes)
        got = _assemble_kernel_matrix(KernelSpec(kind), n_modes, 256)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_each_distinct_kernel_is_built_once(self, monkeypatch):
        calls = []
        for name in ("_assemble_kernel_matrix", "_kernel_norm_bounds"):
            original = getattr(spectral_module, name)
            monkeypatch.setattr(spectral_module, name,
                                lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
        same = build_model(8, ORDER, KernelSpec("green"), KernelSpec("green"), 4.0, 256)
        assert calls == ["_assemble_kernel_matrix", "_kernel_norm_bounds"]
        calls.clear()
        table = np.minimum.outer(np.arange(32.0), np.arange(32.0))
        tabled = build_model(4, ORDER, KernelSpec("custom", table),
                             KernelSpec("custom", table.copy()), 4.0, 256)
        assert len(calls) == 2
        calls.clear()
        mixed = build_model(8, ORDER, KernelSpec("green"), KernelSpec("min"), 4.0, 256)
        assert len(calls) == 4
        # the shared build gives what two separate builds give
        for model, kb, kh in ((same, KernelSpec("green"), KernelSpec("green")),
                              (mixed, KernelSpec("green"), KernelSpec("min")),
                              (tabled, KernelSpec("custom", table), KernelSpec("custom", table))):
            assert np.array_equal(model.b_matrix, _assemble_kernel_matrix(kb, model.n_modes, 256))
            assert np.array_equal(model.h_matrix, _assemble_kernel_matrix(kh, model.n_modes, 256))
            assert model.b_norm_bound == _kernel_norm_bounds(kb, 4.0, 256)[0]
            assert model.h_norm_bound == _kernel_norm_bounds(kh, 4.0, 256)[1]

    def test_green_diagonal_against_oracle(self, model_p2):
        b = model_p2.b_matrix
        for n in range(1, 9):
            assert b[n - 1, n - 1] == pytest.approx(math.pi / n**2, abs=1e-8)
        # spot-check the quadrature oracle route as well
        assert brute_force_entry(green_kernel, 2, 2) == pytest.approx(math.pi / 4, abs=1e-8)
        assert b[1, 1] == pytest.approx(brute_force_entry(green_kernel, 2, 2), abs=1e-8)

    def test_green_off_diagonal_vanishes(self, model_p2):
        b = model_p2.b_matrix
        off = b - np.diag(np.diag(b))
        assert np.max(np.abs(off)) <= 1e-8
        assert brute_force_entry(green_kernel, 1, 3) == pytest.approx(0.0, abs=1e-8)

    def test_min_kernel_against_analytic(self):
        model = build_model(6, ORDER, KernelSpec("min"), None, 2.0, 256)
        n = np.arange(1, 7)
        nn, mm = np.meshgrid(n, n, indexing="ij")
        want = np.where(nn == mm, 1.0 / nn**2, 0.0) + (-1.0) ** (nn + mm) * 2.0 / (nn * mm)
        assert np.max(np.abs(model.b_matrix - want)) <= 1e-10

    def test_single_mode_model(self):
        model = build_model(1, ORDER, None, None, 2.0, 256)
        assert model.b_matrix.shape == (1, 1)
        assert model.b_matrix[0, 0] == pytest.approx(math.pi, rel=1e-12)

    def test_asymmetric_custom_rejected(self):
        table = np.ones((32, 32))
        table[3, 7] = 5.0
        with pytest.raises(ValueError, match="asymmetric"):
            build_model(4, ORDER, KernelSpec("custom", table), None, 2.0, 64)

    def test_kernel_spec_guards(self):
        with pytest.raises(ValueError):
            KernelSpec("parabolic")
        with pytest.raises(ValueError):
            KernelSpec("custom")
        with pytest.raises(ValueError):
            KernelSpec("green", np.ones((16, 16)))


class TestKernelNormBounds:
    # the bounds are `lp_norm` of row norms, (h sum ||k_i||_2^p)^(1/p), where
    # the meshgrid formula raises the row sums h sum k^2 to p/2: the same
    # quantity, rounded differently, so old and new agree to 2 ulp, not bitwise
    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 6.5])
    @pytest.mark.parametrize("n_theta", [16, 64, 256, 1024])
    def test_row_blocks_match_the_meshgrid_formula(self, n_theta, p):
        for kernel in norm_bound_kernels():
            np.testing.assert_array_max_ulp(_kernel_norm_bounds(kernel, p, n_theta),
                                            reference_kernel_norm_bounds(kernel, p, n_theta),
                                            maxulp=2)

    @pytest.mark.parametrize("p", [800.0, 1000.0])
    def test_finite_past_the_power_overflow(self, p):
        # |k|^p overflows for the named kernels at both p and for the table at
        # p = 1000
        theta = theta_grid(64)
        for kernel in norm_bound_kernels():
            k = np.abs(kernel.values(*np.meshgrid(theta, theta, indexing="ij")))
            with np.errstate(over="ignore"):
                overflows = np.max(k) ** p == math.inf
            assert overflows == (kernel.kind != "custom" or p == 1000.0)
            assert _kernel_norm_bounds(kernel, p, 64) == pytest.approx(
                log_space_kernel_norm_bounds(kernel, p, 64), rel=1e-12)

    @pytest.mark.parametrize("scale, p", [(1e-3, 150.0), (1e-2, 800.0)])
    def test_finite_past_the_power_underflow(self, scale, p):
        # every |k|^p is 0 or subnormal, so the plain sums read 0 and the
        # bounds were 0 (`validate` printed slack inf)
        kernel = KernelSpec("custom", scale * green_table())
        assert np.max(np.abs(kernel.table)) ** p < 2.3e-308
        got = _kernel_norm_bounds(kernel, p, 64)
        assert all(0.0 < b < math.inf for b in got)
        assert got == pytest.approx(log_space_kernel_norm_bounds(kernel, p, 64), rel=1e-12)

    @pytest.mark.parametrize("p", ["150", "800"])
    def test_validate_passes_the_norm_bound_past_the_underflow(self, tmp_path, capsys, p):
        np.savetxt(tmp_path / "kernel.csv", 1e-3 * green_table(), delimiter=",")
        config = tmp_path / "exp.cfg"
        config.write_text(BUNDLED.read_text().replace("= green", "= table:kernel.csv"))
        main(["validate", str(config), "--set", f"model.p={p}"])
        out = capsys.readouterr().out.splitlines()
        lines = [line for line in out if "gramian norm bound" in line]
        assert len(lines) == 1 and lines[0].startswith("[PASS] gramian norm bound: slack 0.")
        # scaling B by 1e-3 scales G by 1e-6 and changes no controllability:
        # sigma_min(G) = 1.994e-11 passes the scale-free rank tolerance
        lines = [line for line in out if "] injectivity: " in line]
        assert lines == ["[PASS] injectivity: approximately controllable (truncated): "
                         "sigma_min(B)=5.383e-05 sigma_min(G)=1.994e-11"]

    def test_holds_no_full_grid(self):
        # one (1024, 1024) float64 grid is 8.4 MB; the row blocks peak near 1.2 MB
        for kernel in norm_bound_kernels():
            _, peak = traced_peak(lambda: _kernel_norm_bounds(kernel, 3.0, 1024))
            assert peak <= 2e6, kernel.kind


class TestOperatorFamilies:
    """The state family E_alpha(lambda_n t^alpha) (beta = 1) and the Duhamel
    family E_{alpha,alpha}(lambda_n t^alpha) (beta = alpha), each read from
    `ml_family` on `eigenvalues * t^alpha` as every caller does."""

    def test_state_family_at_zero_is_identity(self, model_p2):
        x = np.arange(1.0, 9.0)
        s, = ml_family(0.75, (1.0,), model_p2.eigenvalues * 0.0)
        assert np.allclose(s * x, x, rtol=0, atol=1e-14)

    def test_single_mode_coefficient(self, model_p2):
        x = np.zeros(8)
        x[0] = 1.0
        out = ml_family(0.75, (1.0,), model_p2.eigenvalues * 1.0)[0] * x
        assert out[0] == pytest.approx(E_075_M1, rel=1e-12)

    def test_forcing_family_at_zero(self, model_p2):
        x = np.arange(1.0, 9.0)
        want = x / math.gamma(0.75)
        f, = ml_family(0.75, (0.75,), model_p2.eigenvalues * 0.0)
        assert np.allclose(f * x, want, rtol=1e-14)

    def test_state_bound(self, model_p2):
        rng = np.random.default_rng(2)
        for _ in range(200):
            t = rng.uniform(0.0, 1.0)
            x = rng.standard_normal(8)
            s, = ml_family(0.75, (1.0,), model_p2.eigenvalues * t**0.75)
            nx, ns = lp_norms([x, s * x], model_p2.basis, 2.0)
            assert ns <= model_p2.m_bound * nx * (1.0 + 1e-12)

    def test_forcing_bound(self, model_p2):
        bound = model_p2.m_bound / math.gamma(0.75)
        rng = np.random.default_rng(3)
        for _ in range(200):
            t = rng.uniform(0.0, 1.0)
            x = rng.standard_normal(8)
            f, = ml_family(0.75, (0.75,), model_p2.eigenvalues * t**0.75)
            nx, nt = lp_norms([x, f * x], model_p2.basis, 2.0)
            assert nt <= bound * nx * (1.0 + 1e-12)

    def test_multiplier_against_subordination_quadrature(self, model_p2):
        # alpha int_0^inf tau xi(tau) exp(lambda t^alpha tau) dtau, mode 2, t = 0.5
        tau, w, vals = density_on_gauss_grid(0.75)
        arg = -4.0 * 0.5**0.75
        want = 0.75 * float(w @ (tau * vals * np.exp(arg * tau)))
        got = ml_family(0.75, (0.75,), model_p2.eigenvalues * 0.5**0.75)[0][1]
        assert got == pytest.approx(want, abs=1e-6)

    def test_multipliers_in_expected_ranges(self, model_p2):
        for t in np.linspace(0.0, 1.0, 9):
            s, f = ml_family(0.75, (1.0, 0.75), model_p2.eigenvalues * t**0.75)
            assert np.all((s > 0.0) & (s <= 1.0))
            assert np.all((f > 0.0) & (f <= 1.0 / math.gamma(0.75) + 1e-15))

    def test_array_of_times_gives_one_row_per_time(self, model_p2):
        ts = np.linspace(0.0, 1.0, 9)
        xs = np.random.default_rng(5).standard_normal((9, model_p2.n_modes))
        rows, forcing = ml_family(0.75, (1.0, 0.75), model_p2.eigenvalues * ts[:, None] ** 0.75)
        assert rows.shape == (9, model_p2.n_modes)
        for t, x, row, out in zip(ts, xs, rows, forcing * xs):
            s, f = ml_family(0.75, (1.0, 0.75), model_p2.eigenvalues * t**0.75)
            np.testing.assert_allclose(row, s, rtol=1e-13)
            np.testing.assert_allclose(out, f * x, rtol=1e-13)

    def test_multiplier_continuity_under_refinement(self, model_p2):
        t0 = 0.437
        s0, = ml_family(0.75, (1.0,), model_p2.eigenvalues * t0**0.75)
        gaps = []
        for dt in (1e-2, 1e-3, 1e-4):
            s, = ml_family(0.75, (1.0,), model_p2.eigenvalues * (t0 + dt) ** 0.75)
            gaps.append(np.max(np.abs(s - s0)))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] <= 1e-3

    def test_diagonal_multipliers_match_subordination(self, model_p2):
        tau, w, vals = density_on_gauss_grid(0.75)
        for t in (0.25, 1.0):
            s, f = ml_family(0.75, (1.0, 0.75), model_p2.eigenvalues * t**0.75)
            for n in (1, 3):
                lam = -float(n * n) * t**0.75
                want_s = float(w @ (vals * np.exp(lam * tau)))
                want_f = 0.75 * float(w @ (tau * vals * np.exp(lam * tau)))
                assert s[n - 1] == pytest.approx(want_s, abs=1e-6)
                assert f[n - 1] == pytest.approx(want_f, abs=1e-6)


class TestKernelOperators:
    def test_green_action_is_diagonal(self, model_p2):
        u = np.zeros(8)
        u[2] = 1.0
        out = model_p2.b_matrix @ u
        want = np.zeros(8)
        want[2] = math.pi / 9.0
        assert np.allclose(out, want, atol=1e-9)

    def test_asymmetric_b_matrix_rejected(self, model_p2):
        b = np.array(model_p2.b_matrix)
        b[0, 1] += 1e-11 * np.max(np.abs(b))
        with pytest.raises(ValueError, match="b_matrix must be symmetric"):
            dataclasses.replace(model_p2, b_matrix=b)
        b[0, 1] = b[1, 0] + 0.5e-12 * np.max(np.abs(b))  # within the bound: kept
        assert dataclasses.replace(model_p2, b_matrix=b).b_matrix[0, 1] == b[0, 1]
