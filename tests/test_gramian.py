import dataclasses
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from fracheat.fracops import TimeGrid
from fracheat.cli import cmd_validate, main
from fracheat.config import build_experiment, default_config_text, load_config
from fracheat.gramian import assemble_gramian, gramian_norm_bound, verify_gramian
from fracheat.lpspace import lp_norms, theta_grid
from fracheat.spectral import KernelSpec, build_model, green_kernel

from conftest import ORDER

BUNDLED = Path(__file__).resolve().parents[1] / "configs" / "heat_default.cfg"

# pi^2 * int_0^1 s^(-1/4) E_{3/4,3/4}(-s^(3/4))^2 ds, adaptive quadrature at 40 digits
G11_EXACT = 3.08492157961024642


class InjectivityReport(NamedTuple):
    """The report of the earlier `spectral.injectivity_diagnostic`."""

    sigma_min_b: float
    sigma_min_gramian: float
    controllable: bool

    @property
    def verdict(self) -> str:
        return (
            "approximately controllable (truncated)"
            if self.controllable
            else "degenerate (truncated)"
        )


def injectivity_diagnostic(model, gramian_matrix) -> InjectivityReport:
    """The earlier injectivity check, which ran its own eigensolve of the
    symmetrized Gramian next to `verify_gramian`'s: the smallest |eigenvalue|
    of B and of the Gramian, each against 1e-9."""
    g = np.asarray(gramian_matrix, float)
    sigma_b, sigma_g = (float(np.min(np.abs(np.linalg.eigvalsh(m))))
                        for m in (model.b_matrix, 0.5 * (g + g.T)))
    return InjectivityReport(sigma_b, sigma_g, sigma_b > 1e-9 and sigma_g > 1e-9)


@pytest.fixture(scope="module")
def bundled_exp():
    return build_experiment(load_config(BUNDLED), BUNDLED.parent)


def validate_injectivity_line(exp, model, capsys) -> str:
    """The injectivity line `validate` prints for `model` on the bundled
    experiment's grid and seed."""
    assert cmd_validate(dataclasses.replace(exp, model=model)) in (0, 1)
    line, = (s for s in capsys.readouterr().out.splitlines() if "] injectivity: " in s)
    return line


def zeroed_mode_model(model):
    crippled = np.array(model.b_matrix)
    crippled[4, :] = 0.0
    crippled[:, 4] = 0.0
    return dataclasses.replace(model, b_matrix=crippled)


def kernel_model(kind):
    """An 8-mode model with a "green" or "min" input kernel, or "table": a
    midpoint-sampled symmetric kernel."""
    theta = theta_grid(64)[:, None]
    table = green_kernel(theta, theta.T) + 0.5 * np.minimum(theta, theta.T) * np.minimum(
        math.pi - theta, math.pi - theta.T)
    spec = KernelSpec("custom", table) if kind == "table" else KernelSpec(kind)
    return build_model(8, ORDER, spec, None, 2.0, 256)


@pytest.fixture(scope="module")
def model1():
    return build_model(1, ORDER, None, None, 2.0, 256)


class TestAssembly:
    def test_single_mode_against_refined_oracle(self, model1):
        coarse = assemble_gramian(model1, TimeGrid(1.0, 512))[0, 0]
        fine = assemble_gramian(model1, TimeGrid(1.0, 5120))[0, 0]
        assert abs(coarse - fine) <= 1e-4 * abs(fine)
        # both converge to the adaptive-quadrature value, the finer one closer
        assert abs(fine - G11_EXACT) < abs(coarse - G11_EXACT)
        assert coarse == pytest.approx(G11_EXACT, rel=1e-4)

    def test_symmetry_defect(self, gram_p2):
        assert np.max(np.abs(gram_p2 - gram_p2.T)) <= 1e-12

    def test_green_model_is_diagonal(self, gram_p2):
        off = gram_p2 - np.diag(np.diag(gram_p2))
        assert np.max(np.abs(off)) <= 1e-10

    def test_resolution_guard(self, model1):
        with pytest.raises(ValueError, match="steps must be >= 16, got 8"):
            assemble_gramian(model1, TimeGrid(1.0, 8))

    def test_matrix_is_read_only(self, gram_p2):
        assert gram_p2.shape == (8, 8) and not gram_p2.flags.writeable
        with pytest.raises(ValueError):
            gram_p2[0, 0] = 0.0

    def test_monotone_assembly_convergence(self, model1):
        entries = [assemble_gramian(model1, TimeGrid(1.0, q))[0, 0] for q in (64, 128, 256, 512)]
        diffs = [abs(b - a) for a, b in zip(entries, entries[1:])]
        assert diffs[0] > diffs[1] > diffs[2]


class TestVerification:
    def test_report_fields(self, gram_p2, model_p2, grid_512):
        rep = verify_gramian(gram_p2, model_p2, grid_512)
        assert rep.symmetric and rep.positive and rep.quadratic_form_ok and rep.norm_bound_ok
        assert rep.symmetry_defect <= 1e-10
        assert rep.min_eigenvalue >= -1e-10
        assert rep.quadratic_form_gap <= 1e-8
        assert rep.norm_bound_slack <= 1.0

    def test_zero_vector_quadratic_form(self, gram_p2):
        assert gram_p2 @ np.zeros(8) @ np.zeros(8) == 0.0

    def test_symmetry_as_bilinear_form(self, gram_p2):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x1 = rng.standard_normal(8)
            x2 = rng.standard_normal(8)
            gap = abs(x1 @ gram_p2 @ x2 - x2 @ gram_p2 @ x1)
            assert gap <= 1e-10 * np.linalg.norm(x1) * np.linalg.norm(x2)

    def test_positivity_random_and_strict(self, gram_p2):
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.standard_normal(8)
            val = x @ gram_p2 @ x
            assert val >= -1e-10
            assert val > 0.0  # strictly positive for the nondegenerate model

    def test_norm_bound_paper_estimate(self, gram_p2, model_p2, grid_512):
        bound = gramian_norm_bound(model_p2, grid_512)
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.standard_normal(8)
            img, = lp_norms(gram_p2 @ x, model_p2.basis, 2.0)
            src, = lp_norms(x, model_p2.basis, model_p2.dual_p)
            assert img <= bound * src


    def test_norm_bound_reads_the_grids_horizon(self, model_p2):
        # the model keeps no horizon of its own: on a 2.0 grid the bound and
        # its slack are those of a = 2, as `gramian --set model.horizon=2.0`
        # prints them (a model that kept horizon 1.0 reported slack 0.279)
        grid = TimeGrid(2.0, 512)
        report = verify_gramian(assemble_gramian(model_p2, grid), model_p2, grid)
        alpha = model_p2.order.alpha
        assert report.norm_bound == ((model_p2.m_bound / math.gamma(alpha)) ** 2
                                     * model_p2.b_norm_bound**2 * 2.0**alpha / alpha)
        assert report.norm_bound == gramian_norm_bound(model_p2, grid)
        assert f"{report.norm_bound_slack:.3f}" == "0.166"
        assert report.norm_bound_ok

    def test_norm_bound_is_finite_past_the_power_overflow(self, gram_p2, grid_512):
        # the kernel norm bound overflowed to inf from p ~ 800, and the check
        # then passed with slack 0 whatever the Gramian; the Gramian itself does
        # not depend on p
        model = build_model(8, ORDER, None, None, 800.0, 256)
        report = verify_gramian(gram_p2, model, grid_512)
        assert math.isfinite(report.norm_bound) and report.norm_bound_slack > 0.0
        assert report.norm_bound_ok


class TestMinSingular:
    """sigma_min(G) as `verify_gramian` reports it (and `gramian` prints it)."""

    def test_diagonal_case(self, model_p2, gram_p2, grid_512):
        assert verify_gramian(gram_p2, model_p2, grid_512).sigma_min == pytest.approx(
            np.diag(gram_p2).min(), rel=1e-10
        )

    def test_synthetic_zero_mode(self, model_p2, gram_p2, grid_512):
        g = np.array(gram_p2)
        g[5, :] = 0.0
        g[:, 5] = 0.0
        assert verify_gramian(g, model_p2, grid_512).sigma_min == pytest.approx(
            0.0, abs=1e-14)

    def test_against_eigendecomposition_oracle(self, model_p2, gram_p2, grid_512):
        oracle = math.sqrt(min(np.linalg.eigvalsh(gram_p2.T @ gram_p2)))
        assert verify_gramian(gram_p2, model_p2, grid_512).sigma_min == pytest.approx(
            oracle, rel=1e-8)


class TestInjectivity:
    """`verify_gramian`'s sigma_min(B) and sigma_min(G), and the verdict
    `validate` prints from them.  Each check passes a Gramian assembled on the
    test's own model, as the `validate` and `gramian` commands do."""

    @pytest.mark.parametrize("name", ["bundled", "single-mode", "zeroed-mode", "min", "table"])
    def test_matches_the_earlier_diagnostic(self, name, bundled_exp, model_p2, capsys):
        model = {
            "bundled": lambda: bundled_exp.model,
            "single-mode": lambda: build_model(1, ORDER, None, None, 2.0, 256),
            "zeroed-mode": lambda: zeroed_mode_model(model_p2),
            "min": lambda: kernel_model("min"),
            "table": lambda: kernel_model("table"),
        }[name]()
        gram = assemble_gramian(model, bundled_exp.grid)
        old = injectivity_diagnostic(model, gram)
        rep = verify_gramian(gram, model, bundled_exp.grid)
        assert rep.sigma_min == old.sigma_min_gramian  # bit for bit
        assert rep.sigma_min_b == old.sigma_min_b
        assert validate_injectivity_line(bundled_exp, model, capsys) == (
            f"[{'PASS' if old.controllable else 'FAIL'}] injectivity: {old.verdict}: "
            f"sigma_min(B)={old.sigma_min_b:.3e} sigma_min(G)={old.sigma_min_gramian:.3e}")
        assert old.controllable == (name != "zeroed-mode")

    def test_green_model_positive(self, model_p2, gram_p2, grid_512, bundled_exp, capsys):
        rep = verify_gramian(gram_p2, model_p2, grid_512)
        assert rep.sigma_min_b == pytest.approx(math.pi / 64.0, abs=1e-8)
        assert validate_injectivity_line(bundled_exp, model_p2, capsys).startswith(
            "[PASS] injectivity: approximately controllable (truncated): ")

    def test_single_mode(self, bundled_exp, capsys):
        model = build_model(1, ORDER, None, None, 2.0, 256)
        rep = verify_gramian(assemble_gramian(model, TimeGrid(1.0, 512)), model,
                             TimeGrid(1.0, 512))
        assert rep.sigma_min_b == pytest.approx(math.pi, rel=1e-10)
        assert validate_injectivity_line(bundled_exp, model, capsys).startswith("[PASS] ")

    def test_zeroed_mode_flagged(self, model_p2, bundled_exp, capsys):
        model = zeroed_mode_model(model_p2)
        # B B^T has a zero row and column, so the Gramian is singular too
        rep = verify_gramian(assemble_gramian(model, TimeGrid(1.0, 512)), model,
                             TimeGrid(1.0, 512))
        assert rep.sigma_min <= 1e-9
        assert validate_injectivity_line(bundled_exp, model, capsys).startswith(
            "[FAIL] injectivity: degenerate (truncated): ")

    def test_gramian_branch(self, model_p2, gram_p2, grid_512, bundled_exp, capsys):
        rep = verify_gramian(gram_p2, model_p2, grid_512)
        assert rep.sigma_min > 1e-9
        assert validate_injectivity_line(bundled_exp, model_p2, capsys).startswith("[PASS] ")

    @pytest.mark.parametrize("kind", ["green", "min", "table"])
    def test_eigenvalues_match_the_svd(self, kind, model_p2, gram_p2, grid_512):
        # sigma_min as the smallest |eigenvalue| of the symmetric B and the
        # symmetrized Gramian, against the SVD it replaced; the bundled
        # Gramian comes too
        model = kernel_model(kind)
        pairs = [(model, assemble_gramian(model, grid_512))]
        if kind == "green":
            pairs.append((model_p2, gram_p2))
        for m, gram in pairs:
            rep = verify_gramian(gram, m, grid_512)
            for got, matrix in ((rep.sigma_min_b, m.b_matrix), (rep.sigma_min, gram)):
                want = np.linalg.svd(matrix, compute_uv=False)[-1]
                assert abs(got - want) <= 1e-12 * want


def test_csv_export(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(default_config_text())
    settings = ["solver.steps=96", "solver.n_theta=64"]
    assert main(["gramian", str(config)] + [a for s in settings for a in ("--set", s)]) == 0
    lines = (tmp_path / "out" / "gramian.csv").read_text().splitlines()
    assert lines[0].startswith("# fracheat=")
    assert lines[1] == "row," + ",".join(f"c{j}" for j in range(1, 9))
    assert len(lines) == 2 + 8
    # each float's repr reads back as the assembled entry, bit for bit
    exp = build_experiment(load_config(config, settings), tmp_path)
    table = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    assert np.array_equal(table[:, 0], np.arange(1, 9))
    assert np.array_equal(table[:, 1:], assemble_gramian(exp.model, exp.grid))
