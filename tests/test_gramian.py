import math

import numpy as np
import pytest

from fracheat.fracops import TimeGrid
from fracheat.cli import main
from fracheat.config import build_experiment, default_config_text, load_config
from fracheat.gramian import assemble_gramian, gramian_norm_bound, verify_gramian
from fracheat.lpspace import lp_norms
from fracheat.spectral import build_model, injectivity_diagnostic

from conftest import ORDER

# pi^2 * int_0^1 s^(-1/4) E_{3/4,3/4}(-s^(3/4))^2 ds, adaptive quadrature at 40 digits
G11_EXACT = 3.08492157961024642


@pytest.fixture(scope="module")
def model1():
    return build_model(1, ORDER, 1.0, None, None, 2.0, 256)


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

    def test_norm_bound_paper_estimate(self, gram_p2, model_p2):
        bound = gramian_norm_bound(model_p2)
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.standard_normal(8)
            img, = lp_norms(gram_p2 @ x, 256, 2.0)
            src, = lp_norms(x, 256, model_p2.dual_p)
            assert img <= bound * src


class TestMinSingular:
    """sigma_min(G) as `injectivity_diagnostic` reports it (and `gramian` prints it)."""

    def test_diagonal_case(self, model_p2, gram_p2):
        assert injectivity_diagnostic(model_p2, gram_p2).sigma_min_gramian == pytest.approx(
            np.diag(gram_p2).min(), rel=1e-10
        )

    def test_synthetic_zero_mode(self, model_p2, gram_p2):
        g = np.array(gram_p2)
        g[5, :] = 0.0
        g[:, 5] = 0.0
        assert injectivity_diagnostic(model_p2, g).sigma_min_gramian == pytest.approx(
            0.0, abs=1e-14)

    def test_against_eigendecomposition_oracle(self, model_p2, gram_p2):
        oracle = math.sqrt(min(np.linalg.eigvalsh(gram_p2.T @ gram_p2)))
        assert injectivity_diagnostic(model_p2, gram_p2).sigma_min_gramian == pytest.approx(
            oracle, rel=1e-8)


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
