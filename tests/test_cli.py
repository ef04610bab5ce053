import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracheat
from fracheat.cli import main
from fracheat.config import _SCHEMA, _hash, build_experiment, default_config_text, load_config
from fracheat.lpspace import basis_matrix, theta_grid


BUNDLED = Path(__file__).resolve().parents[1] / "configs" / "heat_default.cfg"
SMALL_OVERRIDES = [
    "--set", "model.modes=4",
    "--set", "solver.steps=96",
    "--set", "solver.n_theta=64",
    "--set", "sweep.epsilons=1e-1, 1e-2",
]


def numeric_keys() -> list[tuple[str, str]]:
    """(section.key, "an integer" or "a number") for each key of the schema
    whose default is a number or a comma list of numbers."""
    keys = []
    for section, items in _SCHEMA.items():
        for key, default in items.items():
            try:
                [float(v) for v in default.split(",")]
            except ValueError:
                continue
            keys.append((f"{section}.{key}", "an integer" if default.isdigit() else "a number"))
    return keys


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(default_config_text())
    return path


class TestConfig:
    def test_default_text_is_loadable(self, config_file):
        cfg = load_config(config_file)
        exp = build_experiment(cfg, config_file.parent)
        assert exp.model.n_modes == 8
        assert exp.grid.steps == 512
        assert exp.epsilons == [0.1, 0.01, 0.001, 0.0001]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(default_config_text() + "\n[model]\n")
        path.write_text(default_config_text().replace("modes = 8", "modes = 8\nturbo = yes"))
        with pytest.raises(ValueError, match="unknown key"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(default_config_text() + "\n[extras]\nfoo = 1\n")
        with pytest.raises(ValueError, match="unknown config section"):
            load_config(path)

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(default_config_text().replace("schema_version = 2", "schema_version = 1"))
        with pytest.raises(ValueError, match="schema_version"):
            load_config(path)

    def test_alpha_guard_revalidated(self, config_file):
        cfg = load_config(config_file, ["model.alpha=0.4"])
        with pytest.raises(ValueError, match=r"alpha must lie in \(1/2, 1\)"):
            build_experiment(cfg, config_file.parent)

    def test_epsilon_floor(self, config_file, capsys):
        cfg = load_config(config_file, ["sweep.epsilons=1e-1, 1e-6"])
        with pytest.raises(ValueError, match="1e-5"):
            build_experiment(cfg, config_file.parent)
        assert main(["sweep", str(config_file), "--set", "sweep.epsilons=1e-1, 1e-6"]) == 1
        assert "1e-5" in capsys.readouterr().err

    def test_quad_steps_key_rejected(self, config_file, capsys):
        # the grid's steps are the one time resolution, the Gramian's too
        assert main(["gramian", str(config_file), "--set", "solver.quad_steps=1024"]) == 1
        assert capsys.readouterr().err == (
            "configuration error: unknown key 'quad_steps' in section [solver]\n")

    @pytest.mark.parametrize("setting,message", [
        ("solver.steps=8", "steps must be >= 16, got 8"),
        ("solver.resolvent_tol=-1", "solver.resolvent_tol must be finite and >= 0, got -1.0"),
        ("solver.resolvent_tol=nan", "solver.resolvent_tol must be finite and >= 0, got nan"),
        ("solver.resolvent_max_iter=-1",
         "solver.resolvent_max_iter must be an integer >= 1, got -1"),
        ("solver.fixed_point_tol=inf", "solver.fixed_point_tol must be finite and >= 0, got inf"),
        ("solver.fixed_point_max_iter=0",
         "solver.fixed_point_max_iter must be an integer >= 1, got 0"),
        ("solver.strategy=greedy",
         "strategy must be one of ('minimal_norm', 'midpoint', 'sign_zero', 'sticky'), "
         "got 'greedy'"),
        ("solver.relaxation=1.5", "relaxation must lie in (0, 1], got 1.5"),
        ("solver.steps=1.5", "solver.steps must be an integer, got '1.5'"),
        ("solver.resolvent_max_iter=1.5",
         "solver.resolvent_max_iter must be an integer, got '1.5'"),
        ("solver.fixed_point_max_iter=2.0",
         "solver.fixed_point_max_iter must be an integer, got '2.0'"),
        ("solver.resolvent_tol=x", "solver.resolvent_tol must be a number, got 'x'"),
        ("solver.fixed_point_tol=1e-8x", "solver.fixed_point_tol must be a number, got '1e-8x'"),
        ("solver.relaxation=half", "solver.relaxation must be a number, got 'half'"),
    ])
    def test_solver_guard_exits_1_with_its_message(self, config_file, capsys, setting, message):
        """A bad solver setting fails at load, before any work: the range
        checks of `gramian` and `hvi` see numbers that `config` converted."""
        assert main(["sweep", str(config_file), "--set", setting]) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    @pytest.mark.parametrize("key,noun,value", [
        (key, noun, value) for key, noun in numeric_keys()
        for value in ("x", "0.4.1", "1e-8x") + (("1.5", "2.0") if noun == "an integer" else ())])
    def test_numeric_key_exits_1_naming_it(self, config_file, capsys, key, noun, value):
        """Every numeric key of the schema: text that is no such number fails
        before any work with a message naming section.key, and writes no file."""
        assert main(["sweep", str(config_file), "--set", f"{key}={value}"]) == 1
        assert capsys.readouterr().err == (
            f"configuration error: {key} must be {noun}, got {value!r}\n")
        assert not (config_file.parent / "out").exists()

    @pytest.mark.parametrize("setting,message", [
        ("model.p=", "model.p must be a number, got ''"),
        ("sweep.epsilons=1e-1, 1e-2x", "sweep.epsilons must be a number, got '1e-2x'"),
        ("problem.potential=abs:x", "problem.potential coefficient must be a number, got 'x'"),
        ("problem.potential=sat:y", "problem.potential coefficient must be a number, got 'y'"),
        ("problem.potential=sat:0.3:y", "problem.potential cap must be a number, got 'y'"),
        ("problem.target=coeffs: 0.1, abc",
         "problem.target coefficient must be a number, got 'abc'"),
        ("problem.target=coeffs: 0.6, , 0.2", "problem.target coefficient must be a number, got ''"),
        ("problem.x0=coeffs: 0.6, 0.2,", "problem.x0 coefficient must be a number, got ''"),
        ("problem.x0=sine:1.5", "problem.x0 sine mode must be an integer, got '1.5'"),
        ("problem.x0=sine:2:w", "problem.x0 amplitude must be a number, got 'w'"),
        ("sweep.epsilons=nan", "sweep.epsilons must be finite, got nan"),
        ("sweep.epsilons=inf", "sweep.epsilons must be finite, got inf"),
        ("sweep.epsilons=1e-1, nan", "sweep.epsilons must be finite, got nan"),
        ("sweep.epsilons=inf, 1e-1", "sweep.epsilons must be finite, got inf"),
    ])
    def test_numeric_setting_exits_1_naming_its_key(self, config_file, capsys, setting, message):
        """Text that is no number, or a non-finite epsilon, fails before any
        work with a message that names the key, and writes no file."""
        out = config_file.parent / "out"
        assert main(["sweep", str(config_file), "--set", setting]) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("setting,message", [
        ("model.modes=0", "n_modes must be >= 1, got 0"),
        ("model.modes=-3", "n_modes must be >= 1, got -3"),
        ("model.horizon=inf", "horizon must be positive and finite, got inf"),
        ("model.horizon=1e400", "horizon must be positive and finite, got inf"),
        ("model.p=inf", "state exponent p must be finite and >= 2, got inf"),
        ("problem.potential=abs:nan", "abs potential coefficient must be finite and >= 0, got nan"),
        ("problem.potential=abs:inf", "abs potential coefficient must be finite and >= 0, got inf"),
        ("problem.potential=sat:inf",
         "sat potential needs a finite c >= 0 and cap > 0, got c=inf, cap=1.0"),
        ("problem.potential=sat:1:nan",
         "sat potential needs a finite c >= 0 and cap > 0, got c=1.0, cap=nan"),
        ("problem.x0=coeffs: 1, nan", "problem.x0 coefficient must be finite, got nan"),
        ("problem.x0=sine:2:inf", "problem.x0 amplitude must be finite, got inf"),
        ("problem.target=coeffs: 0.6, -inf", "problem.target coefficient must be finite, got -inf"),
        ("problem.potential=sat:0.3:0.5:7",
         "problem.potential must be sat:c[:cap], got 'sat:0.3:0.5:7'"),
        ("problem.x0=sine:2:1.0:junk", "problem.x0 must be sine:n[:amp], got 'sine:2:1.0:junk'"),
        ("model.kernel_b=foo", "model.kernel_b must be green, min or table:<path>, got 'foo'"),
        ("model.kernel_h=foo", "model.kernel_h must be green, min or table:<path>, got 'foo'"),
        ("problem.x0=sine:9", "problem.x0 sine mode 9 outside 1..8"),
        ("problem.target=sine:0", "problem.target sine mode 0 outside 1..8"),
        ("problem.x0=wave",
         "problem.x0 must be zero, bump, coeffs:... or sine:n[:amp], got 'wave'"),
        ("problem.target=wave",
         "problem.target must be zero, bump, coeffs:... or sine:n[:amp], got 'wave'"),
        ("problem.potential=quad:1",
         "problem.potential must be zero, abs:c, sat:c[:cap] or table:<path>, got 'quad:1'"),
        ("sweep.epsilons=", "sweep.epsilons must be a nonempty strictly descending list"),
        ("sweep.epsilons=1e-2, 1e-1", "sweep.epsilons must be a nonempty strictly descending list"),
        ("sweep.epsilons=1e-1, 1e-1", "sweep.epsilons must be a nonempty strictly descending list"),
        ("sweep.epsilons=1e-1, 1e-6", "sweep.epsilons below the 1e-5 desk-scale floor, got 1e-06"),
        ("output.formats=", "output.formats must name csv, json or both, got ''"),
        ("output.formats= , ", "output.formats must name csv, json or both, got ','"),
    ])
    def test_model_and_problem_guard_exits_1_naming_its_key(self, config_file, capsys, setting,
                                                           message):
        """A non-finite, empty, malformed or out-of-range model, problem, output
        or sweep setting fails before any work, through the constructor that
        owns it, instead of crashing or running on nonsense later, and writes
        no file."""
        key = setting.split("=")[0].split(".")[1]
        assert key in message
        assert main(["sweep", str(config_file), "--set", setting]) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not (config_file.parent / "out").exists()

    @pytest.mark.parametrize("setting,table,message", [
        ("problem.potential", "0.0,1.0\n",
         "problem.potential table must have n >= 2 rows of (r, F), got shape (1, 2)"),
        ("problem.potential", "-1.0\n0.0\n1.0\n",
         "problem.potential table must have n >= 2 rows of (r, F), got shape (3, 1)"),
        ("problem.potential", "-1,1,0\n0,0,0\n1,1,0\n",
         "problem.potential table must have n >= 2 rows of (r, F), got shape (3, 3)"),
        ("problem.potential", "-1,1\n0,nan\n1,1\n", "potential table entries must be finite"),
        ("problem.potential", "-1e-300,0\n1e-300,1e10\n", "potential table slopes must be finite"),
        ("model.kernel_b", "\n".join(",".join("nan" if i == j == 3 else "1.0" for j in range(16))
                                      for i in range(16)), "kernel table entries must be finite"),
    ], ids=["one-row", "one-column", "three-columns", "nan-potential", "overflowing-slope",
            "nan-kernel"])
    def test_table_input_exits_1_before_any_output(self, config_file, capsys, setting, table,
                                                    message):
        """A table file that cannot describe its input fails at load, through
        the constructor that owns it, instead of crashing in a solver."""
        (config_file.parent / "table.csv").write_text(table)
        assert main(["sweep", str(config_file), "--set", f"{setting}=table:table.csv"]) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not (config_file.parent / "out").exists()

    def test_zero_fixed_point_tol_still_converges(self, config_file, capsys):
        # a tolerance of 0 asks for a bitwise-settled selection, which the
        # sticky strategy reaches
        zero = ["solver.fixed_point_tol=0", "solver.resolvent_tol=0"]
        exp = build_experiment(load_config(config_file, zero), config_file.parent)
        assert exp.fixed_point_tol == 0.0 and exp.resolvent_tol == 0.0
        assert main(["sweep", str(config_file)] + SMALL_OVERRIDES
                    + ["--set", "solver.fixed_point_tol=0"]) == 0
        assert capsys.readouterr().out.count("converged=True") == 2

    def test_hash_tracks_content(self, config_file):
        a = load_config(config_file)
        b = load_config(config_file, ["model.modes=4"])
        assert a.sha256 != b.sha256

    @pytest.mark.parametrize("overrides", [[], ["model.p=4"], ["model.modes=4", "solver.seed=7"],
                                           ["problem.target=bump", "sweep.epsilons=1e-2"]])
    def test_hash_is_the_sha256_of_the_canonical_dump(self, overrides):
        # the interpreter's built-in sha256 gives what hashlib's OpenSSL one gives
        cfg = load_config(BUNDLED, overrides)
        canon = ";".join(f"{s}.{k}={cfg.raw[s][k]}" for s in sorted(cfg.raw)
                         for k in sorted(cfg.raw[s]))
        assert _hash(cfg.raw) == cfg.sha256 == hashlib.sha256(canon.encode()).hexdigest()[:16]

    def test_bundled_config_hash_is_pinned(self):
        # the header of every output file made from the bundled config carries it
        assert load_config(BUNDLED).sha256 == "51bb3671c73a2695"

    def test_state_specs(self, config_file):
        cfg = load_config(config_file, ["problem.x0=sine:2:0.5"])
        exp = build_experiment(cfg, config_file.parent)
        assert np.allclose(exp.x0, [0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        cfg = load_config(config_file, ["problem.x0=coeffs: 1, 2"])
        exp = build_experiment(cfg, config_file.parent)
        assert np.allclose(exp.x0[:2], [1.0, 2.0])
        cfg = load_config(config_file, ["problem.x0=pyramid"])
        with pytest.raises(ValueError):
            build_experiment(cfg, config_file.parent)

    def test_bump_state_is_the_sine_basis_product(self, config_file):
        # h W^T theta (pi - theta) as one BLAS product: a row contraction
        # moves x0 in the last bit, and every output file with it
        exp = build_experiment(load_config(config_file), config_file.parent)
        theta = theta_grid(256)
        want = basis_matrix(8, 256).T @ (theta * (math.pi - theta)) * (math.pi / 256)
        assert np.array_equal(exp.x0, want)


class TestCommands:
    def test_sweep_gramian_and_closed_loop_share_one_propagator(self, config_file, monkeypatch):
        from fracheat import control, evolve, gramian

        seen = []
        for module in (gramian, control, evolve):
            def record(model, grid, _module=module.__name__, _original=module.propagator):
                prop = _original(model, grid)
                seen.append((_module, prop))
                return prop
            monkeypatch.setattr(module, "propagator", record)
        assert main(["sweep", str(config_file)] + SMALL_OVERRIDES) == 0
        # Gramian assembly, deficiency and control synthesis, mild solutions
        assert {module for module, _ in seen} == {"fracheat.gramian", "fracheat.control",
                                                  "fracheat.evolve"}
        assert all(prop is seen[0][1] for _, prop in seen)

    def test_validate_passes_on_default(self, config_file, capsys):
        rc = main(["validate", str(config_file)] + SMALL_OVERRIDES)
        out = capsys.readouterr().out
        assert rc == 0
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    @pytest.mark.parametrize("alpha", ["0.99", "0.995", "0.998", "0.999"])
    def test_validate_passes_near_alpha_one(self, config_file, capsys, alpha):
        # the density's peak at tau = 1 narrows as alpha -> 1: 10 fixed panels
        # failed the density lines at 0.999 (mass defect -5.98e-6)
        rc = main(["validate", str(config_file), *SMALL_OVERRIDES, "--set", f"model.alpha={alpha}"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[FAIL]" not in out

    @pytest.mark.parametrize("p", ["2", "4"])
    def test_validate_seed_fixes_the_sample_lines(self, config_file, capsys, p):
        def run(seed):
            assert main(["validate", str(config_file), *SMALL_OVERRIDES, "--set", f"model.p={p}",
                         "--set", f"solver.seed={seed}"]) == 0
            return capsys.readouterr().out.splitlines()

        first, again, other = run(3), run(3), run(4)
        assert first == again
        assert len(first) == len(other) == 13
        assert all(line.startswith("[PASS] ") for line in first + other)
        changed = {a[len("[PASS] "):].split(":")[0] for a, b in zip(first, other) if a != b}
        # only the checks that draw sample vectors move with the seed
        assert changed <= {"duality map <f, Jf> identity", "duality map norm identity",
                           "state-family bound M", "forcing-family bound M/Gamma(alpha)",
                           "gramian quadratic-form identity", "gramian norm bound",
                           "resolvent contraction bound"}
        assert {"state-family bound M", "forcing-family bound M/Gamma(alpha)",
                "resolvent contraction bound"} <= changed

    def test_gramian_audit_draws_its_own_vectors(self, config_file, monkeypatch, capsys):
        import fracheat.cli as cli_module
        import fracheat.gramian as gramian_module

        draws = {}
        for module in (cli_module, gramian_module):
            def record(rng, rows, cols, _name=module.__name__, _draw=module.gaussian_rows):
                draws.setdefault(_name, []).append(_draw(rng, rows, cols))
                return draws[_name][-1]
            monkeypatch.setattr(module, "gaussian_rows", record)
        assert main(["validate", str(config_file)] + SMALL_OVERRIDES) == 0
        duality = draws["fracheat.cli"][0]  # validate's first draw
        audit, = draws["fracheat.gramian"]
        assert duality.shape == (20, 4) and audit.shape == (50, 4)
        assert not any(np.array_equal(a, d) for a in audit for d in duality)

    def test_validate_makes_one_family_call_and_one_gramian_eigensolve(self, monkeypatch, capsys):
        # on the bundled config with a cold propagator, as in a fresh process:
        # ml_family once for the density checks, once for both family bounds
        # and once for the Gramian's e_force; eigvalsh once on the symmetrized
        # Gramian (positivity and injectivity) and once on B
        import fracheat.evolve as evolve_module
        from fracheat.fracops import ml_family

        counts = {"eigvalsh": 0, "ml_family": 0}

        def counting(name, fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
        for name, module in list(sys.modules.items()):
            if name.startswith("fracheat") and getattr(module, "ml_family", None) is ml_family:
                monkeypatch.setattr(module, "ml_family", counting("ml_family", ml_family))
        evolve_module._shared.cache_clear()
        assert main(["validate", str(BUNDLED)]) == 0
        assert "[FAIL]" not in capsys.readouterr().out
        assert counts == {"eigvalsh": 2, "ml_family": 3}

    def test_validate_rejects_bad_alpha(self, config_file, capsys):
        rc = main(["validate", str(config_file), "--set", "model.alpha=0.4"])
        assert rc == 1
        assert "alpha" in capsys.readouterr().err

    def test_asymmetric_custom_kernel_rejected(self, tmp_path, capsys):
        table = np.ones((16, 16))
        table[2, 9] = 7.0
        np.savetxt(tmp_path / "kernel.csv", table, delimiter=",")
        path = tmp_path / "exp.cfg"
        path.write_text(default_config_text().replace("kernel_b = green",
                                                      "kernel_b = table:kernel.csv"))
        rc = main(["validate", str(path)] + SMALL_OVERRIDES)
        assert rc == 1
        assert "asymmetric" in capsys.readouterr().err

    def test_simulate_writes_trajectory(self, config_file, capsys):
        rc = main(["simulate", str(config_file)] + SMALL_OVERRIDES
                  + ["--forcing-coeffs", "0.4,0.1"])
        assert rc == 0
        path = config_file.parent / "out" / "trajectory.csv"
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# fracheat=")
        assert lines[1].split(",")[-1] == "l1_gap"
        assert len(lines) == 2 + 97
        gaps = [float(line.split(",")[-1]) for line in lines[2:]]
        scale = 3.2  # bump initial state norm ~ 3.19
        assert max(gaps) <= 1e-2 * scale

    def test_simulate_homogeneous_matches_relaxation(self, config_file, capsys):
        rc = main(["simulate", str(config_file)] + SMALL_OVERRIDES)
        assert rc == 0
        out = capsys.readouterr().out
        rel = float(out.split("cross-solver gap:")[1].split("relative")[0])
        assert rel <= 1e-3
        # homogeneous run: trajectory equals the relaxation of x0, column-wise
        from fracheat.fracops import ml_family
        from fracheat.config import build_experiment, load_config

        cfg = load_config(config_file, ["model.modes=4", "solver.steps=96",
                                        "solver.n_theta=64"])
        exp = build_experiment(cfg, config_file.parent)
        lines = (config_file.parent / "out" / "trajectory.csv").read_text().splitlines()
        for line in lines[2::24]:
            cells = [float(v) for v in line.split(",")]
            t = cells[1]
            want = ml_family(0.75, (1.0,), -(np.arange(1.0, 5.0) ** 2) * t**0.75)[0] * exp.x0
            assert cells[2:6] == pytest.approx(want, abs=1e-12)

    def test_gramian_export(self, config_file):
        rc = main(["gramian", str(config_file)] + SMALL_OVERRIDES)
        assert rc == 0
        assert (config_file.parent / "out" / "gramian.csv").exists()

    def test_sweep_outputs_and_exit_code(self, config_file):
        rc = main(["sweep", str(config_file)] + SMALL_OVERRIDES)
        assert rc == 0
        out = config_file.parent / "out"
        assert (out / "sweep.csv").exists()
        assert (out / "trajectory_eps_1e-1.csv").exists()
        assert (out / "control_eps_1e-2.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["free_terminal_miss"] > 0.0
        assert len(summary["entries"]) == 2
        assert all(e["converged"] for e in summary["entries"])
        assert all(e["identity_residual"] <= 1e-6 for e in summary["entries"])
        header = (out / "sweep.csv").read_text().splitlines()[1]
        assert header == "epsilon,terminal_miss,control_energy,iterations,converged"

    def test_close_epsilons_write_distinct_files(self, config_file):
        # ".0e" names both 3e-2 and 2.5e-2 "3e-2": the second would overwrite the first
        overrides = [*SMALL_OVERRIDES[:-2], "--set", "sweep.epsilons=3e-2, 2.5e-2"]
        assert main(["sweep", str(config_file)] + overrides) == 0
        out = config_file.parent / "out"
        epsilons = [e["epsilon"] for e in json.loads((out / "summary.json").read_text())["entries"]]
        for kind in ("trajectory", "control"):
            names = sorted(p.name for p in out.glob(f"{kind}_eps_*.csv"))
            assert names == [f"{kind}_eps_2.5e-2.csv", f"{kind}_eps_3e-2.csv"]
            tags = [name[len(f"{kind}_eps_"):-len(".csv")] for name in names]
            assert sorted(map(float, tags)) == sorted(epsilons)

    def test_sweep_deterministic_outputs(self, tmp_path):
        files = {}
        for tag in ("a", "b"):
            sub = tmp_path / tag
            sub.mkdir()
            cfg = sub / "exp.cfg"
            cfg.write_text(default_config_text())
            rc = main(["sweep", str(cfg)] + SMALL_OVERRIDES)
            assert rc == 0
            files[tag] = {
                p.name: p.read_bytes() for p in sorted((sub / "out").glob("*.csv"))
            }
        assert files["a"].keys() == files["b"].keys()
        for name in files["a"]:
            assert files["a"][name] == files["b"][name], name

    def test_zero_potential_sweep_matches_linear_formula(self, config_file):
        from fracheat.gramian import assemble_gramian
        from fracheat.evolve import mild_solution
        from fracheat.lpspace import lp_norms

        rc = main(["sweep", str(config_file)] + SMALL_OVERRIDES
                  + ["--set", "problem.potential=zero"])
        assert rc == 0
        summary = json.loads((config_file.parent / "out" / "summary.json").read_text())
        cfg = load_config(config_file, [
            "model.modes=4", "solver.steps=96", "solver.n_theta=64",
            "sweep.epsilons=1e-1, 1e-2", "problem.potential=zero",
        ])
        exp = build_experiment(cfg, config_file.parent)
        gram = assemble_gramian(exp.model, exp.grid)
        free = mild_solution(exp.model, exp.grid, exp.x0)
        d = exp.target - free[-1]
        for entry in summary["entries"]:
            w = np.linalg.solve(entry["epsilon"] * np.eye(4) + gram, d)
            want, = lp_norms(entry["epsilon"] * w, exp.model.basis, 2.0)
            assert entry["terminal_miss"] == pytest.approx(want, rel=1e-8)

    def test_sweep_nonconvergence_exit_code(self, config_file):
        # one fixed-point pass cannot converge for a genuinely nonsmooth run
        rc = main(["sweep", str(config_file)] + SMALL_OVERRIDES
                  + ["--set", "solver.fixed_point_max_iter=1"])
        assert rc == 2
        summary = json.loads((config_file.parent / "out" / "summary.json").read_text())
        assert any(not e["converged"] for e in summary["entries"])

    def test_failed_entries_write_valid_json(self, config_file):
        # one resolvent iteration cannot solve the p = 4 equation: every
        # entry becomes a failure row without numbers
        rc = main(["sweep", str(config_file)] + SMALL_OVERRIDES
                  + ["--set", "model.p=4", "--set", "solver.resolvent_max_iter=1"])
        assert rc == 2

        def reject(token):
            raise ValueError(f"{token} is not valid JSON")

        text = (config_file.parent / "out" / "summary.json").read_text()
        summary = json.loads(text, parse_constant=reject)
        assert all(e["terminal_miss"] is None and not e["converged"]
                   for e in summary["entries"])
        # the ConvergenceError reason and its residual history survive
        assert all(e["failure"] and len(e["residual_history"]) >= 1
                   for e in summary["entries"])

    def test_summary_reports_fixed_point_history(self, config_file):
        rc = main(["sweep", str(config_file)] + SMALL_OVERRIDES)
        assert rc == 0
        summary = json.loads((config_file.parent / "out" / "summary.json").read_text())
        for e in summary["entries"]:
            assert len(e["fixed_point_history"]) == e["iterations"]
            assert e["fixed_point_history"][-1] <= 1e-8
            assert 0.0 <= e["fixed_point_residual"] <= 1e-8
        # a failed solve has no fixed point: null residual, empty history
        rc = main(["sweep", str(config_file)] + SMALL_OVERRIDES
                  + ["--set", "model.p=4", "--set", "solver.resolvent_max_iter=1"])
        assert rc == 2
        summary = json.loads((config_file.parent / "out" / "summary.json").read_text())
        assert all(e["fixed_point_residual"] is None and e["fixed_point_history"] == []
                   and e["closed_loops"] == 0 for e in summary["entries"])

    def test_summary_counts_closed_loops_per_entry(self, config_file):
        # each bundled epsilon settles: its last full step repeats the iterate
        # and runs no closed loop, so there is one loop per iteration
        assert main(["sweep", str(config_file)]) == 0
        out = config_file.parent / "out"
        entries = json.loads((out / "summary.json").read_text())["entries"]
        assert [e["closed_loops"] for e in entries] == [2, 2, 4, 3]
        assert [e["iterations"] for e in entries] == [2, 2, 4, 3]
        assert (out / "sweep.csv").read_text().splitlines()[1] == (
            "epsilon,terminal_miss,control_energy,iterations,converged")

    @pytest.mark.parametrize("flag,value,message", [
        ("--forcing-coeffs", "1,2,3,4,5,6,7,8,9", "takes at most 8 coefficients, got 9"),
        ("--forcing-coeffs", "1,abc", "coefficient must be a number, got 'abc'"),
        ("--control-coeffs", "nan", "coefficient must be finite, got nan"),
        ("--control-coeffs", "0.2,inf", "coefficient must be finite, got inf"),
        ("--forcing-coeffs", "0.4,,0.1", "coefficient must be a number, got ''"),
        ("--control-coeffs", "0.2,", "coefficient must be a number, got ''")])
    def test_simulate_coefficient_flag_exits_1_naming_it(self, config_file, capsys, flag, value,
                                                         message):
        # the flags are read by the parser of a `coeffs:` state
        assert main(["simulate", str(config_file), flag, value]) == 1
        assert capsys.readouterr().err == f"usage error: {flag} {message}\n"
        assert not (config_file.parent / "out" / "trajectory.csv").exists()

    def test_validate_runs_without_mpmath(self, config_file):
        # mpmath is a test-only oracle: a p = 4 validate run must not import it
        src = Path(fracheat.__file__).resolve().parents[1]
        code = ("import sys; from fracheat.cli import main; "
                f"rc = main(['validate', {str(config_file)!r}, '--set', 'model.p=4']); "
                "assert 'mpmath' not in sys.modules, 'mpmath imported'; sys.exit(rc)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert "[FAIL]" not in done.stdout

    def test_module_form_runs_the_command(self, config_file):
        # `python -m fracheat.cli` is the form to use without the console script
        src = Path(fracheat.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run([sys.executable, "-m", "fracheat.cli", "validate",
                               str(config_file)] + SMALL_OVERRIDES, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert "[PASS]" in done.stdout
        assert "[FAIL]" not in done.stdout

    def test_commands_load_only_what_they_run(self, tmp_path):
        # no command imports numpy.random (sample vectors come from the
        # standard library), _hashlib (OpenSSL; the config digest is the
        # interpreter's own sha256), numpy.ma, numpy.polynomial (the
        # Gauss-Legendre rules are tabulated) or scipy, which serves only the
        # tests.  Names match exactly or as a package prefix: numpy.matrixlib
        # loads with numpy itself.  numpy loads numpy.fft on first use and
        # only the trajectory solvers run FFTs, so validate and gramian must
        # not load it
        src = Path(fracheat.__file__).resolve().parents[1]
        cfg = tmp_path / BUNDLED.name
        cfg.write_text(BUNDLED.read_text())
        code = (
            "import json, sys; from fracheat.cli import main\n"
            f"cfg, small = {str(cfg)!r}, {SMALL_OVERRIDES!r}\n"
            "codes = [main(['validate', cfg, *small, '--set', 'model.p=4']),\n"
            "         main(['gramian', cfg, *small])]\n"
            "fft = 'numpy.fft' in sys.modules\n"
            "codes += [main(['simulate', cfg, *small, '--forcing-coeffs', '0.4,0.1',\n"
            "                '--control-coeffs', '0.2,-0.1']),\n"
            "          main(['sweep', cfg, *small])]\n"
            "heavy = ('numpy.random', '_hashlib', 'numpy.ma', 'numpy.polynomial', 'scipy')\n"
            "print(json.dumps([codes, fft, sorted(m for m in sys.modules\n"
            "                                     if any(m == h or m.startswith(h + '.') for h in heavy))]))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert "[FAIL]" not in done.stdout
        assert json.loads(done.stdout.splitlines()[-1]) == [[0, 0, 0, 0], False, []]

    def test_unconverged_resolvent_is_reported(self, config_file):
        # no solve can meet a residual of 1e-300 |d|: any nonzero rounding
        # residual of an O(1) system is far above it.  (At 1e-30 the p = 2
        # direct solve's last residual is a rounding draw that can land below.)
        rc = main(["sweep", str(config_file)] + SMALL_OVERRIDES
                  + ["--set", "solver.resolvent_tol=1e-300"])
        assert rc == 2
        out = config_file.parent / "out"
        summary = json.loads((out / "summary.json").read_text())
        assert all(e["converged"] is False for e in summary["entries"])
        rows = (out / "sweep.csv").read_text().splitlines()[2:]
        assert len(rows) == 2 and all(row.endswith(",False") for row in rows)

    def test_simulate_near_classical_limit(self, config_file):
        rc = main(["simulate", str(config_file), "--set", "model.alpha=0.999",
                   "--set", "model.modes=4", "--set", "solver.steps=256",
                   "--set", "solver.n_theta=64", "--set", "problem.x0=sine:1"])
        assert rc == 0
        lines = (config_file.parent / "out" / "trajectory.csv").read_text().splitlines()
        for line in lines[2::32]:
            cells = line.split(",")
            t, c1 = float(cells[1]), float(cells[2])
            assert c1 == pytest.approx(np.exp(-t), abs=1e-2)

    def test_example_config_prints_template(self, capsys):
        assert main(["example-config"]) == 0
        assert "[model]" in capsys.readouterr().out
