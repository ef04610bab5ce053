"""The grid transforms as numpy contractions, the panel density rule, the
skipped audit run and the tolist CSV rows, against the code they replaced.

`lpspace.basis_values` and `basis_coefficients` used to be BLAS products
(`rows @ W.T`, `values @ W * h`); at trajectory size OpenBLAS ran them on its
thread pool, whose worker kept spinning after each call.  The old formulas,
the old 500-node density rule and the old per-cell CSV writer are kept here
as references, and two probes pin the worker threads' CPU during the two
benchmarked commands and criterion 9's residual.  In a fresh interpreter,
`import fracheat` loads no numpy, and `fracheat.cli` pins OpenBLAS to one
thread only where it loads numpy itself and the variable is unset.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracheat
import fracheat.hvi as hvi_module
import fracheat.cli as cli_module
from fracheat.cli import _density_checks, _write_csv, _write_node_table, main
from fracheat.config import build_experiment, load_config
from fracheat.evolve import mild_solution
from fracheat.fracops import ml_family, wright_density
from fracheat.gramian import assemble_gramian
from fracheat.hvi import (
    SweepEntry,
    _map_step,
    abs_potential,
    epsilon_sweep,
    fixed_point_iterate,
    hvi_residual,
)
from fracheat.lpspace import basis_coefficients, basis_matrix, basis_values

from conftest import bump_coefficients

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(fracheat.__file__).resolve().parents[1]


def assert_rows_close(new, old, bound=1e-14):
    """|new - old| <= bound * max |old| of the same row."""
    scale = np.max(np.abs(old), axis=1, keepdims=True)
    assert new.shape == old.shape
    assert np.all(np.abs(new - old) <= bound * scale)


@pytest.fixture(scope="module")
def problem_p2(model_p2, gram_p2, grid_512):
    return model_p2, gram_p2, grid_512, bump_coefficients(8), \
        np.array([0.6, 0.2, -0.1, 0, 0, 0, 0, 0])


class TestGridTransforms:
    @pytest.mark.parametrize("n_rows", [1, 200, 513, 4097])
    @pytest.mark.parametrize("n_modes,n_theta", [(8, 256), (128, 256)])
    def test_basis_values_match_blas_product(self, n_rows, n_modes, n_theta):
        rng = np.random.default_rng(n_rows + n_modes)
        rows = rng.standard_normal((n_rows, n_modes))
        w = basis_matrix(n_modes, n_theta)
        assert_rows_close(basis_values(rows, w), rows @ w.T)

    @pytest.mark.parametrize("n_rows", [1, 200, 513, 4097])
    @pytest.mark.parametrize("n_modes,n_theta", [(8, 256), (128, 256)])
    def test_basis_coefficients_match_blas_product(self, n_rows, n_modes, n_theta):
        rng = np.random.default_rng(n_rows + n_theta)
        values = rng.standard_normal((n_rows, n_theta))
        w = basis_matrix(n_modes, n_theta)
        assert_rows_close(basis_coefficients(values, w), values @ w * (math.pi / n_theta))

    def test_coefficients_invert_values(self):
        rows = np.random.default_rng(1).standard_normal((33, 8))
        w = basis_matrix(8, 256)
        back = basis_coefficients(basis_values(rows, w), w)
        assert np.max(np.abs(back - rows)) <= 1e-14 * np.max(np.abs(rows))

    def test_step_forcing_matches_blas_product(self, problem_p2):
        # the forcing rows a step of the fixed point returns, against the
        # BLAS product of the array it wrote: a full step from the settled
        # iterate writes the selection, an averaged step from random signs
        # a mix of the two
        model, gram, grid, x0, z = problem_p2
        w = basis_matrix(model.n_modes, model.n_theta)
        h = math.pi / model.n_theta
        pot = abs_potential(0.3)
        fp = fixed_point_iterate(model, gram, grid, 1e-2, pot, z, x0)
        noise = 0.3 * np.sign(np.random.default_rng(2).standard_normal(fp.g.shape))
        for g, omega in ((fp.g, 1.0), (noise, 0.5)):
            out = g.copy()
            new, _ = _map_step(pot, "sticky", fp.run.states, model, out, omega)
            old = out @ w * h @ model.h_matrix.T
            # against the sum of the magnitudes of the terms: random signs
            # cancel, so the row maximum of the mix sits ~sqrt(n_theta) lower
            scale = np.abs(out) @ np.abs(w) * h @ np.abs(model.h_matrix).T
            assert np.all(np.abs(new - old) <= 1e-14 * scale)
            if omega == 1.0:
                assert np.array_equal(out, fp.g)
                assert_rows_close(new, old)


def old_density_checks(alpha):
    """The previous rule: one 500-node Gauss-Legendre rule on [0, tau_cut]."""
    b_rate = (1.0 - alpha) * alpha ** (alpha / (1.0 - alpha))
    tau_cut = (28.0 / b_rate) ** (1.0 - alpha)
    x, w = np.polynomial.legendre.leggauss(500)
    tau = 0.5 * tau_cut * (x + 1.0)
    wt = 0.5 * tau_cut * w
    density = wright_density(alpha, tau)
    e_state, e_force = ml_family(alpha, (1.0, alpha), np.array([-1.0]))
    sub1 = float(wt @ (density * np.exp(-tau))) - float(e_state[0])
    sub2 = alpha * float(wt @ (tau * density * np.exp(-tau))) - float(e_force[0])
    return float(wt @ density) - 1.0, sub1, sub2


@pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
def test_panel_density_rule_matches_single_rule(alpha):
    new, old = _density_checks(alpha), old_density_checks(alpha)
    assert max(abs(v) for v in new) <= 1e-12
    assert max(abs(a - b) for a, b in zip(new, old)) <= 2e-13


class TestAuditRun:
    def test_skipped_exactly_when_the_selection_repeats_the_iterate(self, problem_p2, monkeypatch):
        model, gram, grid, x0, z = problem_p2
        calls = []
        original = hvi_module.closed_loop_trajectory

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(hvi_module, "closed_loop_trajectory", counting)
        skipped = []
        # converged full steps at each bundled epsilon, then a solve cut after
        # one step at 1e-3, whose selection still moves
        cases = [(eps, 80) for eps in (1e-1, 1e-2, 1e-3, 1e-4)] + [(1e-3, 1)]
        for eps, max_iter in cases:
            calls.clear()
            fp = fixed_point_iterate(model, gram, grid, eps, abs_potential(0.3), z, x0,
                                     max_iter=max_iter)
            repeat = fp.converged and fp.residuals[-1] == 0.0
            # a settled solve: the initial loop and one per step but the last,
            # whose selection repeats the iterate; otherwise one per step and
            # the audit's
            assert len(calls) == fp.closed_loops == (
                fp.iterations if repeat else 1 + fp.iterations + 1)
            skipped.append(repeat)
            if repeat:
                assert fp.fixed_point_residual == 0.0
                # the skipped run would have reproduced `run` bit for bit
                again = original(model, gram, grid, eps, z, x0,
                                 forcing=basis_coefficients(fp.g, model.basis)
                                 @ model.h_matrix.T)
                assert np.array_equal(again.states, fp.run.states)
            else:
                assert fp.fixed_point_residual > 0.0
        assert skipped == [True, True, True, True, False]


def old_write_csv(target, header_lines, columns, rows):
    """The previous writer: every cell checked and formatted in Python."""
    for line in header_lines:
        target.write(f"# {line}\n")
    writer = csv.writer(target)
    writer.writerow(columns)
    writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row]
                     for row in rows)


def old_bytes(columns, rows, headers=("h",)):
    buf = io.StringIO(newline="")
    old_write_csv(buf, headers, columns, rows)
    return buf.getvalue()


class TestCsvBytes:
    SMALL = ["model.modes=4", "solver.steps=96", "solver.n_theta=64",
             "sweep.epsilons=1e-1, 1e-2"]

    def test_sweep_outputs_match_old_writer(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text((ROOT / "configs" / "heat_default.cfg").read_text())
        args = []
        for item in self.SMALL:
            args += ["--set", item]
        assert main(["sweep", str(path)] + args) == 0
        exp = build_experiment(load_config(str(path), self.SMALL), tmp_path)
        entries, results = map(list, zip(*epsilon_sweep(
            exp.model, assemble_gramian(exp.model, exp.grid), exp.grid, exp.potential,
            exp.target, exp.x0, exp.epsilons, strategy=exp.strategy, relaxation=exp.relaxation,
            tol=exp.fixed_point_tol, max_iter=exp.fixed_point_max_iter,
            resolvent_tol=exp.resolvent_tol, resolvent_max_iter=exp.resolvent_max_iter)))
        out = tmp_path / "out"
        header = (out / "sweep.csv").read_text().splitlines()[0][2:]
        n = exp.model.n_modes
        assert (out / "sweep.csv").read_bytes().decode() == old_bytes(
            ["epsilon", "terminal_miss", "control_energy", "iterations", "converged"],
            ([e.epsilon, e.terminal_miss, e.control_energy, e.iterations, e.converged]
             for e in entries), (header,))
        for tag, fp in zip(("1e-1", "1e-2"), results):
            nodes = exp.grid.nodes
            states, control = fp.run.states, fp.run.control
            assert (out / f"trajectory_eps_{tag}.csv").read_bytes().decode() == old_bytes(
                ["node", "t"] + [f"c{i}" for i in range(1, n + 1)],
                ([k, t, *states[k]] for k, t in enumerate(nodes)), (header,))
            assert (out / f"control_eps_{tag}.csv").read_bytes().decode() == old_bytes(
                ["node", "t"] + [f"u{i}" for i in range(1, n + 1)],
                ([k, t, *control[k]] for k, t in enumerate(nodes)), (header,))

    def test_failed_entry_and_signed_zero(self, tmp_path, monkeypatch):
        # the sweep command's rows for entries as a sweep may yield them:
        # a failure, a signed zero and numpy scalars
        entries = [
            SweepEntry(1e-1, 0.25, -0.0, 3, True, 0.0, 0.25),
            SweepEntry(1e-3, math.nan, math.nan, 0, False, math.nan, math.nan,
                       failure="resolvent stalled"),
            SweepEntry(np.float64(1e-4), np.float64(1 / 3), 1e-300, np.int64(2), np.bool_(True),
                       0.0, 0.0),
        ]
        monkeypatch.setattr(cli_module, "epsilon_sweep",
                            lambda *args, **kwargs: ((e, None) for e in entries))
        path = tmp_path / "exp.cfg"
        path.write_text((ROOT / "configs" / "heat_default.cfg").read_text())
        args = []
        for item in self.SMALL + ["output.formats=csv"]:
            args += ["--set", item]
        assert main(["sweep", str(path)] + args) == 2
        text = (tmp_path / "out" / "sweep.csv").read_bytes().decode()
        want = old_bytes(["epsilon", "terminal_miss", "control_energy", "iterations", "converged"],
                         ([e.epsilon, e.terminal_miss, e.control_energy, e.iterations,
                           e.converged] for e in entries), (text.splitlines()[0][2:],))
        assert text == want
        assert "0.001,nan,nan,0,False\r\n" in want and ",-0.0," in want

    def test_trajectory_and_gramian_match_old_writer(self, tmp_path, model_p2, grid_512):
        states = mild_solution(model_p2, grid_512, bump_coefficients(8))
        states[5, 1], states[6, 1] = -0.0, 0.0
        _write_node_table(tmp_path / "trajectory.csv", ("h",), grid_512.nodes, "c", states)
        text = (tmp_path / "trajectory.csv").read_bytes().decode()
        assert ",-0.0," in text
        assert text == old_bytes(
            ["node", "t"] + [f"c{i}" for i in range(1, 9)],
            ([k, t, *states[k]] for k, t in enumerate(grid_512.nodes)))
        path = tmp_path / "exp.cfg"
        path.write_text((ROOT / "configs" / "heat_default.cfg").read_text())
        assert main(["gramian", str(path)]) == 0
        exp = build_experiment(load_config(str(path)), tmp_path)
        gram = assemble_gramian(exp.model, exp.grid)
        text = (tmp_path / "out" / "gramian.csv").read_bytes().decode()
        assert text == old_bytes(
            ["row"] + [f"c{j}" for j in range(1, 9)],
            ([i + 1, *gram[i]] for i in range(8)), (text.splitlines()[0][2:],))

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.lists(st.one_of(
        st.integers(-2**63, 2**63), st.booleans(), st.floats(),
        st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310,
                         2.2250738585072014e-308, 1e16, -1e-320, 1e301, -1.7976931348623157e308,
                         1e-305])), max_size=6), max_size=8))
    def test_join_writer_matches_csv_module(self, tmp_path_factory, rows):
        path = tmp_path_factory.getbasetemp() / "join_writer.csv"
        _write_csv(path, ("h",), ["a", "b", "c"], rows)
        assert path.read_bytes().decode() == old_bytes(["a", "b", "c"], rows)


# probe scripts run in a fresh interpreter: argv = (config path, output dir);
# `settle()` waits until the workers' CPU stops growing and returns it,
# `report()` prints the exit codes and the workers' CPU since then
PROBE_PREFIX = """
import contextlib, io, json, os, sys, threading, time
from pathlib import Path
from fracheat.config import build_experiment, load_config

main_tid = threading.get_native_id()
tick = os.sysconf("SC_CLK_TCK")
cfg_path, out = sys.argv[1], sys.argv[2]

def worker_cpu():
    total = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != main_tid:
            with open(f"/proc/self/task/{tid}/stat") as stream:
                fields = stream.read().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])  # utime + stime
    return total / tick

def settle():
    last, waited = worker_cpu(), 0.0
    while waited < 3.0:
        time.sleep(0.1)
        waited += 0.1
        now = worker_cpu()
        if now == last:
            break
        last = now
    return last

def report(codes, since):
    time.sleep(0.3)  # let the workers' spin after the last call show
    print(json.dumps({"threads": len(os.listdir("/proc/self/task")), "codes": codes,
                      "worker_cpu": worker_cpu() - since}))
"""

WORKER_PROBE = PROBE_PREFIX + """
from fracheat.cli import cmd_sweep, cmd_validate

sweep = build_experiment(load_config(cfg_path, [f"output.directory={out}",
                                                "solver.steps=512"]), Path(out))
validate = build_experiment(load_config(cfg_path, ["model.p=4"]), Path(out))
last = settle()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cmd_sweep(sweep), cmd_validate(validate)]
report(codes, last)
"""

HVI_RESIDUAL_PROBE = PROBE_PREFIX + """
import numpy as np
from fracheat.gramian import assemble_gramian
from fracheat.hvi import fixed_point_iterate, hvi_residual

exp = build_experiment(load_config(cfg_path, []), Path(out))
model = exp.model
fp = fixed_point_iterate(model, assemble_gramian(model, exp.grid), exp.grid, 1e-2,
                         exp.potential, exp.target, exp.x0)
dirs = np.random.default_rng(9).standard_normal((16, model.n_modes))
last = settle()
worst = hvi_residual(model, fp.run.states, fp.g, exp.potential, dirs)
report([int(worst <= 1e-8)], last)
"""

on_linux = pytest.mark.skipif(not sys.platform.startswith("linux")
                              or not os.path.isdir("/proc/self/task"),
                              reason="reads per-thread CPU from /proc")
two_cpus = pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU: no BLAS worker threads")


def run_probe(probe, tmp_path):
    # a full pool whatever the caller's environment sets: the probes measure
    # the workers, so they need them
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(ROOT / "configs" / "heat_default.cfg"), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": str(os.cpu_count())},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    if report["threads"] < 2:
        pytest.skip("no worker thread in this numpy build")
    return report


@on_linux
@two_cpus
def test_commands_leave_blas_workers_idle(tmp_path):
    """`sweep` at 512 steps and `validate` at p = 4 give the BLAS worker
    threads no work: their CPU grows by less than 30 ms (at the earlier code
    each threaded product or leggauss(500) cost them 120-130 ms)."""
    report = run_probe(WORKER_PROBE, tmp_path)
    assert report["codes"] == [0, 0]
    assert report["worker_cpu"] < 0.030


@on_linux
@two_cpus
def test_hvi_residual_leaves_blas_workers_idle(tmp_path):
    """Criterion 9's support-function products run as einsum over the grid
    axis: 16 test directions on the bundled fixed point leave the worker
    threads idle (as `@` products, ~0.13 s of worker CPU per call)."""
    report = run_probe(HVI_RESIDUAL_PROBE, tmp_path)
    assert report["codes"] == [1]
    assert report["worker_cpu"] < 0.030


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def fresh_interpreter(code, **env):
    """Run `code` in a new interpreter with no thread-count variable but
    `env`; returns the JSON its last line of output prints."""
    clean = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    proc = subprocess.run([sys.executable, "-c", code], env={**clean, "PYTHONPATH": str(SRC), **env},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


REPORT_BLAS = """
import json, os, sys
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"),
                  len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None]))
"""


def test_package_import_loads_no_numpy():
    code = "import json, sys, fracheat\nprint(json.dumps('numpy' in sys.modules))"
    assert fresh_interpreter(code) is False


@pytest.mark.parametrize("prelude,env,want", [
    ("", {}, "1"),  # the pin: OpenBLAS starts no worker, one thread in all
    ("", {"OPENBLAS_NUM_THREADS": "2"}, "2"),  # a value the user set wins
    ("import numpy\n", {}, None),  # a session that loaded numpy first keeps its pool
])
def test_cli_pins_one_blas_thread_only_before_numpy(prelude, env, want):
    value, threads = fresh_interpreter(prelude + "from fracheat import cli\n" + REPORT_BLAS, **env)
    assert value == want
    if want == "1" and threads is not None:
        assert threads == 1


def old_hvi_rhs(model, states, pot, directions):
    """The support-function side of `hvi_residual` as BLAS products."""
    lo, hi = pot.interval(basis_values(states, model.basis))
    direction = basis_values(directions @ model.h_matrix, model.basis)
    h = math.pi / model.n_theta
    return (hi @ np.maximum(direction, 0.0).T + lo @ np.minimum(direction, 0.0).T) * h, \
        (np.abs(hi) @ np.abs(direction).T) * h


def test_hvi_residual_matches_blas_products(problem_p2):
    model, gram, grid, x0, z = problem_p2
    pot = abs_potential(0.3)
    fp = fixed_point_iterate(model, gram, grid, 1e-2, pot, z, x0)
    dirs = np.random.default_rng(9).standard_normal((16, model.n_modes))
    rhs, scale = old_hvi_rhs(model, fp.run.states, pot, dirs)
    lhs = basis_coefficients(fp.g, model.basis) @ model.h_matrix.T @ dirs.T
    got = hvi_residual(model, fp.run.states, fp.g, pot, dirs)
    # the einsum sums the grid axis in another order: 1e-14 of the sum of
    # the terms' magnitudes
    assert abs(got - np.max(lhs - rhs)) <= 1e-14 * np.max(scale)
