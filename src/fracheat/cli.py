"""Command-line experiment runner.

Commands: validate (invariant suite), simulate (trajectory + cross-solver
gap), gramian (assembly + audit + CSV export), sweep (regularization study).
Exit codes: 0 success, 1 validation failure, 2 solver non-convergence.
This is the one module that writes files, and `_write_csv` is the one format
of every CSV output file.

Importing this module before numpy sets OPENBLAS_NUM_THREADS=1 unless the
variable is already set, so a CLI process starts no BLAS worker thread; a
process that loaded numpy first keeps its pool and its environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from dataclasses import asdict
from itertools import chain
from pathlib import Path

if "numpy" not in sys.modules:
    # OpenBLAS reads this once, when numpy first loads it; its worker thread
    # spins ~60 ms of CPU at start-up, and no product here uses the pool
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .config import Experiment, build_experiment, default_config_text, load_config, \
    parse_coefficients
from .control import ConvergenceError, regularized_resolvent
from .evolve import l1_reference, mild_solution
from .fracops import gauss_legendre, gaussian_rows, ml_family, wright_density
from .gramian import assemble_gramian, verify_gramian
from .hvi import epsilon_sweep, free_terminal_miss
from .lpspace import basis_values, duality_map, lp_norm, lp_norms

_EXIT_OK = 0
_EXIT_VALIDATION = 1
_EXIT_NONCONVERGED = 2


def _header_lines(exp: Experiment) -> tuple[str, ...]:
    return (
        f"fracheat={__version__} schema={exp.config['meta']['schema_version']} "
        f"config_sha256={exp.config.sha256}",
    )


def _write_csv(path: Path, header_lines, columns: list[str], rows) -> None:
    """Write `# ` comment lines, the column row, then the data rows, one at a
    time.  Cells are Python ints, floats and bools (`ndarray.tolist()`), whose
    str is what the csv module writes (a float's repr: `nan`, `-0.0`); a numpy
    scalar would come out as `np.float64(...)`, so rows never carry one."""
    with open(path, "w", newline="") as stream:
        stream.writelines(f"# {line}\n" for line in header_lines)
        stream.writelines(",".join(map(str, row)) + "\r\n" for row in chain([columns], rows))


def _write_node_table(path: Path, header_lines, nodes: np.ndarray, prefix: str,
                      values: np.ndarray, **extra: np.ndarray) -> None:
    """Rows (node, t, <prefix>1..<prefix>N, *extra) over the time nodes."""
    columns = ["node", "t", *(f"{prefix}{n}" for n in range(1, values.shape[1] + 1)), *extra]
    table = np.column_stack([nodes, values, *extra.values()]).tolist()
    _write_csv(path, header_lines, columns, ([k, *row] for k, row in enumerate(table)))


def _density_checks(alpha: float) -> tuple[float, float, float]:
    """(mass - 1, first and second subordination defects at lambda = 1)."""
    b_rate = (1.0 - alpha) * alpha ** (alpha / (1.0 - alpha))
    tau_cut = (28.0 / b_rate) ** (1.0 - alpha)
    # equal panels of the tabulated 50-node Gauss-Legendre rule, with no
    # eigenproblem for LAPACK: 10, or 0.03 / (1 - alpha) once the density's
    # peak at tau = 1 narrows (alpha > 0.997), which keeps the defects ~3e-11
    panels = max(10, math.ceil(0.03 / (1.0 - alpha)))
    x, w = gauss_legendre(50)
    half = 0.5 * tau_cut / panels
    tau = (half * (2 * np.arange(panels)[:, None] + 1.0 + x)).ravel()
    wt = np.tile(half * w, panels)
    density = wright_density(alpha, tau)
    mass = float(wt @ density)
    lam = 1.0
    e_state, e_force = (float(e[0]) for e in ml_family(alpha, (1.0, alpha), np.array([-lam])))
    sub1 = float(wt @ (density * np.exp(-lam * tau))) - e_state
    sub2 = alpha * float(wt @ (tau * density * np.exp(-lam * tau))) - e_force
    return mass - 1.0, sub1, sub2


def cmd_validate(exp: Experiment) -> int:
    """Run the invariant suite; one pass/fail line per check."""
    rng = random.Random(exp.seed)
    model = exp.model
    checks: list[tuple[str, bool, str]] = []

    mass_defect, sub1, sub2 = _density_checks(model.order.alpha)
    checks.append(("density mass = 1", abs(mass_defect) <= 1e-6, f"defect {mass_defect:.2e}"))
    checks.append(("state-family subordination", abs(sub1) <= 1e-6, f"defect {sub1:.2e}"))
    checks.append(("forcing-family subordination", abs(sub2) <= 1e-6, f"defect {sub2:.2e}"))

    worst_pair = 0.0
    worst_norm = 0.0
    for f in basis_values(gaussian_rows(rng, 20, model.n_modes), model.basis):
        jf = duality_map(f, model.p)
        nf = lp_norm(f, model.p)
        pair = float(f @ jf) * (math.pi / model.n_theta)
        worst_pair = max(worst_pair, abs(pair - nf**2) / max(nf**2, 1e-300))
        worst_norm = max(worst_norm, abs(lp_norm(jf, model.dual_p) - nf) / max(nf, 1e-300))
    checks.append(("duality map <f, Jf> identity", worst_pair <= 1e-8, f"defect {worst_pair:.2e}"))
    checks.append(("duality map norm identity", worst_norm <= 1e-8, f"defect {worst_norm:.2e}"))

    alpha = model.order.alpha
    bound_t = model.m_bound / math.gamma(alpha)
    ts = np.array([rng.uniform(0.0, exp.grid.horizon) for _ in range(200)])
    xs = gaussian_rows(rng, 200, model.n_modes)
    nx = lp_norms(xs, model.basis, model.p)
    # state (beta = 1) and Duhamel (beta = alpha) multipliers, one row per time
    worst_s, worst_t = (float(np.max(lp_norms(mult * xs, model.basis, model.p) / nx))
                        for mult in ml_family(alpha, (1.0, alpha),
                                              model.eigenvalues * ts[:, None] ** alpha))
    checks.append(("state-family bound M", worst_s <= model.m_bound * (1 + 1e-12),
                   f"sup ratio {worst_s:.6f}"))
    checks.append(("forcing-family bound M/Gamma(alpha)", worst_t <= bound_t * (1 + 1e-12),
                   f"sup ratio {worst_t:.6f} vs {bound_t:.6f}"))

    gram = assemble_gramian(model, exp.grid)
    # a seed drawn from rng: the audit's vectors are not the duality-map vectors again
    report = verify_gramian(gram, model, exp.grid, n_samples=50, seed=rng.getrandbits(64))
    checks.append(("gramian symmetry", report.symmetric, f"defect {report.symmetry_defect:.2e}"))
    checks.append(("gramian positivity", report.positive, f"min eig {report.min_eigenvalue:.2e}"))
    checks.append(("gramian quadratic-form identity", report.quadratic_form_ok,
                   f"gap {report.quadratic_form_gap:.2e}"))
    checks.append(("gramian norm bound", report.norm_bound_ok, f"slack {report.norm_bound_slack:.3f}"))

    verdict = "approximately controllable" if report.injective else "degenerate"
    checks.append((f"injectivity: {verdict} (truncated)", report.injective,
                   f"sigma_min(B)={report.sigma_min_b:.3e} sigma_min(G)={report.sigma_min:.3e}"))

    worst_lemma = 0.0
    for eps in (1e-2, 1e-1, 1.0):
        for y in gaussian_rows(rng, 10, model.n_modes):
            solve = regularized_resolvent(gram, model, eps, y,
                                          tol=exp.resolvent_tol, max_iter=exp.resolvent_max_iter)
            image, source = lp_norms([eps * solve.result, y], model.basis, model.p)
            worst_lemma = max(worst_lemma, float(image / source))
    checks.append(("resolvent contraction bound", worst_lemma <= 1.0 + 1e-8,
                   f"sup ratio {worst_lemma:.9f}"))

    ok = True
    for name, passed, detail in checks:
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
        ok = ok and passed
    return _EXIT_OK if ok else _EXIT_VALIDATION


def cmd_gramian(exp: Experiment) -> int:
    gram = assemble_gramian(exp.model, exp.grid)
    report = verify_gramian(gram, exp.model, exp.grid, seed=exp.seed)
    exp.output_dir.mkdir(parents=True, exist_ok=True)
    path = exp.output_dir / "gramian.csv"
    _write_csv(path, _header_lines(exp), ["row"] + [f"c{j}" for j in range(1, len(gram) + 1)],
               ([i, *row] for i, row in enumerate(gram.tolist(), start=1)))
    print(f"gramian written to {path}")
    print(f"symmetry defect: {report.symmetry_defect:.3e}")
    print(f"min eigenvalue : {report.min_eigenvalue:.3e}")
    print(f"min singular   : {report.sigma_min:.3e}")
    print(f"norm bound     : {report.norm_bound:.3e} (slack {report.norm_bound_slack:.3f})")
    return _EXIT_OK if report.all_ok else _EXIT_VALIDATION


def cmd_simulate(exp: Experiment, forcing_coeffs: str | None, control_coeffs: str | None) -> int:
    model, grid = exp.model, exp.grid
    shape = (grid.steps + 1, model.n_modes)
    forcing = control = None
    try:
        if forcing_coeffs is not None:
            fc = parse_coefficients(forcing_coeffs, "--forcing-coeffs", model.n_modes)
            forcing = np.tile(model.h_matrix @ fc, (shape[0], 1))
        if control_coeffs is not None:
            uc = parse_coefficients(control_coeffs, "--control-coeffs", model.n_modes)
            control = np.tile(model.b_matrix @ uc, (shape[0], 1))
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    states = mild_solution(model, grid, exp.x0, forcing=forcing, control=control)
    gaps = lp_norms(states - l1_reference(model, grid, exp.x0, forcing=forcing, control=control),
                    model.basis, model.p)
    scale = float(np.max(lp_norms(states, model.basis, model.p)))
    exp.output_dir.mkdir(parents=True, exist_ok=True)
    path = exp.output_dir / "trajectory.csv"
    _write_node_table(path, _header_lines(exp), grid.nodes, "c", states, l1_gap=gaps)
    rel = float(np.max(gaps)) / max(scale, 1e-300)
    print(f"trajectory written to {path}")
    print(f"cross-solver gap: {rel:.3e} relative (sup over nodes)")
    return _EXIT_OK


def _epsilon_tag(eps: float) -> str:
    """The shortest e-notation that reads back as eps, exponent without
    leading zeros: 1e-4, 2.5e-2; distinct epsilons get distinct tags."""
    tag = next(t for t in (f"{eps:.{digits}e}" for digits in range(17)) if float(t) == eps)
    return tag.replace("-0", "-")


def _json_value(v):
    """NaN (a failed epsilon) and inf (a diverged residual) as strict-JSON null."""
    if isinstance(v, list):
        return [_json_value(x) for x in v]
    return None if isinstance(v, float) and not math.isfinite(v) else v


def cmd_sweep(exp: Experiment) -> int:
    model, grid = exp.model, exp.grid
    gram = assemble_gramian(model, grid)
    exp.output_dir.mkdir(parents=True, exist_ok=True)
    headers = _header_lines(exp)
    entries = []
    elapsed = 0.0  # fixed-point time only, without the file writing
    started = time.perf_counter()
    for entry, result in epsilon_sweep(
        model, gram, grid, exp.potential, exp.target, exp.x0, exp.epsilons,
        strategy=exp.strategy, relaxation=exp.relaxation,
        tol=exp.fixed_point_tol, max_iter=exp.fixed_point_max_iter,
        resolvent_tol=exp.resolvent_tol, resolvent_max_iter=exp.resolvent_max_iter,
    ):
        elapsed += time.perf_counter() - started
        entries.append(entry)
        if result is not None and "csv" in exp.formats:
            tag = _epsilon_tag(entry.epsilon)
            _write_node_table(exp.output_dir / f"trajectory_eps_{tag}.csv", headers,
                              grid.nodes, "c", result.run.states)
            _write_node_table(exp.output_dir / f"control_eps_{tag}.csv", headers,
                              grid.nodes, "u", result.run.control)
        del result  # its grid arrays go before the next epsilon is solved
        started = time.perf_counter()
    if "csv" in exp.formats:
        _write_csv(exp.output_dir / "sweep.csv", headers,
                   ["epsilon", "terminal_miss", "control_energy", "iterations", "converged"],
                   ([float(e.epsilon), float(e.terminal_miss), float(e.control_energy),
                     int(e.iterations), bool(e.converged)] for e in entries))
    free_miss = free_terminal_miss(model, grid, exp.target, exp.x0)
    if "json" in exp.formats:
        summary = {
            "fracheat_version": __version__,
            "config_sha256": exp.config.sha256,
            "free_terminal_miss": free_miss,
            "elapsed_seconds": elapsed,
            "entries": [{k: _json_value(v) for k, v in asdict(e).items()} for e in entries],
        }
        with open(exp.output_dir / "summary.json", "w") as stream:
            json.dump(summary, stream, indent=2, sort_keys=True, allow_nan=False)
    print(f"sweep outputs written to {exp.output_dir}")
    for e in entries:
        print(f"eps={e.epsilon:.1e} miss={e.terminal_miss:.6e} converged={e.converged}")
    print(f"free-dynamics miss: {free_miss:.6e}")
    return _EXIT_OK if all(e.converged for e in entries) else _EXIT_NONCONVERGED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracheat",
        description="Fractional evolution with nonsmooth forcing: simulation and "
        "regularized control synthesis.",
    )
    parser.add_argument("--version", action="version", version=f"fracheat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("config", help="experiment config file (INI blocks)")
        p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                       help="override a scalar config entry")

    add_common(sub.add_parser("validate", help="run the invariant suite"))
    add_common(sub.add_parser("gramian", help="assemble, audit and export the Gramian"))
    sim = sub.add_parser("simulate", help="integrate the system and cross-check solvers")
    add_common(sim)
    sim.add_argument("--forcing-coeffs", help="constant-in-time dual forcing coefficients")
    sim.add_argument("--control-coeffs", help="constant-in-time control coefficients")
    add_common(sub.add_parser("sweep", help="run the regularization sweep"))
    sub.add_parser("example-config", help="print a template configuration")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "example-config":
        print(default_config_text())
        return _EXIT_OK
    try:
        cfg = load_config(args.config, args.set)
        exp = build_experiment(cfg, Path(args.config).resolve().parent)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    try:
        if args.command == "validate":
            return cmd_validate(exp)
        if args.command == "gramian":
            return cmd_gramian(exp)
        if args.command == "simulate":
            return cmd_simulate(exp, args.forcing_coeffs, args.control_coeffs)
        if args.command == "sweep":
            return cmd_sweep(exp)
    except ConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return _EXIT_NONCONVERGED
    raise AssertionError("unreachable")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
