"""Memory of fine-grid runs: the traced peaks of `fracops.ml_family`,
`evolve.l1_reference` and one `hvi.fixed_point_iterate`, and the cold peak
RSS of one CLI command.

    python3 scripts/memory_probe.py kernels --modes 64 --steps 16384
    python3 scripts/memory_probe.py fixed-point --set model.modes=64 --set solver.steps=4096 \
        --set problem.potential=sat:0.3:0.5 --set sweep.epsilons=1e-1 \
        --set solver.fixed_point_max_iter=3
    python3 scripts/memory_probe.py cli simulate --set model.modes=64 --set solver.steps=16384
    python3 scripts/memory_probe.py cli sweep --src ../parent/src --set model.modes=64 ...

`kernels` runs each kernel in a fresh child process on the bundled model
(alpha = 0.75, horizon 1, eigenvalues -n^2) and reports its tracemalloc peak
above the call's entry, result included, its output size, its seconds, and
the child's peak RSS (`ru_maxrss`, from an untraced call made first).
`ml_family` evaluates the propagator's (1, alpha + 1) family on the
(steps+1, modes) argument table; `l1_reference` integrates from the bundled
x0 with constant forcing and control coefficients (0.4, 0.1) and
(0.2, -0.1), as perfbench's `simulate-long` does.

`fixed-point` runs one `fixed_point_iterate` in a fresh child process on
configs/heat_default.cfg with the `--set` overrides, at the first epsilon of
`sweep.epsilons` and the config's solver settings.  The Gramian and one forced
mild solution build the grid's propagator tables first, so the traced peak
above the call's entry is the solve's own working set; it is reported in MiB
with the size of one (steps+1, n_theta) grid array, the closed loops run
(the audit ran where they exceed the iterations by 2) and the seconds.

`cli` runs one command of `fracheat.cli` on configs/heat_default.cfg in a
fresh child process, outputs in a temporary directory, and reports its exit
code, wall seconds and peak RSS.  `--src` imports the package from another
source tree, so that two checkouts can be compared.  Each report is one JSON
line; MB are 10^6 bytes for kernel traced peaks and 2^20 for RSS, as perfbench.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "heat_default.cfg"

KERNEL_CHILD = r"""
import json, resource, sys, time, tracemalloc
import numpy as np
from fracheat.config import build_experiment, load_config
from fracheat.evolve import l1_reference
from fracheat.fracops import ml_family

kernel, modes, steps, config = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
exp = build_experiment(load_config(config, [f"model.modes={modes}", f"solver.steps={steps}"]))
model, grid = exp.model, exp.grid
alpha = model.order.alpha
if kernel == "ml_family":
    z = model.eigenvalues * grid.nodes[:, None] ** alpha
    call = lambda: ml_family(alpha, (1.0, alpha + 1.0), z)
else:
    coeffs = np.zeros((2, modes))
    coeffs[:, :2] = (0.4, 0.1), (0.2, -0.1)
    forcing = np.tile(model.h_matrix @ coeffs[0], (steps + 1, 1))
    control = np.tile(model.b_matrix @ coeffs[1], (steps + 1, 1))
    call = lambda: l1_reference(model, grid, exp.x0, forcing=forcing, control=control)
start = time.perf_counter()
out = call()
seconds = time.perf_counter() - start
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
del out
tracemalloc.start()
base = tracemalloc.get_traced_memory()[0]
out = call()
peak = tracemalloc.get_traced_memory()[1] - base
tracemalloc.stop()
size = sum(a.nbytes for a in out) if isinstance(out, list) else out.nbytes
print(json.dumps({"kernel": kernel, "modes": modes, "steps": steps, "traced_peak_mb": round(peak / 1e6, 2),
                  "output_mb": round(size / 1e6, 2), "seconds": round(seconds, 3),
                  "peak_rss_mb": round(rss, 2)}))
"""

FIXED_POINT_CHILD = r"""
import json, sys, time, tracemalloc
import numpy as np
from fracheat.config import build_experiment, load_config
from fracheat.evolve import mild_solution
from fracheat.gramian import assemble_gramian
from fracheat.hvi import fixed_point_iterate

exp = build_experiment(load_config(sys.argv[1], sys.argv[2:]))
model, grid = exp.model, exp.grid
gram = assemble_gramian(model, grid)
# the grid's propagator tables, forcing channel included, outside the trace
mild_solution(model, grid, exp.x0, forcing=np.zeros((grid.steps + 1, model.n_modes)))
tracemalloc.start()
base = tracemalloc.get_traced_memory()[0]
start = time.perf_counter()
fp = fixed_point_iterate(model, gram, grid, exp.epsilons[0], exp.potential, exp.target, exp.x0,
                         strategy=exp.strategy, relaxation=exp.relaxation,
                         tol=exp.fixed_point_tol, max_iter=exp.fixed_point_max_iter,
                         resolvent_tol=exp.resolvent_tol, resolvent_max_iter=exp.resolvent_max_iter)
seconds = time.perf_counter() - start
peak = tracemalloc.get_traced_memory()[1] - base
tracemalloc.stop()
print(json.dumps({"epsilon": exp.epsilons[0], "modes": model.n_modes, "steps": grid.steps,
                  "traced_peak_mib": round(peak / 2**20, 2),
                  "grid_array_mib": round((grid.steps + 1) * model.n_theta * 8 / 2**20, 2),
                  "closed_loops": fp.closed_loops, "iterations": fp.iterations,
                  "converged": fp.converged, "seconds": round(seconds, 3)}))
"""

CLI_CHILD = r"""
import sys
from fracheat.cli import main
sys.exit(main(sys.argv[1:]))
"""


def child(src: Path, code: str, args: list[str]) -> tuple[subprocess.CompletedProcess, float, float]:
    """(the finished child, its wall seconds, the peak RSS in MB of this
    process's children so far): one child at a time."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    seconds = time.perf_counter() - start
    return done, seconds, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("kernels", "fixed-point", "cli"))
    parser.add_argument("command", nargs="?", choices=("validate", "gramian", "simulate", "sweep"))
    parser.add_argument("--modes", type=int, default=64)
    parser.add_argument("--steps", type=int, default=16384)
    parser.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if args.mode == "kernels":
        for kernel in ("ml_family", "l1_reference"):
            done, _, _ = child(src, KERNEL_CHILD, [kernel, str(args.modes), str(args.steps), str(CONFIG)])
            if done.returncode:
                sys.stderr.write(done.stderr)
                return done.returncode
            print(done.stdout.strip().splitlines()[-1], flush=True)
        return 0
    if args.mode == "fixed-point":
        done, _, _ = child(src, FIXED_POINT_CHILD, [str(CONFIG), *args.set])
        if done.returncode:
            sys.stderr.write(done.stderr)
            return done.returncode
        report = json.loads(done.stdout.strip().splitlines()[-1])
        print(json.dumps({"mode": "fixed-point", "set": args.set, **report}))
        return 0
    if args.command is None:
        parser.error("cli takes a command")
    with tempfile.TemporaryDirectory() as out:
        sets = [item for s in args.set + [f"output.directory={out}"] for item in ("--set", s)]
        done, seconds, rss = child(src, CLI_CHILD, [args.command, str(CONFIG), *sets])
    print(json.dumps({"command": args.command, "set": args.set, "exit": done.returncode,
                      "wall_s": round(seconds, 3), "peak_rss_mb": round(rss, 2)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
