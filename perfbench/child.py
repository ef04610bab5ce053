"""One CLI run of fracheat in a fresh process, as the benchmark times it.

    python3 perfbench/child.py COMMAND CONFIG REPORT [--forcing-coeffs C]
        [--control-coeffs C] [--setup-only] [--trace] [--env]

Goes through the public functions of ``fracheat.cli``: load_config ->
build_experiment -> cmd_<COMMAND>, importing the package from ``src/`` of
the checkout.  Writes REPORT as JSON: the ``time.monotonic()`` readings when
build_experiment returned (``setup_done``) and when the command returned
(``done``), the command's exit code, and with --trace the per-layer metrics
and a per-function table.  --env adds the numerical environment.  The exit
code is the command's.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def numerical_env() -> dict:
    """numpy/scipy versions, the BLAS library and its thread count."""
    import ctypes

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"numpy": numpy.__version__, "scipy": scipy.__version__,
           "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": None}
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                env["blas_threads"] = getter()
                return env
    return env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("command", choices=("sweep", "validate", "simulate"))
    parser.add_argument("config")
    parser.add_argument("report")
    parser.add_argument("--forcing-coeffs")
    parser.add_argument("--control-coeffs")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--env", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from fracheat import cli

    tracer = observed = None
    if args.trace:
        from layers import Observed
        from spans import Tracer, package_modules

        tracer, observed = Tracer(), Observed()
        observed.attach(tracer)
        tracer.install(package_modules("fracheat"))

    config = Path(args.config)
    exp = cli.build_experiment(cli.load_config(config), config.resolve().parent)
    setup_done = time.monotonic()
    rc = 0
    if not args.setup_only:
        if args.command == "sweep":
            rc = cli.cmd_sweep(exp)
        elif args.command == "validate":
            rc = cli.cmd_validate(exp)
        else:
            rc = cli.cmd_simulate(exp, args.forcing_coeffs, args.control_coeffs)
    done = time.monotonic()
    sys.stdout.flush()

    report: dict = {"setup_done": setup_done, "done": done, "rc": rc}
    if tracer is not None:
        from layers import layer_metrics
        from spans import function_table

        tracer.uninstall()
        report["layers"] = layer_metrics(tracer, observed)
        report["functions"] = function_table(tracer.spans)
    if args.env:
        report["env"] = numerical_env()
    Path(args.report).write_text(json.dumps(report))
    return rc


if __name__ == "__main__":
    sys.exit(main())
