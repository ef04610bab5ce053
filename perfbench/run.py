"""fracheat benchmark: cold CLI runs, timed from outside the process.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads are defined in ``workloads.py``.  Every run is a fresh Python
process (``child.py``) running one CLI command on inputs generated from
--seed, one run at a time: a closed loop with a single client.  The caches
of the program live in its process, so every run pays them cold, as a user
does on every CLI call.

An invocation makes one discarded set-up launch (it compiles ``__pycache__``
and pages the libraries in), then measures for --seconds in rounds of one
set-up-only launch and one full run: at least two rounds, and more while the
next one is expected to end in time, so the samples spread over the whole
window.  With --trace 1 each round is an untraced run followed by a traced
one, at least one round, and the per-layer metrics come from the traced
runs.  Inputs and outputs live in a temporary directory in the checkout,
removed at the end.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics (medians over the runs); the lines above it give each
metric's quartiles and sample count and the environment of the run.  Exits 2
without a result when the checkout has no ``src/fracheat``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import METRICS as LAYER_METRICS
from workloads import WORKLOADS, Inputs, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_RUNS = 2  # untraced full runs per invocation, so that no median rests on one run
HARD_LIMIT_S = 165.0  # children still running this long after start are killed

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Run:
    """One child process: what it cost and what was wrong with its output."""

    rc: int
    wall_s: float                 # launch to exit, seen from outside
    cpu_s: float                  # user + system, from wait4
    peak_rss_mb: float
    setup_s: float | None         # launch to build_experiment returning
    command_s: float | None       # launch to the command returning
    report: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.rc != 0 or bool(self.problems)


def launch(inputs: Inputs, run_dir: Path, flags: list[str], kill_at: float) -> Run:
    """Run child.py once on `inputs` in `run_dir` and wait for it to end."""
    run_dir.mkdir()
    config = run_dir / "exp.cfg"
    config.write_text(inputs.config_text())
    report_path = run_dir / "report.json"
    cmd = [sys.executable, str(HERE / "child.py"), inputs.command, str(config), str(report_path)]
    # "--key=value": a value may start with "-"
    cmd += [f"--{key.replace('_', '-')}={value}" for key, value in inputs.args.items()]
    cmd += flags
    with open(run_dir / "stdout", "w") as out, open(run_dir / "stderr", "w") as err:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=run_dir)
        timer = threading.Timer(max(0.0, kill_at - started), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    run = Run(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
              usage.ru_maxrss / 1024.0, None, None)
    try:
        run.report = json.loads(report_path.read_text())
        run.setup_s = run.report["setup_done"] - started
        run.command_s = run.report["done"] - started
    except (OSError, ValueError, KeyError):
        run.problems.append("no report from the run")
    if run.rc != 0:
        run.problems.append(f"exit code {run.rc}")
    return run


def check(workload: Workload, inputs: Inputs, seed: int, run: Run, run_dir: Path) -> None:
    """Add to `run.problems` what the workload's output check finds."""
    try:
        stdout = (run_dir / "stdout").read_text()
        run.problems += workload.check(inputs, seed, run_dir, stdout)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        run.problems.append(f"unreadable output: {exc!r}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def result(runs: list[Run], metrics: dict[str, tuple[float | None, str]]) -> dict:
    """The benchmark's result object; a run fails on a non-zero exit or on
    any problem its output check found."""
    failed = sum(r.failed for r in runs)
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Bench:
    """One invocation: its inputs, temporary directory and clock."""

    def __init__(self, workload: Workload, seed: int, tmp: Path):
        self.workload = workload
        self.seed = seed
        self.inputs = workload.make_inputs(seed)
        self.tmp = tmp
        self.started = time.monotonic()
        self.count = 0

    def run(self, *flags: str) -> Run:
        self.count += 1
        run_dir = self.tmp / f"run-{self.count:03d}"
        run = launch(self.inputs, run_dir, list(flags), self.started + HARD_LIMIT_S)
        if not run.failed and "--setup-only" not in flags:
            check(self.workload, self.inputs, self.seed, run, run_dir)
        if run.failed:
            err = (run_dir / "stderr").read_text().strip().splitlines()[-5:]
            print(f"run {self.count} failed: {'; '.join(run.problems)}", *err,
                  sep="\n    ", file=sys.stderr)
        shutil.rmtree(run_dir)
        return run

    def rounds(self, seconds: float, min_rounds: int,
               *round_flags: tuple[str, ...]) -> list[list[Run]]:
        """Rounds of runs (one per entry of `round_flags`): at least
        `min_rounds`, then more while the next round is expected to end
        within `seconds` of now.  A failed run ends the loop."""
        window_start = time.monotonic()
        done: list[list[Run]] = []
        while True:
            done.append([self.run(*flags) for flags in round_flags])
            if any(r.failed for r in done[-1]):
                return done
            expected = statistics.median(sum(r.wall_s for r in rnd) for rnd in done)
            if (len(done) >= min_rounds
                    and time.monotonic() - window_start + expected > seconds):
                return done


def print_stat(name: str, values: list[float], unit: str) -> None:
    q1, med, q3 = quartiles(values)
    print(f"  {name:40s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} {unit:10s} n={len(values)}")


def measure(bench: Bench, seconds: float) -> dict:
    rounds = bench.rounds(seconds, MIN_RUNS, ("--setup-only",), ())
    probes = [rnd[0] for rnd in rounds]
    full = [rnd[1] for rnd in rounds]
    ok = [r for r in full if not r.failed] or full
    samples = {
        "wall_s": [r.wall_s for r in ok],
        "setup_s": [r.setup_s for r in probes + ok if r.setup_s is not None],
        "cpu_s": [r.cpu_s for r in ok],
        "peak_rss_mb": [r.peak_rss_mb for r in ok],
    }
    print(f"{len(full)} runs and {len(probes)} set-up launches:")
    metrics = {}
    for name, unit in END_TO_END.items():
        values = samples[name]
        if values:
            print_stat(name, values, unit)
        metrics[name] = (statistics.median(values) if values else None, unit)
    runs = probes + full
    failed = sum(r.failed for r in runs)
    print(f"  {'error_rate':40s} {failed}/{len(runs)} = {failed / len(runs):.3g}")
    return result(runs, metrics)


def measure_traced(bench: Bench, seconds: float) -> dict:
    pairs = bench.rounds(seconds, 1, (), ("--trace",))
    ok = [(plain, traced) for plain, traced in pairs if not plain.failed and not traced.failed]
    print(f"{len(pairs)} untraced + traced pairs; per-layer metrics of the traced runs:")
    metrics = {}
    for name, (unit, _) in LAYER_METRICS.items():
        if name == "trace.overhead_s":
            values = [traced.command_s - plain.command_s for plain, traced in ok]
        else:
            values = [traced.report["layers"][name] for _, traced in ok]
        if values:
            print_stat(name, values, unit)
        metrics[name] = (statistics.median(values) if values else None, unit)
    if ok:
        table = ok[-1][1].report["functions"]
        print("functions of the last traced run, by self time:")
        print(f"  {'name':40s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}")
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"])[:20]:
            print(f"  {name:40s} {row['calls']:9d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
    return result([r for pair in pairs for r in pair], metrics)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fracheat" / "cli.py").is_file():
        print(f"perfbench: no fracheat sources at {ROOT / 'src' / 'fracheat'}", file=sys.stderr)
        return 2

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, tmp)
        print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}")
        warmup = bench.run("--setup-only", "--env")
        env = {
            "git_sha": git_sha(ROOT),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            **warmup.report.get("env", {}),
            **{var: os.environ.get(var) for var in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        }
        print("env " + json.dumps(env))
        if args.trace:
            out = measure_traced(bench, args.seconds)
        else:
            out = measure(bench, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
