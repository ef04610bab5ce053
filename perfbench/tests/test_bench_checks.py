"""Tests of the benchmark's output checks and failure accounting."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent)]

import pytest  # noqa: E402

import run as bench  # noqa: E402
from workloads import SEED0_SWEEP_MISSES, WORKLOADS  # noqa: E402


def _ok_run():
    return bench.Run(rc=0, wall_s=1.0, cpu_s=1.0, peak_rss_mb=1.0, setup_s=0.5, command_s=1.0)


def _sweep_summary(misses, free=0.6923574056719491):
    return {"free_terminal_miss": free, "entries": [
        {"epsilon": e, "terminal_miss": m, "converged": True, "identity_residual": 1e-15}
        for e, m in zip((1e-1, 1e-2, 1e-3, 1e-4), misses)]}


def _write_outputs(run_dir: Path, stdout: str = "", summary=None, trajectory=None):
    (run_dir / "out").mkdir(parents=True)
    (run_dir / "stdout").write_text(stdout)
    if summary is not None:
        (run_dir / "out" / "summary.json").write_text(json.dumps(summary))
    if trajectory is not None:
        (run_dir / "out" / "trajectory.csv").write_text(trajectory)


def _trajectory(rows: int) -> str:
    return "# header\nnode,t,c1,l1_gap\n" + "".join(f"{k},0.0,1.0,0.0\n" for k in range(rows))


CASES = {
    "sweep": (
        dict(summary=_sweep_summary(SEED0_SWEEP_MISSES)),
        dict(summary=_sweep_summary((0.17, 0.08, 0.08, 0.002))),
        "strictly decrease",
    ),
    "validate-p4": (
        dict(stdout="[PASS] a: ok\n[PASS] b: ok\n"),
        dict(stdout="[PASS] a: ok\n[FAIL] b: defect 1e-3\n"),
        "[FAIL] b",
    ),
    "simulate-long": (
        dict(stdout="cross-solver gap: 8.392e-06 relative (sup over nodes)\n",
             trajectory=_trajectory(4097)),
        dict(stdout="cross-solver gap: 2.000e-03 relative (sup over nodes)\n",
             trajectory=_trajectory(4097)),
        "cross-solver gap",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_corrupted_output_counts_as_failed_run(name, tmp_path):
    workload = WORKLOADS[name]
    inputs = workload.make_inputs(0)
    good, bad, expected = CASES[name]
    runs = []
    for tag, outputs in (("good", good), ("bad", bad)):
        run_dir = tmp_path / tag
        _write_outputs(run_dir, **outputs)
        run = _ok_run()
        bench.check(workload, inputs, 0, run, run_dir)
        runs.append(run)
    assert runs[0].problems == []
    assert any(expected in p for p in runs[1].problems), runs[1].problems
    out = bench.result(runs, {})
    assert (out["correct"], out["attempted"], out["failed"]) == (False, 2, 1)


def test_sweep_misses_are_compared_with_the_reference_on_seed_0(tmp_path):
    workload = WORKLOADS["sweep"]
    shifted = [m + 1e-6 for m in SEED0_SWEEP_MISSES]  # well above 10 * fixed_point_tol
    _write_outputs(tmp_path, summary=_sweep_summary(shifted))
    run = _ok_run()
    bench.check(workload, workload.make_inputs(0), 0, run, tmp_path)
    assert any("reference" in p for p in run.problems)
    # other seeds have other targets, so only the criteria apply
    run = _ok_run()
    bench.check(workload, workload.make_inputs(1), 1, run, tmp_path)
    assert run.problems == []


def test_missing_output_and_nonzero_exit_count_as_failed(tmp_path):
    workload = WORKLOADS["sweep"]
    run = _ok_run()
    bench.check(workload, workload.make_inputs(0), 0, run, tmp_path)  # no files at all
    assert run.failed
    crashed = _ok_run()
    crashed.rc = 1
    assert bench.result([crashed], {})["failed"] == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    make = WORKLOADS[name].make_inputs
    assert make(7) == make(7)
    assert make(7) != make(8)
