"""Per-layer metrics of a traced run, derived from its spans and from the
results of a few observed calls.

Every metric is reported on every workload; a layer that does not run on a
workload reads 0 there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from spans import Tracer, exclusive_total, has_ancestor, self_times

# name -> (unit, better); the order is the order of the report
METRICS: dict[str, tuple[str, str]] = {
    "fracops.ml.values": ("count", "lower"),
    "fracops.ml.s": ("s", "lower"),
    "fracops.ml.us_per_value": ("us/value", "lower"),
    "fracops.ml.distinct_share": ("ratio", "higher"),
    "fracops.wright.calls": ("count", "lower"),
    "fracops.wright.s": ("s", "lower"),
    "fracops.weights.calls": ("count", "lower"),
    "fracops.weights.s": ("s", "lower"),
    "spectral.build_model.s": ("s", "lower"),
    "spectral.multipliers.calls": ("count", "lower"),
    "spectral.multipliers.s": ("s", "lower"),
    "lpspace.from_basis.calls": ("count", "lower"),
    "lpspace.from_basis.s": ("s", "lower"),
    "lpspace.lp_norm.calls": ("count", "lower"),
    "lpspace.duality_map.calls": ("count", "lower"),
    "evolve.mild.calls": ("count", "lower"),
    "evolve.mild.s": ("s", "lower"),
    "evolve.mild.self_s": ("s", "lower"),
    "evolve.l1.s": ("s", "lower"),
    "gramian.assemble.s": ("s", "lower"),
    "gramian.verify.s": ("s", "lower"),
    "control.resolvent.calls": ("count", "lower"),
    "control.resolvent.s": ("s", "lower"),
    "control.resolvent.iterations_per_solve": ("iter/solve", "lower"),
    "control.resolvent.newton_share": ("ratio", "lower"),
    "control.resolvent.unconverged": ("count", "lower"),
    "control.mild_per_closed_loop": ("calls/loop", "lower"),
    "hvi.fp.iterations_per_eps": ("iter/eps", "lower"),
    "hvi.fp.closed_loops_per_eps": ("loops/eps", "lower"),
    "hvi.fp.converged_share": ("ratio", "higher"),
    "hvi.select.calls": ("count", "lower"),
    "hvi.select.s": ("s", "lower"),
    "config.build_experiment.s": ("s", "lower"),
    "cli.command.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

ML = {"fracops.ml_multipliers", "fracops.mittag_leffler", "fracops.mittag_leffler2"}
MULTIPLIERS = {"spectral.state_multipliers", "spectral.forcing_multipliers"}
COMMANDS = {"cli.cmd_sweep", "cli.cmd_validate", "cli.cmd_simulate"}
MILD = "evolve.mild_solution"
CLOSED_LOOP = "control.closed_loop_trajectory"
FIXED_POINT = "hvi.fixed_point_iterate"
RESOLVENT = "control.regularized_resolvent"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass
class Observed:
    """Counts taken from the arguments and results of observed calls."""

    ml_values: int = 0
    ml_keys: set = field(default_factory=set)
    solves: list = field(default_factory=list)       # (iterations, method, converged)
    fixed_points: list = field(default_factory=list)  # (iterations, converged)

    def attach(self, tracer: Tracer) -> None:
        tracer.observers.update({
            "fracops.ml_multipliers": self._ml_array,
            "fracops.mittag_leffler": self._ml_scalar,
            "fracops.mittag_leffler2": self._ml_scalar,
            RESOLVENT: self._resolvent,
            FIXED_POINT: self._fixed_point,
        })

    def _ml_array(self, bound, result) -> None:
        a = bound.arguments
        alpha, beta = float(a["alpha"]), float(a["beta"])
        flat = np.asarray(a["arguments"], dtype=float).ravel()
        self.ml_values += flat.size
        self.ml_keys.update((alpha, beta, z) for z in flat.tolist())

    def _ml_scalar(self, bound, result) -> None:
        a = bound.arguments
        self.ml_values += 1
        self.ml_keys.add((float(a["alpha"]), float(a.get("beta", 1.0)), float(a["z"])))

    def _resolvent(self, bound, result) -> None:
        self.solves.append((result.iterations, result.method, bool(result.converged)))

    def _fixed_point(self, bound, result) -> None:
        self.fixed_points.append((result.iterations, bool(result.converged)))


def layer_metrics(tracer: Tracer, observed: Observed) -> dict[str, float]:
    """Every metric of `METRICS` except trace.overhead_s, which needs an
    untraced run to compare with."""
    spans = tracer.spans
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def seconds(*names: str) -> float:
        return exclusive_total([s for n in names for s in by_name.get(n, ())], set(names))

    ml_s = seconds(*ML)
    mild = by_name.get(MILD, [])
    selfs = self_times(spans) if mild else {}
    loops = by_name.get(CLOSED_LOOP, [])
    mild_in_loops = sum(has_ancestor(s, {CLOSED_LOOP}) for s in mild)
    fp_loops = sum(has_ancestor(s, {FIXED_POINT}) for s in loops)
    solves = observed.solves
    fps = observed.fixed_points
    return {
        "fracops.ml.values": observed.ml_values,
        "fracops.ml.s": ml_s,
        "fracops.ml.us_per_value": _ratio(ml_s * 1e6, observed.ml_values),
        "fracops.ml.distinct_share": _ratio(len(observed.ml_keys), observed.ml_values),
        "fracops.wright.calls": calls("fracops.wright_density"),
        "fracops.wright.s": seconds("fracops.wright_density"),
        "fracops.weights.calls": calls("fracops.singular_conv_weights"),
        "fracops.weights.s": seconds("fracops.singular_conv_weights"),
        "spectral.build_model.s": seconds("spectral.build_model"),
        "spectral.multipliers.calls": sum(calls(n) for n in MULTIPLIERS),
        "spectral.multipliers.s": seconds(*MULTIPLIERS),
        "lpspace.from_basis.calls": calls("lpspace.from_basis"),
        "lpspace.from_basis.s": seconds("lpspace.from_basis"),
        "lpspace.lp_norm.calls": calls("lpspace.lp_norm"),
        "lpspace.duality_map.calls": calls("lpspace.duality_map"),
        "evolve.mild.calls": len(mild),
        "evolve.mild.s": seconds(MILD),
        "evolve.mild.self_s": sum(selfs[id(s)] for s in mild),
        "evolve.l1.s": seconds("evolve.l1_reference"),
        "gramian.assemble.s": seconds("gramian.assemble_gramian"),
        "gramian.verify.s": seconds("gramian.verify_gramian"),
        "control.resolvent.calls": calls(RESOLVENT),
        "control.resolvent.s": seconds(RESOLVENT),
        "control.resolvent.iterations_per_solve": _ratio(sum(s[0] for s in solves), len(solves)),
        "control.resolvent.newton_share": _ratio(sum("newton" in s[1] for s in solves), len(solves)),
        # a solve that raised never reported a result
        "control.resolvent.unconverged": (calls(RESOLVENT) - len(solves))
        + sum(not s[2] for s in solves),
        "control.mild_per_closed_loop": _ratio(mild_in_loops, len(loops)),
        "hvi.fp.iterations_per_eps": _ratio(sum(f[0] for f in fps), len(fps)),
        "hvi.fp.closed_loops_per_eps": _ratio(fp_loops, calls(FIXED_POINT)),
        "hvi.fp.converged_share": _ratio(sum(f[1] for f in fps), len(fps)),
        "hvi.select.calls": calls("hvi.select_forcing"),
        "hvi.select.s": seconds("hvi.select_forcing"),
        "config.build_experiment.s": seconds("config.build_experiment"),
        "cli.command.s": seconds(*COMMANDS),
    }
