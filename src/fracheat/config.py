"""Experiment configuration: INI-style file with nested blocks, strict keys.

Unknown sections or keys are rejected at load, and the canonical key-value
dump is hashed so output files can embed the exact configuration they came
from.  This is the one module that reads setting text: every numeric key is
turned into a number here, with a message naming `section.key`, and the
solver modules take numbers.  `build_experiment` constructs the model and
problem data, whose constructors check their own inputs, checks each
tolerance (finite, >= 0) and iteration cap (an integer >= 1), and runs the
range checks `gramian`, `hvi` keep for their own entry points, so a bad
config fails before any work starts.  `model.horizon` and `solver.steps` set
the one `TimeGrid` of the experiment, built before the model, which the
Gramian, control synthesis and both trajectory channels share.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

try:  # the interpreter's own sha256: hashlib would load OpenSSL's libcrypto
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

import numpy as np

from .fracops import FracOrder, TimeGrid
from .lpspace import theta_grid
from .spectral import KernelSpec, SpectralModel, build_model
from .gramian import check_steps
from .hvi import NonsmoothPotential, abs_potential, audit_potential, check_epsilons, \
    check_relaxation, check_strategy, saturating_potential, tabulated_potential

__all__ = ["ExperimentConfig", "Experiment", "load_config", "build_experiment",
           "default_config_text", "parse_coefficients"]

SCHEMA_VERSION = 2

_SCHEMA = {
    "meta": {"schema_version": "2"},
    "model": {
        "modes": "8",
        "alpha": "0.75",
        "alpha1": "0.4",
        "horizon": "1.0",
        "p": "2.0",
        "kernel_b": "green",
        "kernel_h": "green",
    },
    "problem": {
        "x0": "bump",
        "target": "coeffs: 0.6, 0.2, -0.1",
        "potential": "abs:0.3",
    },
    "solver": {
        "steps": "512",
        "n_theta": "256",
        "resolvent_tol": "1e-11",
        "resolvent_max_iter": "400",
        "fixed_point_tol": "1e-8",
        "fixed_point_max_iter": "80",
        "relaxation": "0.5",
        "strategy": "sticky",
        "seed": "0",
    },
    "sweep": {
        "epsilons": "1e-1, 1e-2, 1e-3, 1e-4",
    },
    "output": {
        "directory": "out",
        "formats": "csv,json",
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated raw configuration plus its content hash."""

    raw: dict
    sha256: str

    def __getitem__(self, section: str) -> dict:
        return self.raw[section]


def default_config_text() -> str:
    lines = []
    for section, items in _SCHEMA.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in items.items())
        lines.append("")
    return "\n".join(lines)


def _number(value: str, key: str, kind: type = int):
    """A numeric setting as `kind`, int for counts or float; text that is no
    such number raises a ValueError naming `key`."""
    try:
        return kind(value)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{key} must be {noun}, got {value!r}") from None


def _tolerance(solver: dict, key: str) -> float:
    """solver.`key` as a finite float >= 0."""
    tol = _number(solver[key], f"solver.{key}", float)
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"solver.{key} must be finite and >= 0, got {tol}")
    return tol


def _iteration_cap(solver: dict, key: str) -> int:
    """solver.`key` as an int >= 1."""
    cap = _number(solver[key], f"solver.{key}")
    if cap < 1:
        raise ValueError(f"solver.{key} must be an integer >= 1, got {cap}")
    return cap


def parse_coefficients(text: str, key: str, n_modes: int) -> np.ndarray:
    """`text`'s comma-separated values zero-padded to n_modes: at most
    n_modes finite numbers.  Reads a `coeffs:` state and simulate's
    coefficient flags."""
    vals = [_number(v.strip(), f"{key} coefficient", float) for v in text.split(",")]
    if len(vals) > n_modes:
        raise ValueError(f"{key} takes at most {n_modes} coefficients, got {len(vals)}")
    bad = [v for v in vals if not math.isfinite(v)]
    if bad:
        raise ValueError(f"{key} coefficient must be finite, got {bad[0]}")
    out = np.zeros(n_modes)
    out[: len(vals)] = vals
    return out


def _hash(raw: dict) -> str:
    canon = ";".join(
        f"{s}.{k}={raw[s][k]}" for s in sorted(raw) for k in sorted(raw[s])
    )
    return sha256(canon.encode()).hexdigest()[:16]


def load_config(path: str | Path, overrides: list[str] | None = None) -> ExperimentConfig:
    """Parse and validate a config file; overrides are 'section.key=value'."""
    parser = configparser.ConfigParser()
    read = parser.read(str(path))
    if not read:
        raise ValueError(f"cannot read config file {path}")
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ValueError(f"override must look like section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        if not parser.has_section(section.strip()):
            parser.add_section(section.strip())
        parser.set(section.strip(), key.strip(), value.strip())

    raw: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ValueError(f"unknown config section [{section}]")
        raw[section] = {}
        for key, value in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ValueError(f"unknown key {key!r} in section [{section}]")
            raw[section][key] = value.strip()
    # fill defaults
    for section, items in _SCHEMA.items():
        raw.setdefault(section, {})
        for key, value in items.items():
            raw[section].setdefault(key, value)
    if _number(raw["meta"]["schema_version"], "meta.schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema_version {raw['meta']['schema_version']} (expected {SCHEMA_VERSION})"
        )
    return ExperimentConfig(raw=raw, sha256=_hash(raw))


def _parse_kernel(key: str, spec: str, base: Path) -> KernelSpec:
    spec = spec.strip()
    if spec in ("green", "min"):
        return KernelSpec(spec)
    if spec.startswith("table:"):
        table = np.loadtxt(base / spec[len("table:"):], delimiter=",")
        return KernelSpec("custom", table)
    raise ValueError(f"model.{key} must be green, min or table:<path>, got {spec!r}")


def _parse_state(key: str, spec: str, model: SpectralModel) -> np.ndarray:
    spec = spec.strip()
    out = np.zeros(model.n_modes)
    if spec == "bump":
        theta = theta_grid(model.n_theta)
        out = model.basis.T @ (theta * (math.pi - theta)) * (math.pi / model.n_theta)
    elif spec.startswith("coeffs:"):
        out = parse_coefficients(spec[len("coeffs:"):], f"problem.{key}", model.n_modes)
    elif spec.startswith("sine:"):
        parts = spec[len("sine:"):].split(":")
        if len(parts) > 2:
            raise ValueError(f"problem.{key} must be sine:n[:amp], got {spec!r}")
        n = _number(parts[0], f"problem.{key} sine mode")
        amp = _number(parts[1], f"problem.{key} amplitude", float) if len(parts) > 1 else 1.0
        if not 1 <= n <= model.n_modes:
            raise ValueError(f"problem.{key} sine mode {n} outside 1..{model.n_modes}")
        if not math.isfinite(amp):
            raise ValueError(f"problem.{key} amplitude must be finite, got {amp}")
        out[n - 1] = amp
    elif spec != "zero":
        raise ValueError(f"problem.{key} must be zero, bump, coeffs:... or sine:n[:amp], "
                         f"got {spec!r}")
    return out


def _parse_potential(spec: str, base: Path) -> NonsmoothPotential:
    spec = spec.strip()
    if spec == "zero":
        return abs_potential(0.0)
    if spec.startswith("abs:"):
        return abs_potential(_number(spec[len("abs:"):], "problem.potential coefficient", float))
    if spec.startswith("sat:"):
        parts = spec[len("sat:"):].split(":")
        if len(parts) > 2:
            raise ValueError(f"problem.potential must be sat:c[:cap], got {spec!r}")
        cap = _number(parts[1], "problem.potential cap", float) if len(parts) > 1 else 1.0
        return saturating_potential(_number(parts[0], "problem.potential coefficient", float), cap)
    if spec.startswith("table:"):
        data = np.loadtxt(base / spec[len("table:"):], delimiter=",", ndmin=2)
        if data.shape[0] < 2 or data.shape[1] != 2:
            raise ValueError(f"problem.potential table must have n >= 2 rows of (r, F), "
                             f"got shape {data.shape}")
        pot = tabulated_potential(data[:, 0], data[:, 1])
        audit_potential(pot, np.linspace(-3.0, 3.0, 201))
        return pot
    raise ValueError(f"problem.potential must be zero, abs:c, sat:c[:cap] or table:<path>, "
                     f"got {spec!r}")


@dataclass
class Experiment:
    """Resolved unit of work for the command-line pipeline."""

    config: ExperimentConfig
    model: SpectralModel
    grid: TimeGrid
    x0: np.ndarray
    target: np.ndarray
    potential: NonsmoothPotential
    resolvent_tol: float
    resolvent_max_iter: int
    fixed_point_tol: float
    fixed_point_max_iter: int
    relaxation: float
    strategy: str
    seed: int
    epsilons: list[float]
    output_dir: Path
    formats: tuple[str, ...]


def build_experiment(cfg: ExperimentConfig, base: Path | None = None) -> Experiment:
    """Instantiate the model and problem data and check the solver settings."""
    base = base if base is not None else Path.cwd()
    model_cfg = cfg["model"]
    solver = cfg["solver"]

    n_modes = _number(model_cfg["modes"], "model.modes")
    alpha, alpha1, horizon, p = (_number(model_cfg[key], f"model.{key}", float)
                                 for key in ("alpha", "alpha1", "horizon", "p"))
    n_theta = _number(solver["n_theta"], "solver.n_theta")
    grid = TimeGrid(horizon, check_steps(_number(solver["steps"], "solver.steps")))
    model = build_model(
        n_modes,
        FracOrder(alpha, alpha1),
        _parse_kernel("kernel_b", model_cfg["kernel_b"], base),
        _parse_kernel("kernel_h", model_cfg["kernel_h"], base),
        p,
        n_theta,
    )
    spec = cfg["output"]["formats"]
    formats = tuple(f.strip() for f in spec.split(",") if f.strip())
    if not formats:
        raise ValueError(f"output.formats must name csv, json or both, got {spec!r}")
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise ValueError(f"unknown output format {fmt!r}")

    return Experiment(
        config=cfg,
        model=model,
        grid=grid,
        x0=_parse_state("x0", cfg["problem"]["x0"], model),
        target=_parse_state("target", cfg["problem"]["target"], model),
        potential=_parse_potential(cfg["problem"]["potential"], base),
        resolvent_tol=_tolerance(solver, "resolvent_tol"),
        resolvent_max_iter=_iteration_cap(solver, "resolvent_max_iter"),
        fixed_point_tol=_tolerance(solver, "fixed_point_tol"),
        fixed_point_max_iter=_iteration_cap(solver, "fixed_point_max_iter"),
        relaxation=check_relaxation(_number(solver["relaxation"], "solver.relaxation", float)),
        strategy=check_strategy(solver["strategy"]),
        seed=_number(solver["seed"], "solver.seed"),
        epsilons=check_epsilons([_number(v.strip(), "sweep.epsilons", float)
                                 for v in cfg["sweep"]["epsilons"].split(",") if v.strip()]),
        output_dir=base / cfg["output"]["directory"],
        formats=formats,
    )
