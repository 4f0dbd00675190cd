"""Run configuration: one nested JSON document, flag overrides on top.

Every field is validated at load time, against the owning module's
constructor or with the check the module applies later (sweep window and
jobs, fdr checkpoints), so an invalid config is rejected with the
offending field named before any compute or file output happens.
"""
from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

from .analysis import check_checkpoint, check_window
from .domain import AnisotropyParams, DomainBox, VelocityField, make_velocity
from .errors import ConfigError
from .fields import ScalarField, fourier_mode, fourier_sum, random_fourier_sum
from .solver import SolverConfig

EXPERIMENTS = ("pde", "sde", "fdr", "sweep", "figures")

DEFAULTS = {
    "experiment": "pde",
    "domain": {
        "p": 2.0, "q": 3.0, "alpha": 1.0, "beta": 1.0,
        "Lx": 1.0, "Ly": 1.0, "nx": 128, "ny": 128,
        "epsilon": 1e-3, "amplitude": 1.0, "family": "stream",
    },
    "initial": {
        "kind": "mode", "mx": 1, "my": 1, "max_mode": 3, "seed": 0,
        "amplitude": 1.0, "terms": [[1, 1, "ss", 1.0]],
    },
    "solver": {
        "kappa": 0.01, "dt": 1e-3, "t_end": 2.0, "scheme": "sl_cn",
        "record_every": 10, "grad_backend": "difference",
    },
    "sweep": {
        "kappas": [1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1],
        "dts": None, "t_ends": None, "jobs": 1,
        "window": [0.1, 0.9],
    },
    "particles": {
        "n": 10000, "ds": 0.005, "seed": 12345, "t": 1.0,
        "x0": 0.0, "y0": 0.0, "times": [0.5, 1.0],
        "grid_nx": 32, "grid_ny": 32,
    },
    "output": {"dir": None},
}


def _merge(base: dict, extra: dict, path="") -> dict:
    out = copy.deepcopy(base)
    for key, val in extra.items():
        if key not in base:
            raise ConfigError(f"config.{path}{key}: unknown field")
        if isinstance(base[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config.{path}{key}: expected a section (object)")
            out[key] = _merge(base[key], val, f"{path}{key}.")
        else:
            out[key] = val
    return out


def _apply_override(doc: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"config.--set: expected key.path=value, got {assignment!r}")
    key, _, raw = assignment.partition("=")
    parts = key.strip().split(".")
    node = doc
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            raise ConfigError(f"config.--set: unknown section {key!r}")
        node = node[part]
    leaf = parts[-1]
    if leaf not in node:
        raise ConfigError(f"config.--set: unknown field {key!r}")
    try:
        node[leaf] = json.loads(raw)
    except json.JSONDecodeError:
        node[leaf] = raw  # bare strings are allowed unquoted


@dataclass
class RunConfig:
    """Validated run description plus the fully resolved document echo."""

    experiment: str
    doc: dict
    params: AnisotropyParams
    box: DomainBox
    velocity: VelocityField
    solver: SolverConfig

    def initial_field(self, box: DomainBox | None = None) -> ScalarField:
        ini = self.doc["initial"]
        box = box or self.box
        if ini["kind"] == "mode":
            return fourier_mode(box, int(ini["mx"]), int(ini["my"]),
                                amplitude=float(ini["amplitude"]))
        if ini["kind"] == "random":
            return random_fourier_sum(box, int(ini["max_mode"]), int(ini["seed"]),
                                      amplitude=float(ini["amplitude"]))
        if ini["kind"] == "sum":
            return fourier_sum(box, ini["terms"])
        raise ConfigError(f"initial.kind: must be 'mode', 'random', or 'sum', "
                          f"got {ini['kind']!r}")

    def launch_box(self) -> DomainBox:
        par = self.doc["particles"]
        return DomainBox(self.box.half_width_x, self.box.half_width_y,
                         int(par["grid_nx"]), int(par["grid_ny"]))


def _build_velocity(dom: dict, params: AnisotropyParams) -> VelocityField:
    family = dom["family"]
    amp = float(dom["amplitude"])
    eps = float(dom["epsilon"])
    if family == "zero":
        return VelocityField.zero()
    if family == "stream":
        return make_velocity(params, amp, eps, pure_diffusion=(amp == 0.0))
    if family == "shear":
        return VelocityField.shear(params, amp, eps)
    raise ConfigError(f"domain.family: must be stream, shear, or zero, got {family!r}")


def build_config(doc: dict) -> RunConfig:
    """Validate a fully merged document into module objects."""
    experiment = doc.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment: must be one of {EXPERIMENTS}, got {experiment!r}")
    dom, sol, par, sweep = doc["domain"], doc["solver"], doc["particles"], doc["sweep"]
    if sol["grad_backend"] not in ("difference", "spectral"):
        raise ConfigError(
            f"solver.grad_backend: must be 'difference' or 'spectral', "
            f"got {sol['grad_backend']!r}")
    try:
        params = AnisotropyParams(p=dom["p"], q=dom["q"],
                                  alpha=dom["alpha"], beta=dom["beta"])
        box = DomainBox(half_width_x=float(dom["Lx"]), half_width_y=float(dom["Ly"]),
                        nx=int(dom["nx"]), ny=int(dom["ny"]))
        velocity = _build_velocity(dom, params)
        solver = SolverConfig(kappa=float(sol["kappa"]), dt=float(sol["dt"]),
                              t_end=float(sol["t_end"]), scheme=sol["scheme"],
                              record_every=int(sol["record_every"]))
        for field, lo in (("n", 2), ("grid_nx", 8), ("grid_ny", 8)):
            if int(par[field]) < lo:
                raise ConfigError(f"particles.{field}: must be >= {lo}, got {par[field]}")
        for field in ("ds", "t"):
            if float(par[field]) <= 0:
                raise ConfigError(f"particles.{field}: must be > 0, got {par[field]}")
        if experiment == "fdr":
            times = [float(t) for t in par["times"]]
            if not times:
                raise ConfigError("particles.times: fdr needs at least one checkpoint")
            for t in times:
                check_checkpoint(t, solver.dt)
            if float(par["ds"]) > min(times):
                raise ConfigError(f"particles.ds: must not exceed the earliest "
                                  f"checkpoint {min(times)}, got {par['ds']}")
        ks = sweep["kappas"]
        if len(ks) < 4 or any(b <= a for a, b in zip(ks, ks[1:])):
            raise ConfigError("sweep.kappas: need >= 4 strictly increasing values")
        for name in ("dts", "t_ends"):
            if sweep[name] is not None and len(sweep[name]) != len(ks):
                raise ConfigError(f"sweep.{name}: must match sweep.kappas in length")
        check_window(sweep["window"], "sweep.window")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config: malformed numeric field ({exc})") from exc
    jobs = sweep["jobs"]
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise ConfigError(f"sweep.jobs: must be an integer >= 1, got {jobs!r}")
    return RunConfig(experiment=experiment, doc=doc, params=params, box=box,
                     velocity=velocity, solver=solver)


def load_config(path: str | Path | None = None, overrides=(),
                base: dict | None = None) -> RunConfig:
    """Merge defaults <- file <- --set overrides, then validate."""
    doc = copy.deepcopy(DEFAULTS)
    if base is not None:
        doc = _merge(doc, base)
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"config: cannot read {path} ({exc})") from exc
        try:
            user = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: {path} is not valid JSON ({exc})") from exc
        if not isinstance(user, dict):
            raise ConfigError(f"config: {path} must contain a JSON object")
        doc = _merge(doc, user)
    for assignment in overrides:
        _apply_override(doc, assignment)
    return build_config(doc)
