"""Run configuration: one nested JSON document, flag overrides on top.

Every field of every section is validated at load time, in one pass and
whatever the command, so an invalid config is rejected under the field
the user set before any compute or file output happens.  Each field's
type is stated once, by its value in DEFAULTS: an integer field accepts
an int or a float with an integral value (1e4); a float field, and each
entry of a list of numbers, of a sweep ladder (sweep.dts, sweep.t_ends)
that is not null and of an amplitude in initial.terms, accepts an int or
a finite float (no bool, string, NaN or infinity).  The rules on values
are the owning modules', which name the config fields: the domain,
velocity, solver and initial-field constructors, check_sweep (which
builds every kappa's SolverConfig), the fit window and the fdr
checkpoints.  initial.amplitude scales every kind of initial field, a
sum's terms included.  A rerun merges its
manifest's config over the defaults exactly as a config file is merged,
so a field this version does not know, such as one an earlier version
had, is rejected as in a config file.  So is each `--set a.b=value`: it
is merged as the document {"a": {"b": value}}, so a whole section may be
set, and the merge names any unknown field.
"""
from __future__ import annotations

import copy
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .analysis import check_checkpoint, check_sweep, check_window
from .domain import AnisotropyParams, DomainBox, VelocityField
from .errors import ConfigError
from .fields import (ScalarField, fourier_mode, fourier_sum, fourier_terms,
                     random_fourier_sum)
from .manifest import read_json_object
from .solver import SolverConfig

EXPERIMENTS = ("pde", "sde", "fdr", "sweep", "figures")

DEFAULTS = {
    "experiment": "pde",
    "domain": {
        "p": 2.0, "q": 3.0, "Lx": 1.0, "Ly": 1.0, "nx": 128, "ny": 128,
        "epsilon": 1e-3, "amplitude": 1.0, "family": "stream",
    },
    "initial": {
        "kind": "mode", "mx": 1, "my": 1, "max_mode": 3, "seed": 0,
        "amplitude": 1.0, "terms": [[1, 1, "ss", 1.0]],
    },
    "solver": {
        "kappa": 0.01, "dt": 1e-3, "t_end": 2.0, "scheme": "sl_cn",
        "record_every": 10,
    },
    "sweep": {
        "kappas": [1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1],
        "dts": None, "t_ends": None, "window": [0.1, 0.9],
    },
    "particles": {
        "n": 10000, "ds": 0.005, "seed": 12345, "t": 1.0,
        "x0": 0.0, "y0": 0.0, "times": [0.5, 1.0],
        "grid_nx": 32, "grid_ny": 32,
    },
    "output": {"dir": None},
}

# the lower bounds that no owner states for every command
_LOWER_BOUNDS = {"initial.max_mode": 1, "initial.seed": 0, "particles.n": 2,
                 "particles.seed": 0}
# the per-kappa ladders, whose default null stands for a list of numbers
_LADDERS = ("sweep.dts", "sweep.t_ends")


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


def _apply_override(doc: dict, assignment: str) -> dict:
    """doc with one --set key.path=value merged in, by the rule of _merge."""
    if "=" not in assignment:
        raise ConfigError(f"config.--set: expected key.path=value, got {assignment!r}")
    key, _, raw = assignment.partition("=")
    try:
        value = json.loads(raw)
    except (ValueError, RecursionError):
        value = raw  # a bare string, or a value the field's reader rejects by name
    for part in reversed(key.strip().split(".")):
        value = {part: value}
    return _merge(doc, value)


@dataclass
class RunConfig:
    """Validated run description plus the fully resolved document echo."""

    experiment: str
    doc: dict
    box: DomainBox
    velocity: VelocityField
    solver: SolverConfig
    initial: ScalarField
    launch_box: DomainBox   # the Feynman-Kac launch grid of fdr

    def initial_field(self) -> ScalarField:
        """The initial field, built once when the config was validated."""
        return self.initial


def _integer(value, name: str, lo: int | None = None) -> int:
    """An int, or a float with an integral value (so 1e4 reads as 10000)."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name}: must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{name}: must be >= {lo}, got {value}")
    return value


def _real(value, name: str) -> float:
    """An int or a finite float, as a float: no bool, string, NaN or infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name}: must be a finite number, got {value!r}")
    return float(value)


def _check_leaves(doc: dict, defaults: dict = DEFAULTS, path: str = "") -> None:
    """Check each leaf of doc by the type of its default: an int takes
    _integer, normalized in place; a float, _real; a list of numbers, or a
    ladder that is not null, _real on each entry.  Their owners check the
    other leaves: the strings, initial.terms and output.dir."""
    for key, default in defaults.items():
        name, value = path + key, doc[key]
        if isinstance(default, dict):
            _check_leaves(value, default, name + ".")
        elif isinstance(default, int):
            doc[key] = _integer(value, name, _LOWER_BOUNDS.get(name))
        elif isinstance(default, float):
            _real(value, name)
        elif (isinstance(default, list) and all(isinstance(v, (int, float)) for v in default)
              or name in _LADDERS and value is not None):
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{name}: must be a list of numbers, got {value!r}")
            for entry in value:
                _real(entry, name)


def _build_initial(ini: dict, box: DomainBox) -> ScalarField:
    amplitude = float(ini["amplitude"])
    if ini["kind"] == "mode":
        return fourier_mode(box, ini["mx"], ini["my"], amplitude=amplitude)
    if ini["kind"] == "random":
        return random_fourier_sum(box, ini["max_mode"], ini["seed"], amplitude=amplitude)
    if ini["kind"] == "sum":
        return fourier_sum(box, [(mx, my, kind, amplitude * amp)
                                 for mx, my, kind, amp in ini["terms"]])
    raise ConfigError(f"initial.kind: must be 'mode', 'random', or 'sum', "
                      f"got {ini['kind']!r}")


def _build_launch_box(box: DomainBox, par: dict) -> DomainBox:
    """box's extent on the particles.grid_nx x grid_ny grid; DomainBox's
    errors about its nx or ny are renamed to the config fields."""
    try:
        return DomainBox(box.half_width_x, box.half_width_y,
                         par["grid_nx"], par["grid_ny"])
    except ConfigError as exc:
        raise ConfigError(str(exc).replace("domain.n", "particles.grid_n")) from None


def _check_nyquist(ini: dict, box: DomainBox) -> None:
    """Every initial mode number, whatever initial.kind, resolved on its axis:
    a sine factor's at most n // 2, where it alternates from cell to cell,
    and a cosine factor's at most n // 2 - 1, for at n // 2 it vanishes at
    every cell centre; a higher mode aliases.  initial.mx and my are sine
    factors, and a random field has cosine factors on both axes at every
    mode up to initial.max_mode."""
    half_x, half_y = box.nx // 2, box.ny // 2
    modes = [("initial.mx", ini["mx"], 1, "ss", ini["mx"]),
             ("initial.my", 1, ini["my"], "ss", ini["my"]),
             ("initial.max_mode", ini["max_mode"], ini["max_mode"], "cc", ini["max_mode"])]
    modes += [("initial.terms", term[0], term[1], term[2], term) for term in ini["terms"]]
    for name, mx, my, kind, given in modes:
        bx, by = half_x - (kind[0] == "c"), half_y - (kind[1] == "c")
        if mx > bx or my > by:
            raise ConfigError(f"{name}: mode numbers must be <= {bx} along x and <= {by} along "
                              f"y, got {given!r} (a sine factor's <= n // 2, a cosine "
                              f"factor's <= n // 2 - 1)")


def build_config(doc: dict) -> RunConfig:
    """Validate a fully merged document into module objects, in one pass.

    Integer fields are normalized in place (1e4 becomes 10000); float
    fields are checked but left as given, so the manifest echoes them.
    The initial field is built here, once, so that a bad initial section
    is rejected for every command.
    """
    experiment = doc.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment: must be one of {EXPERIMENTS}, got {experiment!r}")
    dom, sol, ini = doc["domain"], doc["solver"], doc["initial"]
    par, sweep = doc["particles"], doc["sweep"]
    try:
        _check_leaves(doc)
        ini["terms"] = [[_integer(mx, "initial.terms"), _integer(my, "initial.terms"),
                         kind, _real(amp, "initial.terms")]
                        for mx, my, kind, amp in fourier_terms(ini["terms"])]
        velocity = VelocityField(dom["family"], AnisotropyParams(p=dom["p"], q=dom["q"]),
                                 float(dom["amplitude"]), float(dom["epsilon"]))
        box = DomainBox(half_width_x=float(dom["Lx"]), half_width_y=float(dom["Ly"]),
                        nx=dom["nx"], ny=dom["ny"])
        _check_nyquist(ini, box)
        solver = SolverConfig(kappa=float(sol["kappa"]), dt=float(sol["dt"]),
                              t_end=float(sol["t_end"]), scheme=sol["scheme"],
                              record_every=sol["record_every"])
        for field in ("ds", "t"):
            if not float(par[field]) > 0.0:
                raise ConfigError(f"particles.{field}: must be > 0, got {par[field]}")
        launch_box = _build_launch_box(box, par)
        if experiment == "fdr":
            check_checkpoint(par["times"], solver.dt, solver.record_every)
        check_sweep(sweep["kappas"], solver, sweep["dts"], sweep["t_ends"])
        check_window(sweep["window"], "sweep.window")
        outdir = doc["output"]["dir"]
        if outdir is not None and not isinstance(outdir, str):
            raise ConfigError(f"output.dir: must be null or a string, got {outdir!r}")
        initial = _build_initial(ini, box)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config: malformed numeric field ({exc})") from exc
    return RunConfig(experiment=experiment, doc=doc, box=box, velocity=velocity,
                     solver=solver, initial=initial, launch_box=launch_box)


def load_config(path: str | Path | None = None, overrides=(),
                base: dict | None = None) -> RunConfig:
    """Merge defaults <- base <- file <- --set overrides, then validate.

    base is a partial document merged like a file: `main` passes the
    command name for a run, or a manifest's config for `rerun`.
    """
    doc = copy.deepcopy(DEFAULTS)
    if base is not None:
        doc = _merge(doc, base)
    if path is not None:
        doc = _merge(doc, read_json_object(path, "config"))
    for assignment in overrides:
        doc = _apply_override(doc, assignment)
    return build_config(doc)
