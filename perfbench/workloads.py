"""The benchmark's three workloads: inputs from a seed, one timed unit, checks.

Each workload is a scaled-down acceptance criterion of the test suite:

    sweep_stream  criterion 10: `anisodiff sweep` run in-process via cli.main
    fk_stream     criterion 7, stream case: particles.feynman_kac called directly
    fdr_heat      criterion 8: `anisodiff fdr` run in-process via cli.main

Constructing a workload is the set-up: config validation, the initial field
and the velocity.  `unit(k, out)` is one fixed amount of work, writing any
artifacts under `out`, and is the only thing timed.  `check(k, out)` verifies a unit's outputs and runs untimed.
Program functions are always looked up on their module at call time
(`cli.main`, `particles.feynman_kac`), so the span helper's rebinding of
module names is what gets called in a traced run.  NOTES.md says why each
workload was chosen.
"""
from __future__ import annotations

import json
import math
import shutil
import statistics
from pathlib import Path

import numpy as np

from anisodiff import cli, config, domain, fields, particles, solver

HERE = Path(__file__).resolve().parent
SWEEP_REFERENCE = HERE / "sweep_reference.json"
# initial-field seeds 0..9 have recorded sweep rates (record_reference.py)
REFERENCE_SEEDS = 10


def unit_seed(seed: int, k: int) -> int:
    """Feynman-Kac seed of unit k of a run with workload seed `seed`."""
    return int(np.random.SeedSequence([seed % 2**32, k]).generate_state(1)[0])


def _courant(velocity, box, dt) -> float:
    """Courant number max|u| dt / h of a time step dt on the box grid."""
    return velocity.max_speed(box) * dt / min(box.hx, box.hy)


def _step_over_box(velocity, box, kappa, ds) -> float:
    """Nominal largest one-step particle displacement over the box width:
    drift max|u| ds plus a 6-sigma Brownian increment."""
    step = velocity.max_speed(box) * ds + 6.0 * math.sqrt(2.0 * kappa * ds)
    return step / (2.0 * min(box.half_width_x, box.half_width_y))


def _overrides(doc: dict) -> list[str]:
    return [f"{key}={json.dumps(val)}" for key, val in doc.items()]


class SweepStream:
    """Criterion-10 scaling-law sweep: stream (2,3), 256^2, 7-kappa ladder."""

    name = "sweep_stream"
    work_unit = "cell-steps"
    KAPPAS = [1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1]
    DTS = [0.1, 0.1, 0.05, 0.05, 0.05, 0.02, 0.02]
    T_ENDS = [40.0, 40.0, 20.0, 10.0, 10.0, 5.0, 5.0]
    CI_MAX = 0.1
    ops_per_unit = 3 * len(KAPPAS) + 1

    def __init__(self, seed: int):
        # the seed picks one of the initial fields whose rates were recorded
        self.init_seed = seed % REFERENCE_SEEDS
        self.sets = _overrides({
            "domain.nx": 256, "domain.ny": 256, "domain.amplitude": 1.0,
            "domain.epsilon": 1e-3, "domain.family": "stream",
            "domain.p": 2.0, "domain.q": 3.0,
            "initial.kind": "random", "initial.max_mode": 3,
            "initial.seed": self.init_seed,
            "solver.kappa": self.KAPPAS[0], "solver.dt": 0.05,
            "solver.t_end": 20.0, "solver.record_every": 1,
            "sweep.kappas": self.KAPPAS, "sweep.dts": self.DTS,
            "sweep.t_ends": self.T_ENDS,
        })
        self.cfg = config.load_config(None, overrides=self.sets,
                                      base={"experiment": "sweep"})
        self.rho0 = self.cfg.initial_field()
        self.velocity = self.cfg.velocity
        self.steps = sum(int(round(te / dt)) for dt, te in zip(self.DTS, self.T_ENDS))
        box = self.cfg.box
        self.work_per_unit = box.nx * box.ny * self.steps

    def unit(self, k: int, out: Path):
        argv = ["sweep", "--out", str(out)]
        for s in self.sets:
            argv += ["--set", s]
        return cli.main(argv), out

    def check(self, k: int, result) -> tuple[int, int, list[str]]:
        """7 solver runs + 7 fits + 7 rate checks + 1 CI check."""
        rc, out = result
        attempted = self.ops_per_unit
        if rc != 0:
            return attempted, attempted, [f"sweep exited {rc}"]
        rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
        got = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
        report = (out / "exponent_report.csv").read_text().strip().splitlines()
        ci95 = float(report[1].split(",")[5])
        reference = json.loads(SWEEP_REFERENCE.read_text())
        expected = reference["rates"][str(self.init_seed)]
        tol = float(reference["rel_tol"])
        failed, notes = 0, []
        for kappa, want in zip(self.KAPPAS, expected):
            if kappa not in got:
                failed += 3  # run or fit failed, so its rate check fails too
                notes.append(f"kappa={kappa:g}: no fit")
            elif abs(got[kappa] - want) > tol * abs(want):
                failed += 1
                notes.append(f"kappa={kappa:g}: rate {got[kappa]!r} != {want!r}")
        if not ci95 <= self.CI_MAX:
            failed += 1
            notes.append(f"slope CI {ci95:.4f} > {self.CI_MAX}")
        shutil.rmtree(out, ignore_errors=True)
        return attempted, failed, notes

    def descriptors(self) -> dict:
        box = self.cfg.box
        dts = sorted(set(self.DTS))
        return {
            "grid": [box.nx, box.ny],
            "steps": self.steps,
            "cell_steps": self.work_per_unit,
            "particle_steps": 0,
            "courant_by_dt": {repr(dt): _courant(self.velocity, box, dt) for dt in dts},
            "courant_max": max(_courant(self.velocity, box, dt) for dt in dts),
            "sl_step_over_box": self.velocity.max_speed(box) * max(dts)
            / (2.0 * box.half_width_x),
            "particle_step_over_box": 0.0,
            "field_bytes": box.nx * box.ny * 8,
            "initial_field_seed": self.init_seed,
        }


class FkStream:
    """Criterion-7 stream case: Feynman-Kac on a reduced launch grid."""

    name = "fk_stream"
    work_unit = "particle-steps"
    KAPPA, T, DS, N = 0.05, 0.5, 2.5e-3, 1000
    LAUNCH = 16
    ops_per_unit = 2

    def __init__(self, seed: int):
        self.seed = seed
        self.box = domain.DomainBox(1.0, 1.0, 128, 128)
        self.launch = domain.DomainBox(1.0, 1.0, self.LAUNCH, self.LAUNCH)
        self.rho0 = fields.fourier_mode(self.box, 1, 1)
        self.velocity = domain.make_velocity(
            domain.AnisotropyParams(p=2, q=3), 0.25, 1e-3)
        self.m = max(1, int(round(self.T / self.DS)))
        self.work_per_unit = self.LAUNCH ** 2 * self.N * self.m
        self._reference = None

    def unit(self, k: int, out: Path):
        mean, vmap = particles.feynman_kac(
            self.rho0, self.velocity, self.T, self.KAPPA, n=self.N, ds=self.DS,
            seed=unit_seed(self.seed, k), launch_box=self.launch)
        return mean.values, particles.variance_integral(vmap)

    def reference(self) -> np.ndarray:
        """PDE solution at the launch points (criterion 7's solver settings)."""
        if self._reference is None:
            series = solver.run(self.rho0, self.velocity, solver.SolverConfig(
                kappa=self.KAPPA, dt=2e-3, t_end=self.T, record_every=10))
            self._reference = fields.sample_many(series.final_state,
                                                 *self.launch.grid())
        return self._reference

    def check(self, k: int, result) -> tuple[int, int, list[str]]:
        """1 Feynman-Kac call + 1 agreement check (L2 error <= 3 sigma)."""
        mean, var_int = result
        err = float(np.sqrt(np.sum((mean - self.reference()) ** 2)
                            * self.launch.hx * self.launch.hy))
        sigma = float(np.sqrt(var_int / self.N))
        if np.isfinite(err) and err <= 3.0 * sigma:
            return self.ops_per_unit, 0, []
        return self.ops_per_unit, 1, [f"unit {k}: L2 err {err:.5f} > 3 sigma {3 * sigma:.5f}"]

    def descriptors(self) -> dict:
        return {
            "grid": [self.box.nx, self.box.ny],
            "launch_grid": [self.launch.nx, self.launch.ny],
            "n": self.N,
            "steps": self.m,
            "cell_steps": 0,
            "particle_steps": self.work_per_unit,
            "courant_max": _courant(self.velocity, self.box, self.DS),
            "sl_step_over_box": 0.0,
            "particle_step_over_box": _step_over_box(self.velocity, self.box,
                                                     self.KAPPA, self.DS),
            "field_bytes": self.box.nx * self.box.ny * 8,
        }


class FdrHeat:
    """Criterion-8 pure-diffusion FDR check at t = 0.5 and 1.0."""

    name = "fdr_heat"
    work_unit = "particle-steps"
    KAPPA, DT, DS, N = 0.05, 2e-3, 0.01, 1000
    LAUNCH = 16
    TIMES = [0.5, 1.0]
    # A 3-sigma test fails 0.27% of fair draws, and the benchmark makes
    # about a thousand of these checks per pass; 5 sigma fails 6e-7.
    Z_MAX = 5.0
    ops_per_unit = 4 * len(TIMES)

    def __init__(self, seed: int):
        self.seed = seed
        self._ratios: dict[float, dict[int, tuple[float, float]]] = {}
        self.doc = {
            "domain.family": "zero", "domain.nx": 128, "domain.ny": 128,
            "solver.kappa": self.KAPPA, "solver.dt": self.DT,
            "solver.record_every": 10,
            "particles.ds": self.DS, "particles.n": self.N,
            "particles.grid_nx": self.LAUNCH, "particles.grid_ny": self.LAUNCH,
            "particles.times": self.TIMES,
        }
        self.cfg = config.load_config(None, overrides=_overrides(self.doc),
                                      base={"experiment": "fdr"})
        self.rho0 = self.cfg.initial_field()
        self.velocity = self.cfg.velocity
        self.steps = sum(int(round(t / self.DT)) for t in self.TIMES)
        self.work_per_unit = sum(self.LAUNCH ** 2 * self.N * int(round(t / self.DS))
                                 for t in self.TIMES)

    def unit(self, k: int, out: Path):
        doc = dict(self.doc, **{"particles.seed": unit_seed(self.seed, k)})
        argv = ["fdr", "--out", str(out)]
        for s in _overrides(doc):
            argv += ["--set", s]
        return cli.main(argv), out

    def check(self, k: int, result) -> tuple[int, int, list[str]]:
        """Per checkpoint: solver run, Feynman-Kac call, finiteness, ratio.

        The ratio of one unit must lie within Z_MAX sigma of 0.5; it is also
        kept for the pooled test of `check_pooled`.
        """
        rc, out = result
        attempted = self.ops_per_unit
        if rc != 0:
            return attempted, attempted, [f"fdr exited {rc}"]
        rows = (out / "fdr.csv").read_text().strip().splitlines()[1:]
        notes_txt = (out / "fdr_stderr.txt").read_text().strip().splitlines()
        failed, notes = 0, []
        for row, note in zip(rows, notes_txt):
            t, lhs, rhs, ratio = (float(v) for v in row.split(","))
            stderr = float(note.rsplit("=", 1)[1])
            if not (math.isfinite(lhs) and math.isfinite(rhs)):
                failed += 1
                notes.append(f"t={t}: non-finite lhs/rhs")
                continue
            sigma = abs(lhs) / rhs ** 2 * stderr
            self._ratios.setdefault(t, {})[k] = (ratio, sigma)
            if not abs(ratio - 0.5) <= self.Z_MAX * sigma:
                failed += 1
                notes.append(f"unit {k}, t={t}: ratio {ratio:.5f} off 0.5 by "
                             f"> {self.Z_MAX:g} sigma {sigma:.5f}")
        failed += 4 * (len(self.TIMES) - len(rows))
        shutil.rmtree(out, ignore_errors=True)
        return attempted, failed, notes

    def check_pooled(self) -> tuple[int, int, list[str]]:
        """One op per checkpoint: the mean ratio of all distinct units of the
        run lies within Z_MAX pooled sigma of 0.5.  Units are keyed by k, so
        a traced rerun of the same seed is not counted twice."""
        failed, notes = 0, []
        for t in self.TIMES:
            units = list(self._ratios.get(t, {}).values())
            if not units:
                failed += 1
                notes.append(f"t={t}: no unit to pool")
                continue
            mean = statistics.fmean(r for r, _ in units)
            sigma = math.sqrt(sum(s * s for _, s in units)) / len(units)
            if not abs(mean - 0.5) <= self.Z_MAX * sigma:
                failed += 1
                notes.append(f"t={t}: mean ratio of {len(units)} units {mean:.5f} "
                             f"off 0.5 by > {self.Z_MAX:g} sigma {sigma:.5f}")
        return len(self.TIMES), failed, notes

    def descriptors(self) -> dict:
        box = self.cfg.box
        return {
            "grid": [box.nx, box.ny],
            "launch_grid": [self.LAUNCH, self.LAUNCH],
            "n": self.N,
            "steps": self.steps,
            "cell_steps": box.nx * box.ny * self.steps,
            "particle_steps": self.work_per_unit,
            "courant_max": _courant(self.velocity, box, self.DT),
            "sl_step_over_box": 0.0,
            "particle_step_over_box": _step_over_box(self.velocity, box,
                                                     self.KAPPA, self.DS),
            "field_bytes": box.nx * box.ny * 8,
        }


WORKLOADS = {w.name: w for w in (SweepStream, FkStream, FdrHeat)}
