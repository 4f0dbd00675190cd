"""Print the SHA-256 of every artifact of a fixed set of small CLI runs.

Each case runs in-process through `anisodiff.cli.main`, into its own
temporary directory.  One line per artifact, sorted by file name:

    <case> <exit code> <file name> <sha256>

A case that writes nothing prints one line with `-` for the file and the
digest.  `manifest.json` is left out, because it records the run time.

Compare two source trees by running the script against each and diffing
the outputs; identical output means identical artifacts and exit codes:

    PYTHONPATH=<old tree>/src python tools/artifact_digests.py > old.txt
    PYTHONPATH=src python tools/artifact_digests.py > new.txt
    diff old.txt new.txt

Pass case names to run only those cases.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

GRID32 = {"domain.nx": 32, "domain.ny": 32}
NON_DYADIC = {"domain.nx": 24, "domain.ny": 24, "domain.Lx": 0.7, "domain.Ly": 0.7}
PDE = {**GRID32, "solver.kappa": 0.01, "solver.dt": 0.01, "solver.t_end": 0.5,
       "solver.record_every": 5}
SDE = {**GRID32, "particles.n": 500, "particles.ds": 0.01, "particles.t": 0.2,
       "particles.x0": 0.1, "particles.y0": -0.2, "particles.seed": 7}
FDR = {**GRID32, "domain.amplitude": 0.5, "solver.dt": 0.01, "solver.t_end": 1.0,
       "solver.record_every": 1, "particles.n": 50, "particles.ds": 0.0125,
       "particles.seed": 5, "particles.times": [0.25, 0.5],
       "particles.grid_nx": 8, "particles.grid_ny": 8}
P15_Q1 = {"domain.p": 1.5, "domain.q": 1, "domain.epsilon": 1e-2}
SWEEP = {**GRID32, "solver.kappa": 1e-3, "solver.record_every": 1,
         "sweep.kappas": [1e-3, 5e-3, 2e-2, 1e-1],
         "sweep.dts": [0.4, 0.08, 0.02, 0.004],
         "sweep.t_ends": [70.0, 14.0, 3.5, 0.7]}

CASES = {
    "figures": ("figures", {}),
    "pde_sl_cn": ("pde", PDE),
    "pde_upwind": ("pde", {**PDE, "solver.scheme": "upwind", "solver.dt": 0.002,
                           "solver.t_end": 0.1}),
    "pde_random": ("pde", {**PDE, "initial.kind": "random", "initial.max_mode": 3,
                           "initial.seed": 4}),
    "pde_sum": ("pde", {**PDE, "initial.kind": "sum",
                        "initial.terms": [[1, 1, "ss", 1.0], [2, 1, "cs", 0.5]]}),
    # a sine factor at each axis's Nyquist mode alternates from cell to cell ...
    "pde_sum_nyquist_sine": ("pde", {**PDE, "initial.kind": "sum",
                                     "initial.terms": [[16, 16, "ss", 1.0]]}),
    # ... and a cosine factor there vanishes at every cell centre: exit 2
    "pde_sum_nyquist_cosine": ("pde", {**PDE, "initial.kind": "sum",
                                       "initial.terms": [[16, 1, "cs", 1.0]]}),
    "pde_non_dyadic": ("pde", {**PDE, **NON_DYADIC}),
    "pde_shear": ("pde", {**PDE, "domain.family": "shear"}),
    # amplitude 0: a stream flow that is_zero, which sl_cn never evaluates
    "pde_stream_amplitude0": ("pde", {**PDE, "domain.amplitude": 0}),
    # ... and the upwind matrix does, at p = 0.5 and epsilon = 0, where only
    # amplitude 0 exempts the flow from the epsilon > 0 rule
    "pde_upwind_amplitude0": ("pde", {**PDE, "solver.scheme": "upwind", "solver.dt": 0.002,
                                      "solver.t_end": 0.1, "domain.amplitude": 0,
                                      "domain.p": 0.5, "domain.epsilon": 0}),
    # hx != hy and nx != ny, every step recorded: the gradient's two axes differ
    "pde_rect": ("pde", {**PDE, "domain.nx": 32, "domain.ny": 16, "domain.Lx": 1.0,
                         "domain.Ly": 0.5, "solver.record_every": 1}),
    "sde_k0.05": ("sde", {**SDE, "solver.kappa": 0.05}),
    "sde_k0": ("sde", {**SDE, "solver.kappa": 0.0}),
    # u = 0: one exact step of the whole t, and sde.csv's ds reads t
    "sde_zero_k0.05": ("sde", {**SDE, "domain.family": "zero", "solver.kappa": 0.05}),
    # ds beyond t: the drifted particles take one step of the whole t
    "sde_ds_beyond_t": ("sde", {**SDE, "solver.kappa": 0.05, "particles.ds": 0.3}),
    # steps longer than the box: DomainBox's wrap takes its np.mod fallback
    "sde_far": ("sde", {**SDE, "domain.amplitude": 100.0, "particles.ds": 0.05,
                        "particles.t": 0.5, "particles.x0": 0.9, "particles.y0": 0.8,
                        "solver.kappa": 0.05}),
    # p = 1.5, q = 1: the velocity's powers take np.power and sqrt
    "sde_p1.5_q1_k0.05": ("sde", {**SDE, **P15_Q1, "solver.kappa": 0.05}),
    # ... and at epsilon = 0, the slopes pinned to 0 on the axes
    "sde_p1.5_q1_eps0_k0.05": ("sde", {**SDE, **P15_Q1, "domain.epsilon": 0.0,
                                       "solver.kappa": 0.05}),
    "fdr_stream_k0.05": ("fdr", {**FDR, "solver.kappa": 0.05}),
    "fdr_stream_p1.5_q1_k0.05": ("fdr", {**FDR, **P15_Q1, "solver.kappa": 0.05}),
    # 100 launch points: four chunks, the last of 4 points
    "fdr_stream_ragged_k0.05": ("fdr", {**FDR, "solver.kappa": 0.05,
                                        "particles.grid_nx": 10, "particles.grid_ny": 10}),
    # the PDE side on the explicit scheme, its dt inside the upwind bound
    "fdr_upwind": ("fdr", {**FDR, "solver.kappa": 0.05, "solver.scheme": "upwind",
                           "solver.dt": 0.002}),
    "fdr_stream_k0": ("fdr", {**FDR, "solver.kappa": 0.0}),
    "fdr_stream_amplitude0": ("fdr", {**FDR, "solver.kappa": 0.05, "domain.amplitude": 0}),
    "fdr_shear_k0.05": ("fdr", {**FDR, "domain.family": "shear", "solver.kappa": 0.05}),
    "fdr_zero_k0.05": ("fdr", {**FDR, "domain.family": "zero", "solver.kappa": 0.05}),
    "fdr_zero_k0": ("fdr", {**FDR, "domain.family": "zero", "solver.kappa": 0.0}),
    "fdr_zero_non_dyadic_k0.05": ("fdr", {**FDR, **NON_DYADIC, "domain.family": "zero",
                                          "solver.kappa": 0.05}),
    "fdr_zero_non_dyadic_k0": ("fdr", {**FDR, **NON_DYADIC, "domain.family": "zero",
                                       "solver.kappa": 0.0}),
    # shaped like the fdr_heat benchmark: the earlier checkpoint on the record stride
    "fdr_heat_stride10": ("fdr", {**FDR, "domain.family": "zero", "solver.kappa": 0.05,
                                  "solver.dt": 2e-3, "solver.record_every": 10,
                                  "particles.ds": 0.01, "particles.times": [0.5, 1.0]}),
    # the only checkpoint, 5 steps, is shorter than the record stride of 10:
    # its lhs is the run's final sample
    "fdr_last_checkpoint_short": ("fdr", {**FDR, "solver.kappa": 0.05, "solver.dt": 1e-3,
                                          "solver.record_every": 10,
                                          "particles.ds": 1e-3,
                                          "particles.times": [0.005]}),
    "sweep_zero": ("sweep", {**SWEEP, "domain.family": "zero"}),
    "sweep_stream": ("sweep", {**SWEEP, "domain.family": "stream"}),
    "sweep_upwind": ("sweep", {**SWEEP, "domain.family": "zero",
                               "solver.scheme": "upwind"}),
    # dt 0.02 breaks the upwind bound (about 0.0098) at the last kappa only:
    # the whole sweep exits 2
    "sweep_upwind_dt_too_large": ("sweep", {
        **SWEEP, "domain.family": "zero", "solver.scheme": "upwind",
        "sweep.kappas": [1e-3, 5e-3, 1e-2, 2e-2, 1e-1],
        "sweep.dts": [0.4, 0.08, 0.04, 0.02, 0.02],
        "sweep.t_ends": [70.0, 14.0, 7.0, 3.5, 0.7]}),
    # the first kappa's t_end is too short to decay: the whole sweep exits 3
    "sweep_one_short_t_end": ("sweep", {
        **SWEEP, "domain.family": "zero",
        "sweep.kappas": [1e-3, 5e-3, 2e-2, 5e-2, 1e-1],
        "sweep.dts": [0.4, 0.08, 0.02, 0.008, 0.004],
        "sweep.t_ends": [0.4, 14.0, 3.5, 1.4, 0.7]}),
}


def case_argv(name: str, out: Path) -> list[str]:
    command, sets = CASES[name]
    argv = [command, "--out", str(out)]
    for key, value in sets.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    return argv


def case_digests(name: str) -> list[str]:
    """Run one case in a temporary directory; return its output lines."""
    from anisodiff.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(case_argv(name, out))
        files = sorted(p for p in out.iterdir() if p.name != "manifest.json") \
            if out.is_dir() else []
        if not files:
            return [f"{name} {code} - -"]
        return [f"{name} {code} {p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}"
                for p in files]


def main(argv=None) -> int:
    names = list(argv if argv is not None else sys.argv[1:]) or list(CASES)
    unknown = [n for n in names if n not in CASES]
    if unknown:
        print(f"unknown case(s): {', '.join(unknown)}; known: {', '.join(CASES)}",
              file=sys.stderr)
        return 2
    for name in names:
        print("\n".join(case_digests(name)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
