"""Record the decay rates that sweep_stream's output check compares against.

    python3 perfbench/record_reference.py

Runs the sweep_stream sweep once for each initial-field seed 0..9 (about
half a minute each on a 2-core Xeon) and writes perfbench/sweep_reference.json.
The sweep is deterministic, so a later commit whose rates drift beyond
rel_tol has changed the numerics of the solver or of the fit.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

REL_TOL = 1e-6


def main() -> int:
    rates = {}
    for init_seed in range(workloads.REFERENCE_SEEDS):
        rc, out = workloads.SweepStream(init_seed).unit(
            0, HERE.parent / ".perfbench_out" / "reference" / str(init_seed))
        if rc != 0:
            print(f"sweep for initial-field seed {init_seed} exited {rc}", file=sys.stderr)
            return 1
        rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
        rates[str(init_seed)] = [float(r.split(",")[1]) for r in rows]
        print(f"seed {init_seed}: {rates[str(init_seed)]}", flush=True)
    workloads.SWEEP_REFERENCE.write_text(json.dumps({
        "rel_tol": REL_TOL,
        "kappas": workloads.SweepStream.KAPPAS,
        "rates": rates,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
