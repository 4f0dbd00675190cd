"""One benchmark run of one workload, in a fresh interpreter (started by run.py).

Set-up (import, config validation, initial field and velocity) is timed
from before the first import of numpy or anisodiff.  With --setup-only the
worker stops there.  Otherwise it runs units of fixed work until the next
unit would overrun --seconds (at least one unit); with --trace 1 it spends
half of that budget untraced and half traced.  Every unit's outputs are
checked after all timing is done.  The last stdout line is a
JSON summary for run.py.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_s() -> float:
    """CPU seconds of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_units(wl, budget: float, outdir: Path, tracer=None) -> list[dict]:
    """Run units 0, 1, ... until the next one would overrun `budget` seconds."""
    units = []
    start = time.perf_counter()
    k = 0
    while True:
        if tracer is not None:
            tracer.unit = k
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            out = wl.unit(k, outdir / f"unit{k}")
        except Exception:  # noqa: BLE001 - a failed unit is counted, not fatal
            traceback.print_exc()
            out = None
        wall = time.perf_counter() - t0
        units.append({"k": k, "wall_s": wall, "cpu_s": _cpu_s() - cpu0, "out": out})
        k += 1
        if time.perf_counter() - start + wall > budget:
            return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    outdir = Path(args.outdir)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import anisodiff
    import numpy
    import scipy
    if Path(anisodiff.__file__).resolve().parent != ROOT / "src" / "anisodiff":
        raise SystemExit(f"anisodiff imported from {anisodiff.__file__}, "
                         f"not from {ROOT / 'src'}")

    budget = args.seconds / 2 if args.trace else args.seconds
    plain = run_units(wl, budget, outdir / "plain")
    traced, layers = [], []
    if args.trace:
        import spans
        tracer = spans.Tracer()
        with tracer.patched():
            traced = run_units(wl, budget, outdir / "traced", tracer)
        per_unit = tracer.layer_metrics()
        layers = [per_unit.get(u["k"], {}) for u in traced]
        outdir.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(outdir.with_name(f"{outdir.name}-spans.json"))

    attempted = failed = 0
    notes = []
    for u in plain + traced:
        a, f, n = wl.ops_per_unit, wl.ops_per_unit, [f"unit {u['k']} raised"]
        if u["out"] is not None:
            try:
                a, f, n = wl.check(u["k"], u["out"])
            except Exception:  # noqa: BLE001 - unreadable outputs fail the unit
                traceback.print_exc()
        attempted += a
        failed += f
        notes += n
    if hasattr(wl, "check_pooled"):
        a, f, n = wl.check_pooled()
        attempted += a
        failed += f
        notes += n
    shutil.rmtree(outdir, ignore_errors=True)

    mb = 1024.0  # ru_maxrss is in KiB on Linux
    print(json.dumps({
        "setup_s": setup_s,
        "walls": [u["wall_s"] for u in plain],
        "cpus": [u["cpu_s"] for u in plain],
        "traced_walls": [u["wall_s"] for u in traced],
        "layers": layers,
        "work_per_unit": wl.work_per_unit,
        "work_unit": wl.work_unit,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / mb,
        "child_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / mb,
        "descriptors": wl.descriptors(),
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                     "python": sys.version.split()[0]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
