"""Benchmark entry point: one run of one workload of anisodiff.

    python3 perfbench/run.py --workload sweep_stream --seed 3 --seconds 25 --trace 0

Run it from the root of a checkout; it builds nothing (anisodiff is imported
from ./src).  It measures set-up several times in fresh interpreters
(worker.py --setup-only) and takes the median, then runs the workload once
in another fresh interpreter.  The second-to-last stdout line is a JSON
record of the run (workload descriptors, environment, per-unit times, check
notes); the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.  It exits 2 without a result when the
checkout holds no src/anisodiff, and 1 when a worker fails.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("sweep_stream", "fk_stream", "fdr_heat")
SETUP_SAMPLES = 5        # setup_s is the median over this many interpreters
DEADLINE_S = 170.0       # the whole run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _worker(args, deadline: float, *extra: str) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--outdir", str(OUT / f"{args.workload}-seed{args.seed}"), *extra]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def _git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        return _read(ROOT / ".git" / head[5:]) or "unknown"
    return head or "unknown (not a git checkout)"


def environment(seed: int, versions: dict) -> dict:
    cpu_model = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = \
            _read(index / "size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "caches_per_core": caches,
        **versions,
        "git_commit": _git_commit(),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
    }


# the layers whose calls are reported, and their work counts (spans.py)
CALLS = ("domain.velocity", "domain.wrap", "fields.sample_many", "fields.diagnostics",
         "fields.mean_zero_project", "solver.run", "particles.feynman_kac",
         "manifest.write")
COUNTS = ("domain.velocity.points", "domain.wrap.elements", "fields.sample_many.points",
          "fields.sample_many.bytes_computed", "solver.run.cell_steps",
          "particles.feynman_kac.particle_steps", "manifest.write.bytes")
# ns of self time per unit of work: metric -> (layer, work count)
RATES = {
    "domain.velocity.ns_per_point": ("domain.velocity", "points"),
    "domain.wrap.ns_per_element": ("domain.wrap", "elements"),
    "fields.sample_many.ns_per_point": ("fields.sample_many", "points"),
    "solver.run.self_ns_per_cell_step": ("solver.run", "cell_steps"),
    "particles.feynman_kac.self_ns_per_particle_step": (
        "particles.feynman_kac", "particle_steps"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(res: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: medians over the traced units, plus process figures."""
    units = res["layers"]

    def med(key):  # a count absent from a unit means no calls made it
        return statistics.median(u.get(key, 0) for u in units)

    out = {}
    for layer in CALLS:
        out[f"{layer}.calls"] = (med(f"{layer}.calls"), "count")
    for key in COUNTS:
        out[key] = (med(key), "B" if "bytes" in key else "count")
    for layer in spans.LAYERS:
        out[f"{layer}.self_s"] = (med(f"{layer}.self_s"), "s")
    for name, (layer, count) in RATES.items():
        out[name] = (1e9 * statistics.median(
            _ratio(u.get(f"{layer}.self_s", 0), u.get(f"{layer}.{count}", 0))
            for u in units), "ns")
    cpu = statistics.median(res["cpus"])
    wall = statistics.median(res["walls"])
    out["proc.cpu_s"] = (cpu, "s")
    out["proc.cpu_util"] = (cpu / wall, "ratio")
    out["proc.child_peak_rss_mb"] = (res["child_peak_rss_mb"], "MB")
    out["trace.overhead_s"] = (statistics.median(res["traced_walls"]) - wall, "s")
    return out


def end_to_end(res: dict, setup_samples: list[float]) -> dict[str, tuple[float, str]]:
    wall = statistics.median(res["walls"])
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (wall, "s"),
        "work_per_s": (res["work_per_unit"] / wall, "steps/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "anisodiff" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} holds no src/anisodiff to benchmark", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        setup = [_worker(args, deadline, "--setup-only")["setup_s"]
                 for _ in range(SETUP_SAMPLES - 1)]
        res = _worker(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    setup.append(res["setup_s"])

    metrics = per_layer(res) if args.trace else end_to_end(res, setup)
    print(json.dumps({"perfbench": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_samples_s": setup, "unit_walls_s": res["walls"],
        "traced_unit_walls_s": res["traced_walls"],
        "work_per_unit": res["work_per_unit"], "work_unit": res["work_unit"],
        "failed_op_ratio": _ratio(res["failed"], res["attempted"]),
        "check_notes": res["notes"], "descriptors": res["descriptors"],
        "environment": environment(args.seed, res["versions"]),
    }}))
    print(json.dumps({
        "correct": res["attempted"] > 0 and res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
