"""Run every workload once and print its end-to-end metrics with units.

    python3 perfbench/all.py --seed 0 --seconds 25

Each workload runs through run.py, one at a time.  failed_op_ratio is
failed / attempted from the result line (it is 0 when all is well, so it is
not one of BENCHMARK.json's bounded metrics).  Exits 1 if any run fails or
reports incorrect output.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    status = 0
    print(f"{'workload':<14}{'metric':<18}{'value':>16}  unit")
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=HERE.parent, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{name:<14}run failed (exit {proc.returncode})")
            status = 1
            continue
        *_, record, result = proc.stdout.strip().splitlines()
        record = json.loads(record)["perfbench"]
        result = json.loads(result)
        status |= not result["correct"]
        metrics = result["metrics"]
        rows = [
            ("setup_s", metrics["setup_s"]["value"], "s"),
            ("wall_s", metrics["wall_s"]["value"], "s"),
            ("work_per_s", metrics["work_per_s"]["value"], f"{record['work_unit']}/s"),
            ("failed_op_ratio", result["failed"] / result["attempted"],
             f"ratio of {result['attempted']} ops"),
            ("peak_rss_mb", metrics["peak_rss_mb"]["value"], "MB"),
        ]
        for metric, value, unit in rows:
            print(f"{name:<14}{metric:<18}{value:>16.6g}  {unit}")
    return status


if __name__ == "__main__":
    sys.exit(main())
