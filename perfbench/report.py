"""Print every end-to-end metric of every workload, with units, for one seed:

    python3 perfbench/report.py [--seed 1] [--seconds 30]

Each workload runs in its own process through ``run.py`` (untraced), exactly
as a benchmark run does.  ``failed_frac`` is failed over attempted jobs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args()
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    status = 0
    for workload in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload["name"],
             "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=PERFBENCH.parent)
        if proc.returncode != 0:
            print(f"{workload['name']}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        env = json.loads(lines[-2])["perfbench"]["environment"]
        print(f"{workload['name']}  (depth {env['depth']}, jobs {result['attempted']}, "
              f"working set computed {env['working_set_computed']['bytes'] / 2**20:.0f} MiB "
              f"vs L3 {env['caches'].get('L3', '?')})")
        for name, metric in result["metrics"].items():
            print(f"  {name:14s} {metric['value']:.6g} {metric['unit']}")
        print(f"  {'failed_frac':14s} {result['failed'] / result['attempted']:.6g} ratio")
        status |= 0 if result["correct"] else 1
    return status


if __name__ == "__main__":
    sys.exit(main())
