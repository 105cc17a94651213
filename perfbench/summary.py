"""Print every end-to-end metric of every workload, then the per-layer
metrics of a traced run of each, by running perfbench/run.py once per
workload and mode.

Usage (from the root of a checkout):

    python3 perfbench/summary.py [--seed N] [--seconds S]
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} (trace {trace}) exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    traced = {}
    env = None
    print(f"end-to-end metrics, seed {args.seed}, {seconds} s per run")
    for workload in workloads:
        info, result = run(workload, args.seed, seconds, 0)
        env = info["env"]
        detail = info["detail"]
        print(f"\n{workload}: correct={result['correct']} jobs={result['attempted']} "
              f"failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:24s} {metric['value']:>14.6g} {metric['unit']}")
        print(f"  {'failed_frac':24s} {detail['failed_frac']:>14.6g} frac")
        print(f"  {'bound_fail_rows':24s} {detail['bound_fail_rows']:>14d} of {detail['bound_rows']} rows")
        traced[workload] = run(workload, args.seed, seconds, 1)[1]
    names = sorted({name for result in traced.values() for name in result["metrics"]})
    print("\nper-layer metrics (traced run)")
    print(f"  {'metric':24s}" + "".join(f"{w:>17s}" for w in workloads) + "  unit")
    for name in names:
        cells, unit = "", ""
        for workload in workloads:
            metric = traced[workload]["metrics"].get(name)
            cells += f"{metric['value']:>17.6g}" if metric else f"{'absent':>17s}"
            unit = metric["unit"] if metric else unit
        print(f"  {name:24s}{cells}  {unit}")
    print(f"\nenvironment: {json.dumps(env, sort_keys=True)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
