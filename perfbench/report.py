"""Print every end-to-end metric of every workload, with the check results.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

Runs perfbench/run.py once per workload, one after another, and prints one
line per metric (workload, name, value, unit) followed by the run's
correct / attempted / failed figures.
"""

import argparse
import json
import os
import subprocess
import sys

import gen

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    status = 0
    for workload in gen.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=os.path.dirname(HERE), capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{workload}: run failed (exit {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            print(f"{workload:15s} {name:36s} {m['value']:14.6g} {m['unit']}")
        failed_frac = result["failed"] / result["attempted"]
        print(f"{workload:15s} checks: correct={str(result['correct']).lower()} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"failed_frac={failed_frac:.6g}")
        status |= 0 if result["correct"] else 1
    return status


if __name__ == "__main__":
    sys.exit(main())
