"""Record reference.json: tail and Lyapunov numbers for the default seeds.

    python3 perfbench/record_reference.py

Runs every generated input of the `simulate` and `sweep_tail` pools for
seeds 0-9 once through malaria_dde.cli.main and stores the numbers
check.reference_values extracts. The stored file was recorded from the
seed commit of the package; rerun this only when a change is meant to alter
the numerics, and say so in that change.
"""

import json
import os
import shutil
import sys

import check
import gen
import run

SEEDS = range(10)
WORKLOADS = ("simulate", "sweep_tail")


def main() -> None:
    pkg = run.import_package()
    work = os.path.join(run.WORK, "record-reference")
    shutil.rmtree(work, ignore_errors=True)
    out = {}
    try:
        for workload in WORKLOADS:
            out[workload] = {}
            for seed in SEEDS:
                paths = gen.write_pool(workload, seed, os.path.join(work, "in"))
                entries = []
                for path in paths:
                    target = os.path.join(work, "out")
                    shutil.rmtree(target, ignore_errors=True)
                    code = pkg.cli.main([run.command_of(workload), path,
                                         "--out", target, "--quiet"])
                    if code != 0:
                        sys.exit(f"{workload} seed {seed} {path}: exit {code}")
                    entries.append(check.reference_values(workload, target))
                out[workload][str(seed)] = entries
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(check.REFERENCE_FILE, "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
