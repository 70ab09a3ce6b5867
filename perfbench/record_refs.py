"""Record the reference outputs the benchmark checks every run against.

    python3 perfbench/record_refs.py

Run from the root of the diskrd source tree whose outputs are the
reference. For every workload and every shipped seed it runs `diskrd run`
once and stores the ``summary`` and the last ``diagnostics.csv`` row in
perfbench/references.json. Re-record only when a change is meant to alter
the numbers, and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from check import RTOL, record
from run import REFERENCES, WORK, run_child
from workloads import SEEDS, WORKLOADS


def main() -> int:
    root = Path.cwd()
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    work = WORK / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    references = {"program_commit": commit, "rtol": RTOL, "workloads": {}}
    for name, workload in WORKLOADS.items():
        per_seed = references["workloads"][name] = {}
        for seed in SEEDS:
            config = work / f"{name}-{seed}.cfg"
            config.write_text(workload.config_text(seed), encoding="utf-8")
            out = work / f"{name}-{seed}"
            sample = run_child(root, "phases", f"record-{name}-{seed}", config, out)
            if "error" in sample:
                print(f"error: {name} seed {seed}: {sample['error']}", file=sys.stderr)
                return 1
            per_seed[str(seed)] = record(out)
            print(f"{name} seed {seed}: {per_seed[str(seed)]['last_row']}")
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
