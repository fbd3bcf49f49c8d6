#!/usr/bin/env python3
"""Record the sha256 of every output the benchmark's commands produce.

Usage (from the root of a checkout): python3 perfbench/record_reference.py

Runs each command of every workload once, at both scales, and writes
reference.json next to this file. Run it only at a commit whose outputs are
known to be right; every benchmark run is checked against what it records.
"""

import json
import shutil
import sys
import time

import run


def main() -> int:
    reference = {"recorded_from": run.git_commit()}
    directory = run.WORK / "reference"
    shutil.rmtree(directory, ignore_errors=True)
    try:
        for scale in run.SCALES:
            reference[scale] = {}
            for workload in run.WORKLOADS:
                for step in run.workload_steps(workload, scale, threads=1):
                    process = run.spawn(
                        directory / scale / step.label, step.argv, False,
                        time.monotonic() + 170.0,
                    )
                    if process.exit_code != 0:
                        print(f"error: {step.label} exited {process.exit_code}", file=sys.stderr)
                        return 1
                    reference[scale][step.label] = run.output_hashes(step, process)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
