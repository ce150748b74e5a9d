#!/usr/bin/env python3
"""Record the quality numbers run.py checks against, into expected.json.

    python3 perfbench/record_expected.py --seeds 0-9 [--workload reference ...]

Runs one repetition per workload and seed and stores every row's quality
numbers under that seed, keeping seeds and workloads not re-recorded.  Re-record
only when a change is meant to alter what gets sampled, and say so.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from run import HERE, TIME_LIMIT_S, run_worker
from worker import WORKLOADS


def _seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=_seeds, required=True, help="e.g. 0-9")
    ap.add_argument("--workload", choices=WORKLOADS, action="append")
    args = ap.parse_args(argv)

    path = HERE / "expected.json"
    expected = json.loads(path.read_text())
    for workload in args.workload or WORKLOADS:
        for seed in args.seeds:
            t0 = time.monotonic()
            report, error = run_worker(workload, seed, 0, TIME_LIMIT_S)
            if report is None or report["error"]:
                print(f"{workload} seed {seed}: {error or report['error']}", file=sys.stderr)
                return 1
            rows = {r["label"]: r["quality"] for r in report["rows"] if r["quality"]}
            expected["seeds"].setdefault(workload, {})[str(seed)] = rows
            print(f"{workload} seed {seed}: {time.monotonic() - t0:.1f} s", file=sys.stderr)
            path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
