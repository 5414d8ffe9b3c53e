#!/usr/bin/env python3
"""Fold result sets into one committed point of the perf trajectory.

    python3 perfbench/trajectory.py --label 0001-baseline \\
        .perfbench/untraced.jsonl .perfbench/traced.jsonl

Writes ``perfbench/trajectory/<label>.json``: per workload and metric,
the median, quartiles and run count of every run in the given sets,
with the interpreter and host it was measured on.
"""

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from series import read_results, summarize  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("results", nargs="+")
    args = parser.parse_args()
    records = [r for path in args.results for r in read_results(path)]
    point = {
        "label": args.label,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "seeds": sorted({r["seed"] for r in records}),
        "workloads": summarize(records),
    }
    out = os.path.join(HERE, "trajectory", f"{args.label}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(point, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
