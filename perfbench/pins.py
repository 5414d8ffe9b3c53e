#!/usr/bin/env python3
"""Recompute the payload digests the benchmark pins for its own workloads.

``qos-sweep`` and ``fluid-scale`` have no digest family in
``benchmarks/results/determinism_hashes.json``, so their pins live in
``perfbench/pins.json``.  Simulated answers never change for speed: run
this only when a change alters simulated behaviour on purpose.

    python3 perfbench/pins.py            # print
    python3 perfbench/pins.py --write    # rewrite perfbench/pins.json
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import (  # noqa: E402
    PINNED_SEEDS, PINS_PATH, WORKLOADS, Capture, canonical_json, sha256,
)


def compute() -> dict:
    pins = {"qos-sweep": {}, "fluid-scale": {}}
    for seed in PINNED_SEEDS:
        pins["qos-sweep"][str(seed)] = {
            cell.label: sha256(canonical_json(cell.run(Capture())))
            for cell in WORKLOADS["qos-sweep"].cells(seed)
        }
        (cell,) = WORKLOADS["fluid-scale"].cells(seed)
        pins["fluid-scale"][str(seed)] = sha256(
            canonical_json(cell.run(Capture()))
        )
    return pins


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    text = json.dumps(compute(), indent=2, sort_keys=True) + "\n"
    if args.write:
        with open(PINS_PATH, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
