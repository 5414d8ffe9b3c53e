#!/usr/bin/env python3
"""Compare two result sets (parent and change) by the benchmark's rule.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Result sets are the JSON-lines files ``series.py`` writes; runs pair up
by (workload, seed).  For every workload and end-to-end metric:

- **insufficient**: fewer than 10 pairs, too few to call anything;
- **gain**: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ, in the better direction, by more
  than the parent's interquartile range;
- **regression**: the change's median is worse than the parent's by
  more than the metric's bound (a share of the parent's median);
- **unresolved**: the parent's own spread (IQR over median) exceeds the
  bound, so "no regression" cannot be told from noise; **not-worse**
  instead when every change run is better than every parent run;
- **same** otherwise.

A workload whose change runs fail more checked units than the parent's
is reported as failing.  Per-layer metrics of traced sets are listed
with their medians, without a verdict.  Exits 1 on any regression,
failure or insufficient metric.
"""

import argparse
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from series import load_spec, read_results, spread  # noqa: E402

GAIN_WIN_SHARE = 0.9
MIN_PAIRS = 10


def better(a: float, b: float, direction: str) -> bool:
    """True when ``a`` is strictly better than ``b``."""
    return a > b if direction == "higher" else a < b


def verdict(parent, change, pairs, metric) -> str:
    if len(pairs) < MIN_PAIRS:
        return "insufficient"
    direction, bound = metric["better"], metric["bound"]
    p_med, p_q1, p_q3, p_rel = spread(parent)
    c_med = statistics.median(change)
    wins = sum(better(c, p, direction) for p, c in pairs)
    gap = c_med - p_med if direction == "higher" else p_med - c_med
    if wins >= GAIN_WIN_SHARE * len(pairs) and gap > p_q3 - p_q1:
        return "gain"
    if -gap > bound * p_med:
        return "regression"
    if p_rel > bound:
        if all(better(c, p, direction) for c in change for p in parent):
            return "not-worse"
        return "unresolved"
    return "same"


def by_key(records):
    return {(r["workload"], r["seed"]): r["result"] for r in records}


def compare(parent_records, change_records, spec, out=sys.stdout) -> int:
    parent, change = by_key(parent_records), by_key(change_records)
    status = 0
    declared = {m["name"]: m for m in spec["end_to_end"]}
    for workload in sorted({w for w, _s in parent} | {w for w, _s in change}):
        p_runs = {s: r for (w, s), r in parent.items() if w == workload}
        c_runs = {s: r for (w, s), r in change.items() if w == workload}
        seeds = sorted(set(p_runs) & set(c_runs))
        p_failed = sum(r["failed"] for r in p_runs.values())
        c_failed = sum(r["failed"] for r in c_runs.values())
        print(f"{workload}: {len(seeds)} pairs; failed units parent "
              f"{p_failed}, change {c_failed}", file=out)
        if c_failed > p_failed:
            print("  FAIL: the change fails more checked units", file=out)
            status = 1
        names = sorted({n for r in c_runs.values() for n in r["metrics"]})
        for name in names:
            pv = [p_runs[s]["metrics"][name]["value"] for s in seeds
                  if name in p_runs[s]["metrics"]]
            cv = [c_runs[s]["metrics"][name]["value"] for s in seeds
                  if name in c_runs[s]["metrics"]]
            if not pv or not cv:
                continue
            p_med, cv_med = statistics.median(pv), statistics.median(cv)
            line = f"  {name:26s} parent {p_med:.6g}  change {cv_med:.6g}"
            metric = declared.get(name)
            if metric is not None:
                pairs = list(zip(pv, cv))
                wins = sum(better(c, p, metric["better"]) for p, c in pairs)
                result = verdict(pv, cv, pairs, metric)
                line += (f"  wins {wins}/{len(pairs)}  "
                         f"parent spread {spread(pv)[3]:.4f}  "
                         f"bound {metric['bound']}  -> {result}")
                if result in ("regression", "insufficient"):
                    status = 1
            print(line, file=out)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args()
    return compare(read_results(args.parent), read_results(args.change),
                   load_spec())


if __name__ == "__main__":
    sys.exit(main())
