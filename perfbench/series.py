#!/usr/bin/env python3
"""Run the benchmark over many seeds and write a result set (JSON lines).

    python3 perfbench/series.py --seeds 1-10 --out .perfbench/change.jsonl
    python3 perfbench/series.py --workloads partition-chaos --seeds 1-10 \\
        --out .perfbench/change.jsonl --parent-root ../parent \\
        --parent-out .perfbench/parent.jsonl

Each run is a fresh ``run.py`` process, one at a time.  With
``--parent-root`` every (workload, seed) runs on both checkouts,
alternating which side goes first, as ``compare.py`` expects.  At the
end it prints, per workload and end-to-end metric, the median and the
spread (third minus first quartile, over the median) against the
metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Per-run limit, generous enough for a cold first run.
RUN_TIMEOUT_S = 900


def load_spec(root: str = ROOT) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(root, workload, seed, trace) -> dict:
    spec = load_spec(root)
    proc = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]),
                           "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} in {root} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-600:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def read_results(path: str):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def spread(values):
    """``(median, q1, q3, (q3 - q1) / median)`` of a sample."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def summarize(records) -> dict:
    """Per workload: run and unit counts, and per metric its spread."""
    summary = {}
    for rec in records:
        wl = summary.setdefault(rec["workload"], {
            "runs": 0, "attempted": 0, "failed": 0, "metrics": {}})
        result = rec["result"]
        wl["runs"] += 1
        wl["attempted"] += result["attempted"]
        wl["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            entry = wl["metrics"].setdefault(
                name, {"unit": metric["unit"], "values": []})
            entry["values"].append(metric["value"])
    for wl in summary.values():
        for entry in wl["metrics"].values():
            values = entry.pop("values")
            median, q1, q3, rel = spread(values)
            entry.update(median=median, q1=q1, q3=q3, spread=rel,
                         n=len(values))
    return summary


def print_spreads(records, spec) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, wl in sorted(summarize(records).items()):
        print(f"{workload}: {wl['runs']} runs, {wl['failed']} of "
              f"{wl['attempted']} checked units failed")
        for name, e in sorted(wl["metrics"].items()):
            flag = ""
            if name in bounds:
                flag = f"bound {bounds[name]:.2f}" + (
                    "  OVER a third of bound"
                    if e["spread"] > bounds[name] / 3 else ""
                )
            print(f"  {name:24s} median {e['median']:.6g}  q1 {e['q1']:.6g}"
                  f"  q3 {e['q3']:.6g}  spread {e['spread']:.4f}  {flag}")


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--parent-root")
    parser.add_argument("--parent-out")
    args = parser.parse_args()
    if (args.parent_root is None) != (args.parent_out is None):
        parser.error("--parent-root and --parent-out go together")

    sides = [(ROOT, args.out)]
    if args.parent_root:
        sides.append((os.path.abspath(args.parent_root), args.parent_out))
    for _root, out in sides:
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
        open(out, "w").close()

    for i, (workload, seed) in enumerate(
            (w, s) for w in args.workloads.split(",")
            for s in parse_seeds(args.seeds)):
        order = sides if i % 2 == 0 else sides[::-1]
        for root, out in order:
            result = run_once(root, workload, seed, args.trace)
            with open(out, "a") as fh:
                fh.write(json.dumps({
                    "workload": workload, "seed": seed,
                    "trace": args.trace, "result": result,
                }) + "\n")
            print(f"{workload} seed {seed} {root}: correct="
                  f"{result['correct']}", flush=True)

    for root, out in sides:
        print(f"== {out}")
        print_spreads(read_results(out), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
