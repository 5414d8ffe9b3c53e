"""The CI performance gate: catch simulator slowdowns, not slow runners.

Raw wall-clock thresholds are useless across heterogeneous CI hosts, so
the gate normalizes: it times a *calibration* microbenchmark — a
synthetic event loop exercising the same CPython primitives as the
simulator's hot path (heap pushes/pops of time-ordered tuples, Python
callbacks, attribute traffic) — and divides the gate workload's time by
it.  Machine speed cancels to first order; what remains tracks how much
work the simulator does per simulated op, which is exactly what a
performance regression changes.

Usage::

    python -m repro.cluster.perfgate                  # check vs baseline
    python -m repro.cluster.perfgate --write          # re-baseline
    python -m repro.cluster.perfgate --tolerance 0.25

The committed baseline lives at
``benchmarks/results/perf_baseline.json``; a normalized score more than
``tolerance`` (default 25%) above the baseline fails the gate.

Besides the timed score the gate prints two deterministic counts from
one extra, untimed run of the cell: simulator events per completed GET
and the cyclic-GC collections the cell triggers.  They are not gated;
when the score moves, they show whether work per op or collector
pressure moved with it.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import sys
import time
from typing import List, Optional

DEFAULT_BASELINE = "benchmarks/results/perf_baseline.json"
DEFAULT_TOLERANCE = 0.25

_CALIBRATION_EVENTS = 300_000


def _calibration_round(events: int = _CALIBRATION_EVENTS) -> float:
    """Seconds of process time for one synthetic event-loop round."""
    heap: list = []
    push = heapq.heappush
    pop = heapq.heappop
    acc = 0
    seq = 0

    def callback(a: int, b: int) -> int:
        return a + b

    start = time.process_time()
    for i in range(events):
        seq += 1
        push(heap, (i * 1e-6, seq, callback, (i, seq)))
        if i & 1:
            _t, _s, fn, args = pop(heap)
            acc += fn(*args)
    while heap:
        _t, _s, fn, args = pop(heap)
        acc += fn(*args)
    return time.process_time() - start


#: The gate cell: one point of the pinned Fig. 12 sweep (uniform
#: reservations at 70%, K=500), run through the same scenario the
#: parallel runner uses.
_GATE_PARAMS = {"distribution": "uniform", "fraction": 0.7}


def _workload_round() -> float:
    """Seconds of process time for one gate-workload run."""
    from repro.cluster.runner import get_scenario

    scenario = get_scenario("fig12-point")
    start = time.process_time()
    scenario(_GATE_PARAMS, 0)
    return time.process_time() - start


def count_round() -> dict:
    """Deterministic work counts of one gate-cell run.

    ``events_per_get`` is the simulator's event count (every scheduled
    callback bumps ``Simulator._seq`` once) over the GETs the QoS
    engines completed; ``gc_collections`` counts the collections of
    each generation, starting from a fresh ``gc.collect()``.
    """
    from repro.cluster.runner import fig12_point_run

    per_generation = [0, 0, 0]

    def on_gc(phase: str, info: dict) -> None:
        if phase == "start":
            per_generation[info["generation"]] += 1

    gc.collect()
    gc.callbacks.append(on_gc)
    try:
        cluster, _result, _reservations = fig12_point_run(_GATE_PARAMS, 0)
    finally:
        gc.callbacks.remove(on_gc)
    gets = sum(client.engine.total_completed for client in cluster.clients)
    return {
        "events_per_get": round(cluster.sim._seq / gets, 4),
        "gc_collections": per_generation,
    }


def measure(rounds: int = 5) -> dict:
    """Calibration, workload, and the normalized gate score.

    Calibration and workload rounds are interleaved in time and the
    score is the *median of per-round ratios*: a slow phase of a shared
    CI host inflates the round's calibration and workload together, so
    the ratio stays put where back-to-back block timing would not.
    """
    import statistics

    calibrations = []
    workloads = []
    ratios = []
    for _ in range(rounds):
        calibration = _calibration_round()
        workload = _workload_round()
        calibrations.append(calibration)
        workloads.append(workload)
        ratios.append(workload / calibration)
    return {
        "calibration_seconds": round(statistics.median(calibrations), 4),
        "workload_seconds": round(statistics.median(workloads), 4),
        "normalized": round(statistics.median(ratios), 4),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional regression (0.25 = 25%%)")
    parser.add_argument("--write", action="store_true",
                        help="write the current measurement as the baseline")
    parser.add_argument("--rounds", type=int, default=5,
                        help="interleaved measurement rounds")
    args = parser.parse_args(argv)

    current = measure(rounds=args.rounds)
    print(f"calibration: {current['calibration_seconds']:.3f}s  "
          f"workload: {current['workload_seconds']:.3f}s  "
          f"normalized: {current['normalized']:.3f}")
    counts = count_round()
    gen0, gen1, gen2 = counts["gc_collections"]
    print(f"events/GET: {counts['events_per_get']:.3f}  "
          f"gc collections: {gen0 + gen1 + gen2} "
          f"(gen0/gen1/gen2 {gen0}/{gen1}/{gen2})")

    if args.write:
        with open(args.baseline, "w") as fh:
            json.dump(current, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline written to {args.baseline}")
        return 0

    try:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"cannot read baseline {args.baseline}: {err}", file=sys.stderr)
        return 2
    reference = baseline["normalized"]
    limit = reference * (1.0 + args.tolerance)
    regression = current["normalized"] / reference - 1.0
    print(f"baseline normalized: {reference:.3f}  limit: {limit:.3f}  "
          f"delta: {regression:+.1%}")
    if current["normalized"] > limit:
        print(f"FAIL: normalized score regressed {regression:+.1%} "
              f"(> {args.tolerance:.0%} allowed)", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
