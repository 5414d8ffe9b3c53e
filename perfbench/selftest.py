#!/usr/bin/env python3
"""Self-tests of the benchmark itself (about a minute of CPU).

    python3 perfbench/selftest.py

1. Every checked unit of every workload passes on its real payload and
   fails on a perturbed one, so a perturbed pass has failed_share 1.
2. Every name the benchmark declares or emits matches
   ``[A-Za-z0-9_.-]+``, and a short run of each mode prints exactly the
   declared metrics.
3. The seed reaches the scenario and changes nothing else: two pinned
   seeds give different payloads over the same cells, and a benchmark
   seed outside the pinned set gives byte-identical payloads to the
   pinned seed it maps to.
4. ``fig12-point`` through the benchmark equals the runner's own cell.
5. ``compare.py`` calls nothing on fewer than 10 pairs, and a gain
   needs 9 of 10 pair wins.
"""

import copy
import dataclasses
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run as bench  # noqa: E402
from workloads import (  # noqa: E402
    PINNED_SEEDS, WORKLOADS, Capture, canonical_json, scenario_seed, sha256,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*\Z")


def perturb(result):
    """A copy of a cell result with one simulated number and every
    audited list changed."""
    if isinstance(result, tuple):  # partition: (report, cluster)
        report, cluster = result
        return (dataclasses.replace(
            report, puts_acked=report.puts_acked + 1,
            violations=report.violations + ["perturbed"],
        ), cluster)
    result = copy.deepcopy(result)
    for key in ("ledger_conservation", "hierarchy_violations"):
        if key in result:
            result[key] = result[key] + ["perturbed"]
    for key in sorted(result):
        if isinstance(result[key], (int, float)) and not isinstance(
                result[key], bool):
            result[key] += 1
            return result
        if isinstance(result[key], dict):
            result[key] = perturb(result[key])
            return result
    raise AssertionError("nothing numeric to perturb")


def run_cells(workload, seed, hooks):
    results = {}
    for cell in workload.cells(seed):
        capture = Capture()
        hooks.begin(capture)
        results[cell.label] = cell.run(capture)
    return results


def test_checks(hooks) -> None:
    for name, workload in WORKLOADS.items():
        results = run_cells(workload, PINNED_SEEDS[0], hooks)
        good = workload.check(PINNED_SEEDS[0], results)
        assert good and all(c.ok for c in good), (name, good)
        bad = workload.check(
            PINNED_SEEDS[0], {k: perturb(v) for k, v in results.items()}
        )
        assert len(bad) == len(good) and not any(c.ok for c in bad), (
            name, bad)
        print(f"ok checks {name}: {len(good)} units pass, perturbed "
              f"failed_share {sum(not c.ok for c in bad) / len(bad):.0f}")


def payload_digest(results) -> str:
    return sha256(canonical_json({
        label: (dataclasses.asdict(r[0]) if isinstance(r, tuple) else r)
        for label, r in results.items()
    }))


def test_seed(hooks) -> None:
    fluid, fabric = WORKLOADS["fluid-scale"], WORKLOADS["fabric-mix"]
    for workload in (fluid, fabric):
        labels = [[c.label for c in workload.cells(s)] for s in PINNED_SEEDS]
        assert labels[0] == labels[1], labels
        a, b = (payload_digest(run_cells(workload, s, hooks))
                for s in PINNED_SEEDS)
        assert a != b, f"{workload.name}: seed did not reach the scenario"
    outside = next(s for s in range(100) if s not in PINNED_SEEDS)
    mapped = scenario_seed(outside)
    assert mapped in PINNED_SEEDS
    assert all(scenario_seed(s) == s for s in PINNED_SEEDS)
    assert (payload_digest(run_cells(fluid, scenario_seed(outside), hooks))
            == payload_digest(run_cells(fluid, mapped, hooks)))
    print(f"ok seed: pinned seeds differ, seed {outside} runs {mapped}")


def test_fig12_matches_runner(hooks) -> None:
    from repro.cluster.runner import Cell, run_cells as runner_cells

    (cell,) = [c for c in WORKLOADS["qos-sweep"].cells(11)
               if c.label == "zipf-0.7"]
    ours = cell.run(Capture())
    report = runner_cells([Cell("fig12-point",
                                {"distribution": "zipf", "fraction": 0.7},
                                11)])
    assert report.results[0] == ours
    print("ok fig12-point: benchmark cell equals the runner's")


def test_compare() -> None:
    metric = {"better": "higher", "bound": 0.25}
    parent = [100.0 + i for i in range(10)]
    faster = [120.0 + i for i in range(10)]
    assert compare.verdict(parent[:1], faster[:1],
                           [(parent[0], faster[0])], metric) == "insufficient"
    assert compare.verdict(parent[:9], faster[:9],
                           list(zip(parent[:9], faster[:9])),
                           metric) == "insufficient"
    assert compare.verdict(parent, faster, list(zip(parent, faster)),
                           metric) == "gain"
    mixed = faster[:8] + parent[8:]
    assert compare.verdict(parent, mixed, list(zip(parent, mixed)),
                           metric) != "gain"
    print("ok compare: < 10 pairs is insufficient, gain needs 9/10 wins")


def test_names() -> None:
    with open(bench.BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    for kind in ("end_to_end", "per_layer"):
        names += [m["name"] for m in spec[kind]]
    assert len(names) == len(set(names)), "duplicate names"
    bad = [n for n in names if not NAME.match(n) or len(n) > 64]
    assert not bad, bad
    assert set(w["name"] for w in spec["workloads"]) == set(WORKLOADS)
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "fluid-scale", "--seed", "3", "--seconds", "1",
             "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT, check=True,
        )
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
        emitted = set(out["metrics"])
        assert emitted == {m["name"] for m in spec[kind]}, emitted
        assert all(NAME.match(n) for n in emitted)
    print(f"ok names: {len(names)} declared names, both modes emit them")


def main() -> int:
    bench.import_modules(sorted({
        m for w in WORKLOADS.values() for m in w.modules
    }))
    hooks = bench.Hooks()
    hooks.install()
    test_compare()
    test_names()
    test_fig12_matches_runner(hooks)
    test_seed(hooks)
    test_checks(hooks)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
