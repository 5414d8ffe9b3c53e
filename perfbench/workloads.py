"""The four benchmark workloads: their cells, op counts and checks.

A workload is a fixed list of cells.  One *pass* runs every cell once;
a run repeats whole passes, so every pass does the same simulated work
and a faster commit still runs complete passes.  Each cell calls one
public entry point of the simulator and returns its payload; the
payloads of a pass are then checked against pinned digests.

The benchmark seed picks the scenario seed.  Digests are pinned for
seeds 11 and 23 only (the repository pins no others), so a seed outside
that set maps onto it by ``seed % 2``; the same benchmark seed always
gives the same scenario seed and so the same inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
from typing import Callable, Dict, List, Sequence, Tuple

#: Scenario seeds with pinned digests.  23 was not used while the
#: benchmark was written, so it is the held-out seed.
PINNED_SEEDS = (11, 23)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS_PATH = os.path.join(HERE, "pins.json")
REPO_DIGESTS_PATH = os.path.join(
    ROOT, "benchmarks", "results", "determinism_hashes.json"
)

#: The paper's measured one-sided server capacity C_G, in KIOPS.
PAPER_CG_KIOPS = 1570.0

FIG12_DISTRIBUTIONS = ("uniform", "zipf")
FIG12_FRACTIONS = (0.5, 0.6, 0.7, 0.8, 0.9)
FLUID_CLIENTS = 1_000_000
FLUID_PERIODS = 30


def scenario_seed(seed: int) -> int:
    """The pinned scenario seed a benchmark seed runs."""
    if seed in PINNED_SEEDS:
        return seed
    return PINNED_SEEDS[seed % len(PINNED_SEEDS)]


def canonical_json(obj) -> str:
    """Sorted keys, no whitespace: the repository's digest encoding."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Capture:
    """Objects the simulator creates during one cell, read after it.

    The benchmark wraps a few construction and entry methods (see
    ``run.py``); they append here, and op/event/WR counts are read from
    the captured objects once the cell has returned, so counting adds
    nothing to the timed hot path.
    """

    def __init__(self) -> None:
        self.clusters: List = []
        self.simulators: List = []
        self.nics: List = []

    def events(self) -> int:
        """Simulated events executed (scheduled minus still pending)."""
        return sum(sim._seq - len(sim._heap) for sim in self.simulators)

    def wrs(self) -> int:
        """Work requests issued by every NIC built in the cell."""
        return sum(sum(nic.issued_ops.values()) for nic in self.nics)

    def app_completions(self) -> int:
        """GETs completed by the apps of single-node clusters."""
        return sum(
            ctx.app.total_completed
            for cluster in self.clusters
            for ctx in getattr(cluster, "clients", ())
            if getattr(ctx, "app", None) is not None
            and hasattr(ctx.app, "total_completed")
        )


@dataclasses.dataclass(frozen=True)
class Cell:
    """One call into the simulator and how to count its ops."""

    label: str
    run: Callable[[Capture], object]
    ops: Callable[[object, Capture], int]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    #: Modules imported during set-up (the import span).
    modules: Tuple[str, ...]
    cells: Callable[[int], List[Cell]]
    #: ``check(seed, {label: result})`` -> one ``Check`` per checked
    #: result unit of the pass.
    check: Callable[[int, Dict[str, object]], List["Check"]]
    #: ``model(results)`` -> extra simulated-model figures, or {}.
    model: Callable[[Dict[str, object]], Dict[str, float]] = (
        lambda results: {}
    )


def load_pins() -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)


def load_repo_digests() -> dict:
    with open(REPO_DIGESTS_PATH) as fh:
        return json.load(fh)


@dataclasses.dataclass(frozen=True)
class Check:
    """One checked unit: its digest (or audit text), verdict and why."""

    unit: str
    digest: str
    ok: bool
    detail: str = ""


def _expect(unit: str, got: str, want) -> Check:
    if want is None:
        return Check(unit, got, False, "no pinned digest")
    if got != want:
        return Check(unit, got, False,
                     f"digest {got[:12]} != pinned {want[:12]}")
    return Check(unit, got, True)


def _audit(unit: str, violations: list) -> Check:
    """An invariant audit that passes when it found no violations."""
    text = canonical_json([str(v) for v in violations])
    return Check(unit, text, not violations, "; ".join(
        str(v) for v in violations[:3]
    ))


# ---------------------------------------------------------------------------
# qos-sweep: the pinned Fig. 12 sweep (runner scenario ``fig12-point``)
# ---------------------------------------------------------------------------
def _fig12_label(dist: str, frac: float) -> str:
    return f"{dist}-{frac}"


def _qos_cells(seed: int) -> List[Cell]:
    from repro.cluster.runner import get_scenario

    point = get_scenario("fig12-point")
    return [
        Cell(
            _fig12_label(dist, frac),
            lambda cap, d=dist, f=frac: point(
                {"distribution": d, "fraction": f}, seed
            ),
            lambda result, cap: cap.app_completions(),
        )
        for dist in FIG12_DISTRIBUTIONS
        for frac in FIG12_FRACTIONS
    ]


def _qos_check(seed, results):
    pins = load_pins()["qos-sweep"].get(str(seed), {})
    return [
        _expect(f"qos-sweep/{label}", sha256(canonical_json(result)),
                pins.get(label))
        for label, result in results.items()
    ]


def _qos_model(results) -> Dict[str, float]:
    """Mean error of each cell's total throughput against C_G, in %."""
    errors = [
        abs(r["total_kiops"] - PAPER_CG_KIOPS) / PAPER_CG_KIOPS * 100.0
        for r in results.values()
    ]
    return {"model_err_pct": sum(errors) / len(errors)}


# ---------------------------------------------------------------------------
# partition-chaos: globalqos partition + failover chaos, 36 periods
# ---------------------------------------------------------------------------
def _partition_cells(seed: int) -> List[Cell]:
    from repro.globalqos.chaos import run_partition_chaos

    def ops(result, cap):
        report, cluster = result
        gets = sum(striped.total_completed for striped in cluster.clients)
        return gets + report.puts_acked

    def run(cap):
        report = run_partition_chaos(seed)
        # The digest hashes the cluster's telemetry as well as the
        # report; the benchmark's start hook captured the cluster.
        (cluster,) = cap.clusters
        return report, cluster

    return [Cell("partition", run, ops)]


def partition_digest(report, cluster) -> str:
    """The repository's ``partition`` family digest, recomputed."""
    from repro.telemetry.exporters import ledger_jsonl, metrics_jsonl

    hub = cluster.sim.telemetry
    metrics_hash = sha256(metrics_jsonl(hub.period_rows))
    ledger_hash = sha256(ledger_jsonl(hub.ledger))
    results_hash = sha256(
        canonical_json({"chaos": dataclasses.asdict(report)})
    )
    return sha256(canonical_json([metrics_hash, ledger_hash, results_hash]))


def _partition_check(seed, results):
    report, cluster = results["partition"]
    want = load_repo_digests()["partition"].get(str(seed), {}).get("combined")
    checks = [_expect("partition/digest", partition_digest(report, cluster),
                      want)]
    checks.append(_audit("partition/invariants", report.violations))
    return checks


# ---------------------------------------------------------------------------
# fluid-scale: 10^6 clients through the fluid engine
# ---------------------------------------------------------------------------
def _fluid_cells(seed: int) -> List[Cell]:
    from repro.fluid.scenario import run_fluid_scale

    def ops(report, cap):
        return sum(
            sum(counts) for counts in report["flow_completions"].values()
        )

    return [Cell(
        "fluid",
        lambda cap: run_fluid_scale(
            num_clients=FLUID_CLIENTS, periods=FLUID_PERIODS, seed=seed
        ),
        ops,
    )]


def _fluid_check(seed, results):
    report = results["fluid"]
    want = load_pins()["fluid-scale"].get(str(seed))
    return [
        _expect("fluid/digest", sha256(canonical_json(report)), want),
        _audit("fluid/ledger_conservation", report["ledger_conservation"]),
        _audit("fluid/hierarchy_violations",
               report["hierarchy_violations"]),
    ]


# ---------------------------------------------------------------------------
# fabric-mix: the fabric scenario family (opt-in FabricModel / DCQCN)
# ---------------------------------------------------------------------------
def _fabric_cells(seed: int) -> List[Cell]:
    from repro.cluster.fabric_scenarios import run_fabric_family

    def ops(family, cap):
        driven = sum(
            driver["completed"]
            for result in family.values()
            for driver in result.get("drivers", {}).values()
        )
        return driven + cap.app_completions()

    return [Cell("fabric", lambda cap: run_fabric_family(seed), ops)]


def _fabric_check(seed, results):
    want = load_repo_digests()["fabric"].get(str(seed), {}).get("combined")
    results_hash = sha256(canonical_json(results["fabric"]))
    return [_expect("fabric/digest", sha256(canonical_json([results_hash])),
                    want)]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("qos-sweep", ("repro.cluster.runner",), _qos_cells,
                 _qos_check, _qos_model),
        Workload("partition-chaos", ("repro.globalqos.chaos",
                                     "repro.telemetry.exporters"),
                 _partition_cells, _partition_check),
        Workload("fluid-scale", ("repro.fluid.scenario",), _fluid_cells,
                 _fluid_check),
        Workload("fabric-mix", ("repro.cluster.fabric_scenarios",),
                 _fabric_cells, _fabric_check),
    )
}


def import_modules(names: Sequence[str]) -> None:
    for name in names:
        importlib.import_module(name)
