"""The determinism guard: bit-identical simulated outputs, by hash.

The simulator's whole value rests on one property: the same scenario
and seed produce the *same* simulated history, byte for byte.  Every
hot-path optimisation (``__slots__``, cached locals, the engine's
direct-callback ticks, the NIC cost tables) is licensed by this module:
it runs a fixed scenario family on the canonical seeds and folds the
telemetry exports — the per-period metrics JSONL, the token-ledger
audit JSONL, and the experiment's result payload — into SHA-256
digests.  If an "optimisation" changes a single float or reorders a
single same-timestamp event, a digest moves and the pinned test fails.

The scenario family deliberately leans on the messy paths: each seed
drives a :func:`~repro.cluster.scenarios.faulty_qos_cluster` with a
seed-specific fault plan (control loss, delay spikes, a brownout), so
drops, retries, engine backoff, capacity dilation, and conversion all
feed the hash — not just the steady-state fast path.

Every family — the canonical seeds above, the multi-node coordinator
and chaos scenarios, fluid scale, the fabric — is one row of
:data:`FAMILIES`: its seeds, its run, and the parts its digest hashes.
``python -m repro.cluster.determinism`` regenerates the committed
reference file (``benchmarks/results/determinism_hashes.json``) from
the table; the pinned test (``tests/integration/test_determinism.py``)
recomputes and compares.  Regenerate *only* when a change intentionally alters
simulated behaviour, and say so in the commit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from typing import Callable, Dict, Optional, Tuple

from repro.common.errors import ConfigError
from repro.cluster.experiment import run_experiment
from repro.cluster.scale import SimScale
from repro.cluster.scenarios import (
    faulty_qos_cluster,
    paper_demands,
    reservation_set,
)
from repro.telemetry.exporters import ledger_jsonl, metrics_jsonl
from repro.telemetry.hub import TelemetryConfig, attach_telemetry

#: The canonical seeds every before/after comparison runs on.
CANONICAL_SEEDS = (11, 23, 37, 41, 53)

#: Seed -> (fault kind, fault_plan kwargs).  Distinct plans per seed so
#: the five runs exercise genuinely different dynamics: lossy control
#: planes at two rates, delayed control planes at two rates, and a
#: capacity brownout.
SEED_FAULTS = {
    11: ("control-loss", {"rate": 0.04}),
    23: ("control-loss", {"rate": 0.10}),
    37: ("delay-spike", {"rate": 0.08}),
    41: ("brownout", {"factor": 0.6}),
    53: ("delay-spike", {"rate": 0.15}),
}

#: Matches the Fig. 12 sweep's scale (benchmarks/conftest.py) so the
#: guard hashes the same arithmetic regime the speedup is measured in.
DIGEST_SCALE = SimScale(factor=500, interval_divisor=100)

_NUM_CLIENTS = 5
_TOTAL_OPS = 0.7 * 1_570_000  # 70% of C_L reserved, zipf-shaped
_POOL_OPS = 120_000.0
_WARMUP = 1
_MEASURE = 4


#: The committed reference, resolved from the package location so the
#: digest checks work from any working directory of a source checkout.
REFERENCE_PATH = (
    pathlib.Path(__file__).resolve().parents[3]
    / "benchmarks" / "results" / "determinism_hashes.json"
)

#: The parts a DES family's digest hashes: the per-period metrics
#: stream, the token-ledger stream and the result payload.
STREAM_PARTS = ("kind", "metrics", "ledger", "results", "combined")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical_json(obj) -> str:
    # Canonical form: sorted keys, no whitespace.  Floats serialize via
    # repr (shortest round-trip since CPython 3.1), so equal bit
    # patterns give equal text on every supported interpreter.
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _stream_digest(kind: str, hub, payload) -> Dict[str, str]:
    """Hash a run's metrics stream, ledger stream and result payload.

    ``combined`` is the one number to compare; the three part hashes
    let a mismatch name the stream that moved.
    """
    metrics_hash = _sha256(metrics_jsonl(hub.period_rows))
    ledger_hash = _sha256(ledger_jsonl(hub.ledger))
    results_hash = _sha256(_canonical_json(payload))
    return {
        "kind": kind,
        "metrics": metrics_hash,
        "ledger": ledger_hash,
        "results": results_hash,
        "combined": _sha256(_canonical_json(
            [metrics_hash, ledger_hash, results_hash]
        )),
    }


def determinism_digest(seed: int,
                       scale: Optional[SimScale] = None) -> Dict[str, str]:
    """Run the canonical scenario for ``seed`` and digest its outputs.

    The ``seeds`` family: the digest covers the metrics stream, the
    ledger stream, the result payload, and the ledger conservation
    check.
    """
    kind, fault_kwargs = SEED_FAULTS[seed]
    reservations = reservation_set("zipf", _TOTAL_OPS, _NUM_CLIENTS)
    demands = paper_demands(reservations, _POOL_OPS)
    cluster = faulty_qos_cluster(
        reservations,
        demands,
        kind=kind,
        fault_seed=seed,
        fault_kwargs=fault_kwargs,
        scale=scale or DIGEST_SCALE,
        master_seed=seed,
    )
    hub = attach_telemetry(
        cluster, TelemetryConfig(sample_every=7, ledger=True)
    )
    result = run_experiment(
        cluster, warmup_periods=_WARMUP, measure_periods=_MEASURE
    )
    for ctx in cluster.clients:
        ctx.engine.ledger_flush()
    return _stream_digest(kind, hub, {
        "client_period_counts": result.client_period_counts,
        "client_latency": result.client_latency,
        "period_totals": result.period_totals,
        "estimator_history": result.estimator_history,
        "conservation": hub.ledger.check_conservation(),
    })


def _globalqos_run(seed: int):
    """The static-vs-coordinated skew comparison plus coordinator chaos.

    The streams are the coordinated run's (``rebalance`` events in the
    ledger); the payload adds both attainment summaries and the chaos
    report (fallback, recovery, conservation verdicts).
    """
    from repro.globalqos.chaos import run_coord_chaos
    from repro.globalqos.scenario import run_skewed

    static = run_skewed(seed, False)
    coordinated = run_skewed(seed, True)
    static.pop("_cluster")
    hub = coordinated.pop("_cluster").sim.telemetry
    chaos = run_coord_chaos(seed)
    return chaos, _stream_digest("globalqos-skew", hub, {
        "static": static,
        "coordinated": coordinated,
        "chaos": dataclasses.asdict(chaos),
    })


def _chaos_run(harness: str, kind: str):
    """One skew-chaos row, hashed: its cluster's streams and its report."""
    def run(seed: int):
        from repro.globalqos.chaos import SKEW_CHAOS, _run_skew_chaos

        report, cluster = _run_skew_chaos(SKEW_CHAOS[harness], seed)
        return report, _stream_digest(
            kind, cluster.sim.telemetry,
            {"chaos": dataclasses.asdict(report)},
        )
    return run


def _scale_run(seed: int):
    """A 10^4-client fluid run plus the fluid-vs-DES equivalence report.

    Alongside the digests the entry records the documented attainment
    tolerance tier and the equivalence verdict, so the pinned reference
    file carries the validation contract, not just opaque hashes.
    """
    from repro.fluid.scenario import run_fluid_scale
    from repro.fluid.validate import TOLERANCE_TIER, run_equivalence

    scale_report = run_fluid_scale(num_clients=10_000, seed=seed)
    equivalence = run_equivalence(seed)

    scale_hash = _sha256(_canonical_json(scale_report))
    equivalence_hash = _sha256(_canonical_json(equivalence))
    return None, {
        "kind": "fluid-scale",
        "fluid": scale_hash,
        "equivalence": equivalence_hash,
        "tolerance_tier": TOLERANCE_TIER,
        "max_error": round(equivalence["max_error"], 6),
        "equivalence_ok": equivalence["ok"],
        "combined": _sha256(_canonical_json(
            [scale_hash, equivalence_hash]
        )),
    }


def _fabric_run(seed: int):
    """The fabric scenario family's full result payload.

    Incast with CC on and off, the WRITE-heavy / CAS-heavy / mixed-size
    verb mixes, and the token-vs-congestion throttling pair; every
    congestion counter is in the payload, so a single reordered event
    or perturbed float anywhere in the modeled datapath moves the hash.
    """
    from repro.cluster.fabric_scenarios import run_fabric_family

    results_hash = _sha256(_canonical_json(run_fabric_family(seed)))
    return None, {
        "kind": "fabric-cc",
        "results": results_hash,
        "combined": _sha256(_canonical_json([results_hash])),
    }


@dataclasses.dataclass(frozen=True)
class Family:
    """One digest family: its seeds, its run, and the parts it hashes.

    ``run(seed)`` returns ``(report, digest)``; ``report`` is the chaos
    report the digest folds in (for families built on a chaos harness,
    named by ``harness``) or None.
    """

    seeds: Tuple[int, ...]
    run: Callable[[int], Tuple[object, Dict[str, object]]]
    parts: Tuple[str, ...] = STREAM_PARTS
    harness: Optional[str] = None


#: Every pinned family, keyed as in the committed reference file.  The
#: multi-node families use two seeds, not five: each run already covers
#: its rebalance / fallback / failover / fencing paths, so two seeds pin
#: every path at acceptable suite cost.
FAMILIES: Dict[str, Family] = {
    "seeds": Family(CANONICAL_SEEDS,
                    lambda seed: (None, determinism_digest(seed))),
    "globalqos": Family((11, 23), _globalqos_run, harness="coord"),
    "partition": Family((11, 23),
                        _chaos_run("partition", "partition-failover"),
                        harness="partition"),
    "policy": Family((11, 23), _chaos_run("policy", "policy-flip"),
                     harness="policy"),
    "scale": Family((11, 23), _scale_run,
                    parts=("kind", "fluid", "equivalence", "combined")),
    "fabric": Family((11, 23), _fabric_run,
                     parts=("kind", "results", "combined")),
}


def load_reference() -> dict:
    """The committed reference digests, every family."""
    try:
        with open(REFERENCE_PATH) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(
            f"determinism reference {REFERENCE_PATH} not found: the "
            "digest checks need a source checkout"
        ) from None


def compare_to_reference(family: str) -> Dict[str, dict]:
    """Recompute ``family``'s digests against the committed reference.

    Returns ``{str(seed): {"combined", "matched"}}``; raises
    :class:`~repro.common.errors.ConfigError` when the reference file
    is missing.
    """
    reference = load_reference()[family]
    out = {}
    for seed in FAMILIES[family].seeds:
        combined = FAMILIES[family].run(seed)[1]["combined"]
        out[str(seed)] = {
            "combined": combined,
            "matched": combined == reference[str(seed)]["combined"],
        }
    return out


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Recompute the determinism digests and optionally "
        "rewrite the committed reference file."
    )
    parser.add_argument(
        "--write", metavar="PATH", default=None,
        help="write the digests to PATH (the committed reference is "
        "benchmarks/results/determinism_hashes.json)",
    )
    args = parser.parse_args(argv)
    text = json.dumps(
        {
            name: {str(seed): family.run(seed)[1] for seed in family.seeds}
            for name, family in FAMILIES.items()
        },
        indent=2, sort_keys=True,
    ) + "\n"
    if args.write:
        with open(args.write, "w") as fh:
            fh.write(text)
        print(f"wrote {args.write}")
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
