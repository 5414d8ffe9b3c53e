"""Seeded chaos harness for the replicated cluster (docs/RECOVERY.md).

A chaos run draws a randomized-but-deterministic fault schedule from a
seed — a primary crash/restart window, a few abrupt QP closes, a
control-op drop storm — runs a mixed GET (one-sided, QoS-managed) and
PUT (two-sided, replicated) workload through it, leaves a fault-free
settle tail, and then checks the safety and liveness invariants:

1. **No lost acknowledged PUT** — every (client, key, version) the
   reliable-PUT path acknowledged is present on at least one store.
2. **No duplicate apply** — no store applied the same (client, key,
   version) more than once (replays must dedup by version).
3. **Reservations eventually met** — once faults clear, every live
   client's per-period completions reach ~its granted reservation.
4. **Bounded unavailability** — every failover completes within the
   configured number of QoS periods.
5. **Token conservation** — the telemetry ledger's per-account identity
   (granted reservation + pool claims == spent + yielded + expired)
   balances to zero for every grant episode, across crash, failover,
   and rejoin (see :mod:`repro.telemetry.ledger`).

Same seed, same schedule, same verdict: failures are replayable.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.core.config import HaechiConfig
from repro.cluster.experiment import attach_app
from repro.cluster.scale import SimScale
from repro.faults.plan import CrashWindow, DropRule, FaultPlan, OpFilter, QPCloseFault
from repro.hunt.oracles import (
    check_bounded_failover,
    check_ledger_conservation,
    check_no_duplicate_apply,
    check_no_lost_acked_put,
    check_reservations_met,
)
from repro.recovery.cluster import ReplicatedCluster, build_replicated_cluster
from repro.recovery.failover import FailoverState
from repro.telemetry import TelemetryConfig, attach_telemetry, write_perfetto
from repro.workloads.patterns import RequestPattern

# The documented seed set: CI's chaos-smoke job runs the first three,
# `python -m repro chaos` and the full test run all five.  All five are
# required to produce zero invariant violations.
DEFAULT_SEEDS = (11, 23, 37, 41, 53)

# Fault-free tail so "eventually met" has a clean window to converge in.
SETTLE_PERIODS = 3

CHAOS_SCALE = SimScale(factor=1000, interval_divisor=50)


@dataclasses.dataclass
class ChaosReport:
    """One chaos run's verdict and headline counters."""

    seed: int
    periods: int
    violations: List[str]
    failovers: int
    failover_durations: List[float]
    puts_acked: int
    put_retries: int
    duplicate_suppressed: int
    degraded_acks: int
    rejoins: int
    generation_resyncs: int
    # Aggregate token flow from the telemetry ledger (invariant 5).
    ledger_totals: dict = dataclasses.field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def chaos_plan(
    seed: int,
    config: HaechiConfig,
    periods: int,
    num_clients: int,
) -> FaultPlan:
    """Draw a deterministic fault schedule for one run.

    All faults land in [1, periods - SETTLE_PERIODS) periods; the tail
    is left clean.  Always includes a finite primary crash window (the
    tentpole scenario); QP closes and a control drop storm are drawn
    per-seed.
    """
    if periods < SETTLE_PERIODS + 3:
        raise ConfigError(
            f"chaos runs need at least {SETTLE_PERIODS + 3} periods "
            f"(got {periods}): faults plus a {SETTLE_PERIODS}-period "
            "settle tail must both fit"
        )
    rng = make_rng(seed, "chaos-plan")
    T = config.period
    fault_end = (periods - SETTLE_PERIODS) * T

    crash_len = (0.6 + 0.8 * rng.random()) * T
    crash_start = T * (1.0 + rng.random() * (periods - SETTLE_PERIODS - 3))
    crash_end = min(crash_start + crash_len, fault_end)
    crashes = (CrashWindow("server", crash_start, crash_end),)

    qp_closes = tuple(
        QPCloseFault(f"C{rng.randrange(num_clients) + 1}", "server",
                     T * (1.0 + rng.random() * (periods - SETTLE_PERIODS - 2)))
        for _ in range(rng.randrange(3))  # 0..2 closes
    )

    storm_start = T * (1.0 + rng.random() * (periods - SETTLE_PERIODS - 2))
    drops = (DropRule(
        rate=0.1 + 0.1 * rng.random(),
        where=OpFilter(control_only=True, start=storm_start,
                       end=storm_start + T),
        label="chaos-storm",
    ),)

    return FaultPlan(
        drops=drops,
        qp_closes=qp_closes,
        crashes=crashes,
        drop_fail_after=config.check_interval,
    )


def _attach_put_driver(cluster: ReplicatedCluster, manager, index: int,
                       puts_per_period: int, stop_time: float) -> None:
    """A paced reliable-PUT stream through the failover manager."""
    sim = cluster.sim
    gap = cluster.config.period / puts_per_period
    num_slots = cluster.data_node.store.layout.num_slots
    payload = b"chaos"

    key = index % num_slots

    def tick():
        nonlocal key
        if sim.now < stop_time:
            manager.put(key, payload)
            key = (key + 7) % num_slots
            sim.schedule(gap, tick)

    sim.schedule(0.0, tick)


def run_chaos(
    seed: int,
    num_clients: int = 4,
    periods: int = 10,
    reservations_ops: Optional[Sequence[float]] = None,
    puts_per_period: int = 8,
    scale: Optional[SimScale] = None,
    telemetry: Optional[TelemetryConfig] = None,
    trace_path: Optional[str] = None,
) -> ChaosReport:
    """One seeded chaos run; returns the invariant verdict.

    A telemetry hub is always attached — by default ledger-only (no
    spans), which costs the data path nothing and lets invariant 5
    audit token conservation through the fault schedule.  Pass a
    ``telemetry`` config to also sample spans, and ``trace_path`` to
    write them out as a Perfetto trace.
    """
    scale = scale or CHAOS_SCALE
    if reservations_ops is None:
        reservations_ops = [60_000.0] * num_clients
    cluster = build_replicated_cluster(
        num_clients=num_clients,
        reservations_ops=list(reservations_ops),
        scale=scale,
    )
    if telemetry is None:
        telemetry = TelemetryConfig(sample_every=0, control_spans=False)
    hub = attach_telemetry(cluster, telemetry)
    config = cluster.config
    T = config.period
    plan = chaos_plan(seed, config, periods, num_clients)
    cluster.inject_faults(plan, seed=seed)

    for i, ctx in enumerate(cluster.clients):
        attach_app(cluster, ctx, RequestPattern.BURST,
                   demand_ops=reservations_ops[i], window=None)
        # PUT streams stop one period before the end so every ack (or
        # retry budget) resolves inside the run.
        _attach_put_driver(cluster, ctx.failover, i, puts_per_period,
                           stop_time=(periods - 1) * T)

    cluster.start()
    cluster.sim.run(until=periods * T + T * 1e-6)

    # Close every engine's open ledger account before auditing.
    for ctx in cluster.clients:
        if ctx.engine is not None:
            ctx.engine.ledger_flush()

    report = _check_invariants(cluster, plan, seed, periods)
    if hub.ledger is not None:
        report.violations.extend(
            str(violation)
            for violation in check_ledger_conservation(hub.ledger)
        )
        report.ledger_totals = hub.ledger.totals()
    if trace_path is not None:
        write_perfetto(trace_path, hub.spans, hub.spans.export())
    return report


def _check_invariants(cluster: ReplicatedCluster, plan: FaultPlan,
                      seed: int, periods: int) -> ChaosReport:
    """End-of-run verdict, built entirely from the shared oracle
    registry (:mod:`repro.hunt.oracles`) — the globalqos chaos harness
    runs the same code paths."""
    violations: List[str] = []
    stores = cluster.stores
    recovery = cluster.recovery
    T = cluster.config.period

    # 1. No lost acknowledged PUT.
    put_entries = []
    for ctx in cluster.clients:
        for key, version in ctx.failover.acked_puts.items():
            durable = max(
                store.applied_versions.get((ctx.name, key), 0)
                for store in stores
            )
            put_entries.append(
                (ctx.name, f"{ctx.name} key={key}", version, durable)
            )
    violations.extend(str(v) for v in check_no_lost_acked_put(put_entries))

    # 2. No duplicate apply (per store, per client-version).
    apply_entries = [
        (label, client, key, version, count)
        for label, store in zip(("primary", "replica"), stores)
        for (client, key, version), count in store.apply_counts.items()
    ]
    violations.extend(
        str(v) for v in check_no_duplicate_apply(apply_entries)
    )

    # 3. Reservations eventually met: the last (settle) period's
    # completions reach 90% of the granted reservation for every
    # client that is still live (not FAILED).
    reservation_rows = []
    for ctx in cluster.clients:
        manager = ctx.failover
        if manager.state is FailoverState.FAILED:
            violations.append(f"{ctx.name} never recovered (FAILED)")
            continue
        counts = cluster.metrics.clients[ctx.name].period_counts
        granted = manager.granted_reservation
        if counts and granted > 0:
            reservation_rows.append((ctx.name, counts[-1], granted))
    violations.extend(
        str(v) for v in check_reservations_met(reservation_rows)
    )

    # 4. Bounded unavailability per failover.
    durations: List[float] = [
        end - start
        for ctx in cluster.clients
        for start, end in ctx.failover.failover_windows
    ]
    failover_entries = [
        (ctx.name, end - start)
        for ctx in cluster.clients
        for start, end in ctx.failover.failover_windows
    ]
    violations.extend(str(v) for v in check_bounded_failover(
        failover_entries, recovery.failover_bound_periods, T,
    ))

    # The plan always crashes the primary: every client must have
    # completed a failover (the protocol under test actually ran).
    if plan.crashes:
        for ctx in cluster.clients:
            if ctx.failover.rejoins_completed < 1:
                violations.append(
                    f"{ctx.name} never failed over despite primary crash"
                )

    return ChaosReport(
        seed=seed,
        periods=periods,
        violations=violations,
        failovers=sum(c.failover.failovers for c in cluster.clients),
        failover_durations=durations,
        puts_acked=sum(c.failover.puts_acked for c in cluster.clients),
        put_retries=sum(c.failover.put_retries for c in cluster.clients),
        duplicate_suppressed=sum(s.duplicate_suppressed for s in stores),
        degraded_acks=cluster.data_node.degraded_acks,
        rejoins=len(cluster.replica_monitor.rejoins),
        generation_resyncs=sum(
            c.engine.generation_resyncs for c in cluster.clients
        ),
    )
