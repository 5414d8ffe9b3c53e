"""Seeded chaos on the skewed multi-node cluster: one runner, one table.

Every harness here runs the same sequence on
:func:`~repro.globalqos.scenario.build_skewed_cluster` — build, plan,
inject faults, drive a paced versioned-PUT stream per client, run,
flush the ledger, audit — and differs only in data: which build, which
fault plan, which timed actions, which checks and which report.  Each
harness is one row of :data:`SKEW_CHAOS`; :func:`_run_skew_chaos` runs
any row, and the shared check tail (no lost acknowledged PUT, ledger
audits, reservations met in the final fault-free period) is written
once.

**coord** — the coordinator is soft state, so this harness checks
*graceful degradation*, not durability: crash the ``coord`` host
mid-run (every send to or from it drops at the fabric), add a seeded
control-op drop storm, and verify that the data plane never noticed:

1. **Fallback engaged** — with the coordinator silent past the
   client-side timer, agents restore the static even split on their
   own (the freeze -> fallback ladder actually ran).
2. **Recovery re-engaged** — after the crash window closes, one epoch
   of reports rebuilds the coordinator's view and rebalancing resumes
   (heartbeats reach the clients again, shifts are recomputed).
3. **No lost acknowledged PUT** — every versioned PUT acked to the
   chaos driver is durable on the owning node's store, mid-stream
   rebinds notwithstanding.
4. **Token conservation** — every engine grant episode balances across
   all the rebinds the split changes caused
   (:meth:`~repro.telemetry.ledger.TokenLedger.check_conservation`).
5. **Split conservation** — every rebalance the coordinator recorded
   sums to the client's aggregate reservation exactly
   (:meth:`~repro.telemetry.ledger.TokenLedger.check_split_conservation`).
6. **Reservations met after settle** — in the final (fault-free)
   period every client's completions reach 90% of its aggregate
   reservation: the coordinator's return actually restored the skewed
   clients' attainment.

**partition** — the HA build (leader + warm standby with quarantine
armed) and the *fencing* story:

1. **Bounded takeover** — an asymmetric partition cuts the leader's
   heartbeats to the standby (leader -> standby only; the reverse
   direction and every data link stay up), and the standby promotes
   itself within ``takeover_after + 1`` epochs of the first cut
   heartbeat.  Exactly once: the deposed leader must not flap back.
2. **Epoch fencing holds** — the deposed leader keeps computing for
   one epoch (it hears no one telling it otherwise); a control-plane
   lag rule makes its last SplitUpdate arrive *after* the new
   leader's, so every client must fence it by term.  Zero stale
   applications (``check_no_stale_split`` over the agents' applied
   fencing keys) and at least one fenced update observed.
3. **Fail-slow quarantined and re-admitted** — after the partition
   heals, one data node turns gray (every NIC/CPU cost x ``factor``);
   the acting leader must quarantine it within ``quarantine_after``
   epochs of bad scores, and un-quarantine it after the slowdown
   lifts.  Both transitions audited in the ledger
   (``check_quarantine_audit``).
4. **Conservation + durability throughout** — token and split
   conservation, no lost acked PUT, reservations met in the final
   fault-free period.

**policy** — rolling policy updates under the partition schedule.  The
hardest moment to hot-swap a policy is mid-failover: for roughly one
epoch *two* coordinators believe they lead.  The harness submits the
committed ``policy-chaos`` revision 2 of the skew policy (entitled
reservation raised and limited, commodity shrunk) timed so both
coordinators push it at the takeover epoch; the deposed leader's push
carries the old term and, thanks to the lag rule, arrives *after* the
new leader's.  It checks:

1. **Bounded takeover, exactly once** (as the partition harness).
2. **Zero stale policy applications** — every client applies revision
   2 exactly once, from the new leader; the deposed leader's push is
   fenced by term (>= 1 fenced observed), and the acting leader's
   per-epoch re-pushes are rejected as stale (>= 1 observed), so the
   self-healing redundancy is exercised, not just tolerated.
3. **Decrease-before-increase held** — node-side admission never
   clamped an apply: the entitled raise waited for the commodity
   shrink's headroom.
4. **Conservation throughout** — token, split, quarantine and policy
   ledger audits all clean; the policy applies land in the ledger
   with the old and new vectors.
5. **The policy actually took** — final aggregates equal the lowered
   revision-2 targets, entitled engines carry the new limit, and
   reservations are met in the final fault-free period *under the new
   policy*.

Same seed, same schedule, same verdict: failures are replayable.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.cluster.scale import SimScale
from repro.faults.plan import (
    CrashWindow,
    DelayRule,
    DropRule,
    FaultPlan,
    OpFilter,
    PartitionRule,
    SlowdownRule,
)
from repro.globalqos.agents import COMPUTE_MARGIN
from repro.globalqos.coordinator import COORD_HOST_NAME, STANDBY_HOST_NAME
from repro.globalqos.scenario import build_skewed_cluster
from repro.globalqos.waterfill import even_split
from repro.hunt.oracles import (
    check_ledger_conservation,
    check_no_lost_acked_put,
    check_no_stale_policy,
    check_no_stale_split,
    check_policy_audit,
    check_quarantine_audit,
    check_reservations_met,
    check_split_conservation,
)
from repro.policy.service import attach_policy_service
from repro.policy.store import load_policy

# CI's smoke jobs run the first seed; the full suite and the CLI
# (`repro globalqos --chaos`, `--partition-chaos`, `repro policy
# apply`) run all of them.
DEFAULT_SEEDS = (11, 23, 37)

SETTLE_PERIODS = 3

# Fraction of a period the deposed leader's control sends lag during the
# partition window.  Anything > COMPUTE_MARGIN - STANDBY_MARGIN (an
# eighth of a period) guarantees the old leader's takeover-epoch update
# arrives after the new leader's, making the fencing path observable on
# every seed; 0.21 also clears transit-time noise with margin.
DEPOSED_LAG_FRACTION = 0.21

# The gray node's fail-slow multiplier and how many epochs it stays
# slow.  Factor 3 pushes its health scores (latency, capacity and
# completion ratio all degrade ~3x against the healthy peer) well under
# the 0.55 quarantine threshold; 2 epochs exactly cover the
# ``quarantine_after`` streak, so the throttle lands as the slowdown
# lifts and the harness measures pure backlog drain.
FAILSLOW_FACTOR = 3.0
FAILSLOW_EPOCHS = 2.0

# Healthy-streak epochs before the acting leader re-admits the
# quarantined node (the harness's ``recover_after``).  At factor 3 the
# standing queue booked during the slow window takes ~4 epochs to drain
# through the //QUARANTINE_THROTTLE_DIV throttle; a 4-epoch streak
# means re-admission happens with the backlog essentially gone, so the
# node does not flap straight back into quarantine.
RECOVER_EPOCHS = 4

#: The committed flip document: revision 2 of the skew policy.
FLIP_DOCUMENT = "policy-chaos"


@dataclasses.dataclass
class CoordChaosReport:
    """One coordinator-chaos run's verdict and headline counters."""

    seed: int
    periods: int
    violations: List[str]
    fallbacks: int
    rebalances: int
    tokens_shifted: int
    updates_received: int
    epochs_skipped: int
    puts_acked: int
    rebinds: int
    ledger_totals: dict = dataclasses.field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclasses.dataclass
class PartitionChaosReport:
    """One partition/failover-chaos run's verdict and counters."""

    seed: int
    periods: int
    violations: List[str]
    takeovers: int
    takeover_epoch: int
    stepdowns: int
    fenced_updates: int
    stale_rejected: int
    quarantines: int
    unquarantines: int
    fallbacks: int
    rebalances: int
    tokens_shifted: int
    updates_received: int
    puts_acked: int
    partitions_cut: int
    slowdowns_applied: int
    ledger_totals: dict = dataclasses.field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclasses.dataclass
class PolicyChaosReport:
    """One policy-flip/failover-chaos run's verdict and counters."""

    seed: int
    periods: int
    violations: List[str]
    flip_epoch: int
    submitted_version: int
    takeovers: int
    takeover_epoch: int
    policy_applies: int
    policy_fenced: int
    policy_stale_rejected: int
    policy_pushes: int
    rebalances: int
    puts_acked: int
    ledger_totals: dict = dataclasses.field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------
def coord_chaos_plan(run: "SkewChaosRun") -> FaultPlan:
    """A deterministic schedule built around one coordinator outage.

    The crash window opens after the first rebalance has landed and
    stays down long enough to trip the client fallback timers, then
    lifts with at least two epochs plus the settle tail remaining so
    recovery is observable.  A short control-op drop storm lands
    somewhere in the faulted region for extra report loss.
    """
    min_periods = 7 * run.rebalance_periods + SETTLE_PERIODS
    if run.periods < min_periods:
        raise ConfigError(
            f"coordinator chaos needs >= {min_periods} periods "
            f"(got {run.periods}): outage, fallback, recovery and a "
            f"{SETTLE_PERIODS}-period settle tail must all fit"
        )
    rng = make_rng(run.seed, "coord-chaos-plan")
    T = run.period
    epoch = run.rebalance_periods * T
    # Down for 3 epochs starting somewhere in the second one: the
    # first shift is in force, then >= fallback_after epochs of
    # silence force the even-split fallback.
    crash_start = epoch * (1.0 + rng.random())
    crash_end = crash_start + 3.0 * epoch
    crashes = (CrashWindow(COORD_HOST_NAME, crash_start, crash_end),)

    storm_start = crash_start + rng.random() * 2.0 * epoch
    drops = (DropRule(
        rate=0.05 + 0.1 * rng.random(),
        where=OpFilter(control_only=True, start=storm_start,
                       end=storm_start + T),
        label="coord-chaos-storm",
    ),)
    return FaultPlan(
        drops=drops,
        crashes=crashes,
        drop_fail_after=run.cluster.config.check_interval,
    )


def partition_chaos_plan(run: "SkewChaosRun") -> FaultPlan:
    """A deterministic partition + fail-slow schedule.

    Timeline (in epochs): the leader->standby link is cut somewhere in
    the third epoch and stays cut for ``takeover_after + 2`` epochs —
    long enough that the lease lapses and the takeover, step-down and
    fencing all happen *inside* the window (the asymmetric case).  A
    full-rate control-lag rule on the deposed leader's sends spans the
    same window so its dying SplitUpdate loses the race to the new
    leader's.  After the heal, ``server2`` turns gray for
    ``FAILSLOW_EPOCHS`` epochs, then recovers; the tail leaves room for
    the backlog drain, the ``RECOVER_EPOCHS`` re-admission streak and
    the settle periods.
    """
    # Worst-case epochs: 2.5 (latest cut start) + takeover_after + 2
    # (partition) + 1.5 (latest fail-slow gap) + FAILSLOW_EPOCHS + 1
    # (detection lag) + RECOVER_EPOCHS + 1 (margin).
    worst_epochs = (8.0 + run.takeover_after + FAILSLOW_EPOCHS
                    + RECOVER_EPOCHS)
    min_periods = (int(math.ceil(worst_epochs * run.rebalance_periods))
                   + SETTLE_PERIODS)
    if run.periods < min_periods:
        raise ConfigError(
            f"partition chaos needs >= {min_periods} periods "
            f"(got {run.periods}): partition, takeover, heal, fail-slow, "
            f"re-admission and a {SETTLE_PERIODS}-period settle tail "
            "must all fit"
        )
    rng = make_rng(run.seed, "partition-chaos-plan")
    T = run.period
    epoch = run.rebalance_periods * T

    part_start = epoch * (2.0 + 0.5 * rng.random())
    part_end = part_start + (run.takeover_after + 2.0) * epoch
    partitions = (PartitionRule(
        src=COORD_HOST_NAME, dst=STANDBY_HOST_NAME,
        start=part_start, end=part_end,
        label="leader-standby-cut",
    ),)

    delays = (DelayRule(
        rate=1.0, delay=DEPOSED_LAG_FRACTION * T,
        where=OpFilter(src=COORD_HOST_NAME, control_only=True,
                       start=part_start, end=part_end),
        label="deposed-leader-lag",
    ),)

    slow_start = part_end + epoch * (1.0 + 0.5 * rng.random())
    slowdowns = (SlowdownRule(
        host="server2",
        start=slow_start, end=slow_start + FAILSLOW_EPOCHS * epoch,
        factor=FAILSLOW_FACTOR,
    ),)

    return FaultPlan(
        delays=delays,
        partitions=partitions,
        slowdowns=slowdowns,
        drop_fail_after=run.cluster.config.check_interval,
    )


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------
class _PutDriver:
    """A paced versioned-PUT stream through one striped client.

    Tracks every acknowledged (node, key, version) so the durability
    check can demand it; versions make server-side replays idempotent.
    """

    def __init__(self, cluster, striped, puts_per_period: int,
                 stop_time: float, seed: int):
        self.striped = striped
        self.acked: Dict[Tuple[int, int], int] = {}
        self.puts_acked = 0
        self._versions: Dict[Tuple[int, int], int] = {}
        sim = cluster.sim
        num_nodes = len(cluster.nodes)
        keyspace = num_nodes * min(
            node.data_node.store.layout.num_slots for node in cluster.nodes
        )
        rng = make_rng(seed, "coord-chaos-puts", striped.index)
        gap = cluster.config.period / puts_per_period

        def tick():
            if sim.now >= stop_time:
                return
            key = rng.randrange(keyspace)
            node = key % num_nodes
            node_key = key // num_nodes
            slot = (node, node_key)
            version = self._versions.get(slot, 0) + 1
            self._versions[slot] = version

            def on_ack(ok, _value, _latency):
                if ok:
                    self.puts_acked += 1
                    if version > self.acked.get(slot, 0):
                        self.acked[slot] = version

            striped.kv_clients[node].put_twosided(
                node_key, b"coordchaos", on_ack, client_version=version
            )
            sim.schedule(gap, tick)

        sim.schedule(0.0, tick)


@dataclasses.dataclass
class SkewChaosRun:
    """One skew-chaos run: what its checks and report read."""

    cluster: object
    seed: int
    periods: int
    rebalance_periods: int
    takeover_after: int
    plan: Optional[FaultPlan] = None
    drivers: List[_PutDriver] = dataclasses.field(default_factory=list)
    # Set by the policy harness's timed flip.
    flip_epoch: int = 0
    flip: object = None

    @property
    def period(self) -> float:
        return self.cluster.config.period

    @property
    def agents(self):
        return self.cluster.client_agents

    @property
    def ledger(self):
        return getattr(self.cluster.sim.telemetry, "ledger", None)

    def ledger_totals(self) -> dict:
        ledger = self.ledger
        return ledger.totals() if ledger is not None else {}

    def puts_acked(self) -> int:
        return sum(d.puts_acked for d in self.drivers)

    def last_heartbeat_epoch(self) -> int:
        """The last epoch whose heartbeat crossed the partitioned link.

        It belongs to the last epoch whose compute tick preceded the
        cut; the standby's lease then lapses ``takeover_after + 1``
        watch ticks later.
        """
        cut = self.plan.partitions[0]
        epoch_len = self.rebalance_periods * self.period
        return int((cut.start + COMPUTE_MARGIN * self.period) / epoch_len)

    def takeover_bound(self) -> int:
        return self.last_heartbeat_epoch() + self.takeover_after + 1


Check = Callable[[SkewChaosRun], Sequence[str]]


@dataclasses.dataclass(frozen=True)
class SkewChaosHarness:
    """One row of :data:`SKEW_CHAOS`: a chaos harness as data.

    ``plan`` builds the fault schedule, ``actions`` (optional) schedules
    timed actions before the run starts, ``checks`` run in order after
    it (their violations concatenate), and ``report`` folds the run into
    the harness's report dataclass.  ``mode``, ``columns`` and
    ``summary`` are what the CLI prints: the report-JSON mode label, the
    verdict table's per-harness ``(header, report field)`` columns, and
    the tail of the ``n/m seeds ...`` line (formatted with ``periods``).
    """

    name: str
    periods: int
    ha: bool
    plan: Callable[[SkewChaosRun], FaultPlan]
    checks: Tuple[Check, ...]
    report: Callable[[SkewChaosRun, List[str]], object]
    mode: str
    columns: Tuple[Tuple[str, object], ...]
    summary: str
    actions: Optional[Callable[[SkewChaosRun], None]] = None


def _run_skew_chaos(harness: SkewChaosHarness, seed: int,
                    periods: Optional[int] = None,
                    rebalance_periods: int = 2, fallback_after: int = 2,
                    takeover_after: int = 2, puts_per_period: int = 6,
                    scale: Optional[SimScale] = None):
    """Run one row of the table; returns ``(report, cluster)``.

    The cluster is handed back for the determinism digests, which hash
    its telemetry streams alongside the report.
    """
    if periods is None:
        periods = harness.periods
    ha_kwargs = dict(
        standby=True, takeover_after=takeover_after,
        quarantine=True, quarantine_recover_after=RECOVER_EPOCHS,
    ) if harness.ha else {}
    cluster = build_skewed_cluster(
        seed, coordinated=True, scale=scale,
        rebalance_periods=rebalance_periods,
        fallback_after=fallback_after, **ha_kwargs,
    )
    run = SkewChaosRun(cluster, seed, periods, rebalance_periods,
                       takeover_after)
    T = run.period
    run.plan = harness.plan(run)
    cluster.inject_faults(run.plan, seed=seed)
    if harness.actions is not None:
        harness.actions(run)
    run.drivers = [
        _PutDriver(cluster, striped, puts_per_period,
                   stop_time=(periods - 1) * T, seed=seed)
        for striped in cluster.clients
    ]

    cluster.start()
    cluster.sim.run(until=periods * T + T * 1e-6)
    for striped in cluster.clients:
        for engine in striped.engines:
            engine.ledger_flush()

    violations = [v for check in harness.checks for v in check(run)]
    return harness.report(run, violations), cluster


# ---------------------------------------------------------------------------
# Shared checks (the tail every harness ends with)
# ---------------------------------------------------------------------------
def _puts_durable(run: SkewChaosRun) -> List[str]:
    """No lost acknowledged PUT (shared oracle; see repro.hunt.oracles)."""
    cluster = run.cluster
    put_entries = []
    for striped, driver in zip(cluster.clients, run.drivers):
        for (node, node_key), version in driver.acked.items():
            store = cluster.nodes[node].data_node.store
            client_id = striped.kv_clients[node].name
            durable = store.applied_versions.get((client_id, node_key), 0)
            put_entries.append((
                striped.name,
                f"{striped.name} node {node} key={node_key}",
                version, durable,
            ))
    return [str(v) for v in check_no_lost_acked_put(put_entries)]


def _ledger_audits(*oracles) -> Check:
    """The ledger oracles, in order, when the run kept a ledger."""
    def check(run: SkewChaosRun) -> List[str]:
        ledger = run.ledger
        if ledger is None:
            return []
        return [str(v) for oracle in oracles for v in oracle(ledger)]
    return check


def _reservations_met(run: SkewChaosRun) -> List[str]:
    """Reservations met in the final, fault-free period."""
    cluster = run.cluster
    return [str(v) for v in check_reservations_met([
        (striped.name,
         (cluster.metrics.clients[striped.name].period_counts[-1]
          if cluster.metrics.clients[striped.name].period_counts else None),
         striped.aggregate_reservation)
        for striped in cluster.clients
    ])]


def _split_fencing(run: SkewChaosRun) -> List[str]:
    """No stale or deposed split update applied by any agent."""
    return [str(v) for v in check_no_stale_split([
        (agent.striped.name, agent.update_keys_applied)
        for agent in run.agents
    ])]


# ---------------------------------------------------------------------------
# coord: coordinator crash + drop storm
# ---------------------------------------------------------------------------
def _coord_ladder(run: SkewChaosRun) -> List[str]:
    violations = []
    coordinator = run.cluster.coordinator
    crash = run.plan.crashes[0]
    T = run.period

    # 1. Fallback engaged during the outage.  Only clients whose split
    # had been shifted off even have anything to restore — the skewed
    # scenario guarantees at least the entitled clients were.
    if sum(agent.fallbacks for agent in run.agents) < 1:
        violations.append(
            "no client fell back to the static split despite "
            f"coordinator down {crash.start / T:.1f}..{crash.end / T:.1f} "
            "periods"
        )

    # 2. Recovery re-engaged after the window closed: heartbeats
    # resumed (every agent heard a post-crash epoch) and the
    # coordinator kept computing.
    recovery_epoch = int(crash.end / coordinator.epoch_len) + 1
    for agent in run.agents:
        if agent.last_update_epoch < recovery_epoch:
            violations.append(
                f"{agent.striped.name}: no coordinator heartbeat after "
                f"restart (last epoch {agent.last_update_epoch}, "
                f"expected >= {recovery_epoch})"
            )
    if coordinator.rebalances_computed < 2:
        violations.append(
            "coordinator never re-shifted after restart "
            f"(rebalances={coordinator.rebalances_computed})"
        )
    return violations


def _coord_fallback_target(run: SkewChaosRun) -> List[str]:
    # Sanity: the fallback target was the even split (not garbage).
    violations = []
    for agent in run.agents:
        if agent.fallbacks:
            even = even_split(
                agent.striped.aggregate_reservation, agent.num_nodes
            )
            if agent.splits_applied < 1:
                violations.append(
                    f"{agent.striped.name}: fallback fired but no split "
                    f"was ever applied (even target {even})"
                )
    return violations


def _coord_report(run: SkewChaosRun, violations) -> CoordChaosReport:
    coordinator = run.cluster.coordinator
    agents = run.agents
    return CoordChaosReport(
        seed=run.seed,
        periods=run.periods,
        violations=violations,
        fallbacks=sum(agent.fallbacks for agent in agents),
        rebalances=coordinator.rebalances_computed,
        tokens_shifted=coordinator.tokens_shifted,
        updates_received=sum(a.updates_received for a in agents),
        epochs_skipped=coordinator.epochs_skipped_no_quorum,
        puts_acked=run.puts_acked(),
        rebinds=sum(
            engine.re_registrations
            for striped in run.cluster.clients for engine in striped.engines
        ),
        ledger_totals=run.ledger_totals(),
    )


# ---------------------------------------------------------------------------
# partition: asymmetric partition, failover and fail-slow (HA build)
# ---------------------------------------------------------------------------
def _one_takeover(run: SkewChaosRun, bound_detail: str) -> List[str]:
    """Exactly one takeover, within ``run.takeover_bound()`` epochs."""
    standby = run.cluster.standby
    cut = run.plan.partitions[0]
    T = run.period
    bound = run.takeover_bound()
    if standby.takeovers != 1:
        return [
            f"expected exactly one takeover, got {standby.takeovers} "
            f"(partition {cut.start / T:.1f}..{cut.end / T:.1f} periods)"
        ]
    if standby.takeover_epoch > bound:
        return [
            f"takeover unbounded: standby promoted at epoch "
            f"{standby.takeover_epoch}, bound {bound}{bound_detail}"
        ]
    return []


def _partition_failover(run: SkewChaosRun) -> List[str]:
    leader = run.cluster.coordinator
    standby = run.cluster.standby
    T = run.period

    # 1. Bounded takeover, exactly once, and the old leader stood down.
    violations = _one_takeover(
        run,
        f" (last heartbeat epoch {run.last_heartbeat_epoch()} + "
        f"takeover_after {run.takeover_after} + 1)",
    )
    if leader.stepdowns < 1:
        violations.append(
            "deposed leader never stepped down despite the standby's "
            f"term {standby.term} heartbeats on the live reverse link"
        )
    if leader.takeovers:
        violations.append(
            f"deposed leader reclaimed leadership {leader.takeovers}x "
            "(flapping) — the standby's lease should have held"
        )

    # 2. Epoch fencing: no stale/deposed update applied, and the race
    # the lag rule engineers was actually observed (>= 1 fenced).
    violations.extend(_split_fencing(run))
    if sum(agent.updates_fenced for agent in run.agents) < 1:
        violations.append(
            "no client ever fenced a deposed-leader update — the "
            "term check never fired despite the engineered lag race"
        )

    # 3. Fail-slow quarantine on the acting (post-takeover) leader:
    # entered during the slowdown, audited, and re-admitted after it.
    slow = run.plan.slowdowns[0]
    if standby.quarantines < 1:
        violations.append(
            f"gray node never quarantined: {slow.host} ran "
            f"{slow.factor}x slow over "
            f"{slow.start / T:.1f}..{slow.end / T:.1f} periods"
        )
    if standby.unquarantines < standby.quarantines:
        violations.append(
            f"quarantined node never re-admitted (quarantines="
            f"{standby.quarantines}, unquarantines="
            f"{standby.unquarantines})"
        )
    if standby.quarantined:
        violations.append(
            f"nodes still quarantined at run end: "
            f"{sorted(standby.quarantined)}"
        )
    return violations


def _partition_report(run: SkewChaosRun,
                      violations) -> PartitionChaosReport:
    leader = run.cluster.coordinator
    standby = run.cluster.standby
    agents = run.agents
    injector = run.cluster.fault_injector
    return PartitionChaosReport(
        seed=run.seed,
        periods=run.periods,
        violations=violations,
        takeovers=standby.takeovers,
        takeover_epoch=standby.takeover_epoch,
        stepdowns=leader.stepdowns,
        fenced_updates=sum(agent.updates_fenced for agent in agents),
        stale_rejected=sum(a.updates_rejected_stale for a in agents),
        quarantines=standby.quarantines,
        unquarantines=standby.unquarantines,
        fallbacks=sum(agent.fallbacks for agent in agents),
        rebalances=(leader.rebalances_computed
                    + standby.rebalances_computed),
        tokens_shifted=leader.tokens_shifted + standby.tokens_shifted,
        updates_received=sum(a.updates_received for a in agents),
        puts_acked=run.puts_acked(),
        partitions_cut=injector.partitions_cut,
        slowdowns_applied=injector.slowdowns_applied,
        ledger_totals=run.ledger_totals(),
    )


# ---------------------------------------------------------------------------
# policy: the committed revision-2 flip hot-swapped mid-failover
# ---------------------------------------------------------------------------
def _policy_flip(run: SkewChaosRun) -> None:
    # The takeover epoch is deterministic given the plan.  Submitting
    # half a period before that epoch's compute ticks puts the flip in
    # front of *both* coordinators at once — the deposed leader pushes
    # it with its stale term (lagged past the new leader's push by the
    # plan's delay rule), which is exactly the race fencing must win.
    service = attach_policy_service(run.cluster)
    run.flip_epoch = run.takeover_bound()
    run.flip = load_policy(FLIP_DOCUMENT)
    epoch_len = run.rebalance_periods * run.period
    run.cluster.sim.schedule_at(
        run.flip_epoch * epoch_len - 0.5 * run.period, service.submit,
        run.flip,
    )


def _policy_fencing(run: SkewChaosRun) -> List[str]:
    standby = run.cluster.standby
    agents = run.agents

    # 1. Bounded takeover, exactly once (the failover the flip rides).
    violations = _one_takeover(run, "")

    # 2. The flip applied exactly once per client, revision 2, from
    # the fenced winner — and the losing pushes were observed.
    for agent in agents:
        if agent.policy_applies != 1:
            violations.append(
                f"{agent.striped.name}: expected exactly one policy "
                f"apply, got {agent.policy_applies}"
            )
        if agent.policy_version_applied != run.flip.version:
            violations.append(
                f"{agent.striped.name}: revision "
                f"{agent.policy_version_applied} in force at run end, "
                f"expected {run.flip.version}"
            )
        if (standby.takeovers == 1 and agent.policy_keys_applied
                and agent.policy_keys_applied[0][0] != standby.term):
            violations.append(
                f"{agent.striped.name}: applied policy from term "
                f"{agent.policy_keys_applied[0][0]}, acting leader's "
                f"term is {standby.term} (stale source)"
            )
    violations.extend(str(v) for v in check_no_stale_policy([
        (agent.striped.name, agent.policy_keys_applied)
        for agent in agents
    ]))
    if sum(a.policy_fenced for a in agents) < 1:
        violations.append(
            "no client ever fenced the deposed leader's policy push — "
            "the term check never fired despite the engineered lag race"
        )
    if sum(a.policy_stale_rejected for a in agents) < 1:
        violations.append(
            "no client ever rejected a re-pushed revision as stale — "
            "the per-epoch redundancy was never exercised"
        )

    # Split fencing must hold alongside the policy fencing.
    violations.extend(_split_fencing(run))

    # 3. Decrease-before-increase held: no node-side admission clamp
    # fired while the raise and the shrink crossed.
    clamped = sum(
        node.monitor.rebalance_clamped for node in run.cluster.nodes
    )
    if clamped:
        violations.append(
            f"admission clamped {clamped} mid-flip applies — the "
            "decrease-before-increase ordering let a transient "
            "over-reservation through"
        )
    return violations


def _policy_took(run: SkewChaosRun) -> List[str]:
    violations = []
    ledger = run.ledger
    if ledger is not None:
        # 4. (after the shared ledger audits) The applies landed in the
        # ledger, one per client.
        applies_logged = sum(
            1 for e in ledger.events if e.get("event") == "policy_apply"
        )
        if applies_logged != len(run.agents):
            violations.append(
                f"ledger recorded {applies_logged} policy_apply events "
                f"for {len(run.agents)} clients"
            )

    # 5. The policy took: final aggregates equal the lowered targets
    # and limited classes carry their caps (reservations met under the
    # *new* policy is the shared tail's last check).
    service = run.cluster.policy_service
    for striped in run.cluster.clients:
        want = service._targets.get(striped.index)
        if want is None:
            continue
        reservation, limit = want
        if striped.aggregate_reservation != reservation:
            violations.append(
                f"{striped.name}: aggregate {striped.aggregate_reservation} "
                f"at run end, policy says {reservation}"
            )
        agent = run.agents[striped.index]
        if limit > 0 and not agent._policy_limits:
            violations.append(
                f"{striped.name}: policy limit {limit} never installed "
                "on the engines"
            )
        if limit == 0 and agent._policy_limits:
            violations.append(
                f"{striped.name}: unexpected policy limits "
                f"{agent._policy_limits} (policy sets none)"
            )
    return violations


def _policy_report(run: SkewChaosRun, violations) -> PolicyChaosReport:
    leader = run.cluster.coordinator
    standby = run.cluster.standby
    service = run.cluster.policy_service
    agents = run.agents
    return PolicyChaosReport(
        seed=run.seed,
        periods=run.periods,
        violations=violations,
        flip_epoch=run.flip_epoch,
        submitted_version=service.active_version,
        takeovers=standby.takeovers,
        takeover_epoch=standby.takeover_epoch,
        policy_applies=sum(a.policy_applies for a in agents),
        policy_fenced=sum(a.policy_fenced for a in agents),
        policy_stale_rejected=sum(a.policy_stale_rejected for a in agents),
        policy_pushes=service.pushes_sent,
        rebalances=(leader.rebalances_computed
                    + standby.rebalances_computed),
        puts_acked=run.puts_acked(),
        ledger_totals=run.ledger_totals(),
    )


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------
SKEW_CHAOS: Dict[str, SkewChaosHarness] = {
    h.name: h
    for h in (
        SkewChaosHarness(
            name="coord",
            periods=18,
            ha=False,
            plan=coord_chaos_plan,
            checks=(
                _coord_ladder,
                _puts_durable,
                _ledger_audits(check_ledger_conservation,
                               check_split_conservation),
                _reservations_met,
                _coord_fallback_target,
            ),
            report=_coord_report,
            mode="chaos",
            columns=(
                ("fallbacks", "fallbacks"),
                ("rebalances", "rebalances"),
                ("tokens shifted", "tokens_shifted"),
                ("epochs skipped", "epochs_skipped"),
                ("puts acked", "puts_acked"),
                ("rebinds", "rebinds"),
            ),
            summary="seeds passed ({periods} periods, coordinator crash "
                    "+ drop storm)",
        ),
        SkewChaosHarness(
            name="partition",
            periods=36,
            ha=True,
            plan=partition_chaos_plan,
            checks=(
                _partition_failover,
                _puts_durable,
                _ledger_audits(check_ledger_conservation,
                               check_split_conservation,
                               check_quarantine_audit),
                _reservations_met,
            ),
            report=_partition_report,
            mode="partition-chaos",
            columns=(
                ("takeover epoch", "takeover_epoch"),
                ("fenced", "fenced_updates"),
                ("stale", "stale_rejected"),
                ("quar/unquar",
                 lambda r: f"{r.quarantines}/{r.unquarantines}"),
                ("fallbacks", "fallbacks"),
                ("puts acked", "puts_acked"),
            ),
            summary="seeds passed ({periods} periods, asymmetric "
                    "partition + failover + fail-slow)",
        ),
        SkewChaosHarness(
            name="policy",
            periods=36,
            ha=True,
            plan=partition_chaos_plan,
            actions=_policy_flip,
            checks=(
                _policy_fencing,
                _puts_durable,
                _ledger_audits(check_ledger_conservation,
                               check_split_conservation,
                               check_quarantine_audit,
                               check_policy_audit),
                _policy_took,
                _reservations_met,
            ),
            report=_policy_report,
            mode="policy-flip-chaos",
            columns=(
                ("flip epoch", "flip_epoch"),
                ("takeover epoch", "takeover_epoch"),
                ("applies", "policy_applies"),
                ("fenced", "policy_fenced"),
                ("stale", "policy_stale_rejected"),
                ("puts acked", "puts_acked"),
            ),
            summary="seeds hot-swapped the policy mid-failover with "
                    "clean conservation audits ({periods} periods)",
        ),
    )
}


def run_coord_chaos(
    seed: int,
    periods: int = 18,
    rebalance_periods: int = 2,
    fallback_after: int = 2,
    puts_per_period: int = 6,
    scale: Optional[SimScale] = None,
) -> CoordChaosReport:
    """One seeded coordinator-chaos run; returns the invariant verdict."""
    return _run_skew_chaos(
        SKEW_CHAOS["coord"], seed, periods=periods,
        rebalance_periods=rebalance_periods, fallback_after=fallback_after,
        puts_per_period=puts_per_period, scale=scale,
    )[0]


def run_partition_chaos(
    seed: int,
    periods: int = 36,
    rebalance_periods: int = 2,
    fallback_after: int = 2,
    takeover_after: int = 2,
    puts_per_period: int = 6,
    scale: Optional[SimScale] = None,
) -> PartitionChaosReport:
    """One seeded partition/failover-chaos run; returns the verdict."""
    return _run_skew_chaos(
        SKEW_CHAOS["partition"], seed, periods=periods,
        rebalance_periods=rebalance_periods, fallback_after=fallback_after,
        takeover_after=takeover_after, puts_per_period=puts_per_period,
        scale=scale,
    )[0]


def run_policy_chaos(
    seed: int,
    periods: int = 36,
    rebalance_periods: int = 2,
    fallback_after: int = 2,
    takeover_after: int = 2,
    puts_per_period: int = 6,
    scale: Optional[SimScale] = None,
) -> PolicyChaosReport:
    """One seeded policy-flip chaos run; returns the verdict."""
    return _run_skew_chaos(
        SKEW_CHAOS["policy"], seed, periods=periods,
        rebalance_periods=rebalance_periods, fallback_after=fallback_after,
        takeover_after=takeover_after, puts_per_period=puts_per_period,
        scale=scale,
    )[0]
