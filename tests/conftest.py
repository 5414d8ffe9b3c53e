"""Shared fixtures: a fresh simulator, small wired deployments, and the
session's memoised chaos runs and determinism digests."""

from __future__ import annotations

import pytest

from repro.kvstore import DataNode, KVClient
from repro.rdma import Fabric, Host, NICProfile
from repro.rdma.cpu import CPUProfile
from repro.rdma.dispatch import TypeDispatcher
from repro.sim import Simulator


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


class MiniCluster:
    """One server + N bare clients on a fabric (no QoS), for RDMA/KV tests."""

    def __init__(self, sim: Simulator, num_clients: int = 1, num_slots: int = 64,
                 materialize: bool = True):
        self.sim = sim
        self.fabric = Fabric(sim)
        profile = NICProfile.chameleon()
        self.server = self.fabric.add_host(
            Host(sim, "server", profile, CPUProfile())
        )
        self.node = DataNode(self.server, num_slots=num_slots, materialize=materialize)
        self.clients = []
        self.client_hosts = []
        self.server_qps = []
        for i in range(num_clients):
            host = self.fabric.add_host(Host(sim, f"c{i}", profile, CPUProfile()))
            qp_cs, qp_sc = self.fabric.connect(host, self.server)
            dispatcher = TypeDispatcher()
            host.set_rpc_handler(dispatcher)
            kv = KVClient(
                f"c{i}",
                qp_cs,
                dispatcher,
                layout=self.node.store.layout,
                data_rkey=self.node.store.region.rkey,
            )
            self.clients.append(kv)
            self.client_hosts.append(host)
            self.server_qps.append(qp_sc)


@pytest.fixture
def mini(sim) -> MiniCluster:
    """A 1-client mini deployment with a materialized 64-slot store."""
    return MiniCluster(sim)


@pytest.fixture
def mini4(sim) -> MiniCluster:
    """A 4-client mini deployment."""
    return MiniCluster(sim, num_clients=4)


class ChaosRuns:
    """Chaos reports and determinism digests, each simulated once a session.

    ``report(harness, seed)`` runs a chaos harness (``recovery`` or a
    :data:`~repro.globalqos.chaos.SKEW_CHAOS` row); ``digest(family,
    seed)`` runs a :data:`~repro.cluster.determinism.FAMILIES` row.  A
    family built on a chaos harness hands back that harness's report
    too, so the invariant tests, the digest tests and the chaos pins
    share one simulation per (harness, seed).  Only reports and digest
    dicts are kept, never a cluster: a partition-chaos cluster peaks at
    about 124 MB.
    """

    def __init__(self):
        self._reports = {}
        self._digests = {}

    def report(self, harness: str, seed: int):
        from repro.cluster.determinism import FAMILIES

        key = (harness, seed)
        if key not in self._reports:
            for name, family in FAMILIES.items():
                if family.harness == harness and seed in family.seeds:
                    self.digest(name, seed)
                    break
            else:
                self._reports[key] = self._run(harness, seed)
        return self._reports[key]

    def digest(self, family: str, seed: int):
        from repro.cluster.determinism import FAMILIES

        key = (family, seed)
        if key not in self._digests:
            row = FAMILIES[family]
            report, self._digests[key] = row.run(seed)
            if row.harness is not None:
                self._reports[(row.harness, seed)] = report
        return self._digests[key]

    @staticmethod
    def _run(harness: str, seed: int):
        if harness == "recovery":
            from repro.recovery.chaos import run_chaos

            return run_chaos(seed)
        from repro.globalqos.chaos import SKEW_CHAOS, _run_skew_chaos

        return _run_skew_chaos(SKEW_CHAOS[harness], seed)[0]


@pytest.fixture(scope="session")
def chaos_runs() -> ChaosRuns:
    """The session-wide :class:`ChaosRuns` memo."""
    return ChaosRuns()
