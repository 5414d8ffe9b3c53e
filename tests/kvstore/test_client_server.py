"""End-to-end KV paths: one-sided and two-sided GET/PUT, handshake."""

import pytest

from repro.common.errors import StoreError
from repro.kvstore.records import encode_record


def run(mini, until=0.01):
    mini.sim.run(until=mini.sim.now + until)


class TestHandshake:
    def test_connect_fetches_layout(self, sim, mini):
        kv = mini.clients[0]
        kv.layout = None
        kv.data_rkey = None
        done = []
        kv.connect(lambda: done.append(True))
        run(mini)
        assert done == [True]
        assert kv.layout.num_slots == 64
        assert kv.data_rkey == mini.node.store.region.rkey

    def test_unconnected_client_rejects_io(self, sim, mini):
        kv = mini.clients[0]
        kv.layout = None
        with pytest.raises(StoreError):
            kv.get_onesided(1, lambda *a: None)


class TestOneSidedPath:
    def test_get_returns_record(self, mini):
        out = {}
        mini.clients[0].get_onesided(
            5, lambda ok, val, lat: out.update(ok=ok, val=val, lat=lat)
        )
        run(mini)
        assert out["ok"]
        version, payload = out["val"]
        assert version == 1 and payload.startswith(b"value-5")
        assert out["lat"] > 0

    def test_get_timing_only(self, mini):
        out = {}
        mini.clients[0].get_onesided(
            5, lambda ok, val, lat: out.update(ok=ok, val=val), touch_memory=False
        )
        run(mini)
        assert out["ok"] and out["val"] is None

    def test_put_then_get_round_trip(self, mini):
        kv = mini.clients[0]
        done = {}
        kv.put_onesided(9, b"fresh", lambda ok, val, lat: done.update(ok=ok))
        run(mini)
        assert done["ok"]
        out = {}
        kv.get_onesided(9, lambda ok, val, lat: out.update(val=val))
        run(mini)
        _version, payload = out["val"]
        assert payload.startswith(b"fresh")

    def test_get_rejects_slot_holding_another_key(self, mini):
        # A record image for key 12 written into key 3's slot: the READ
        # of key 3 must fail its slot check, not return key 12's data.
        store = mini.node.store
        store.memory.backing.write(
            store.layout.slot_addr(3), encode_record(12, 1, b"stray")
        )
        out = {}
        mini.clients[0].get_onesided(
            3, lambda ok, val, lat: out.update(ok=ok, val=val)
        )
        run(mini)
        assert out == {"ok": False, "val": "bad slot key 12"}

    def test_put_requires_payload_when_touching(self, mini):
        with pytest.raises(StoreError):
            mini.clients[0].put_onesided(1, None, lambda *a: None)

    def test_key_out_of_range(self, mini):
        with pytest.raises(StoreError):
            mini.clients[0].get_onesided(64, lambda *a: None)

    def test_one_sided_get_never_touches_server_cpu(self, mini):
        before = mini.server.cpu.requests_served
        for key in range(10):
            mini.clients[0].get_onesided(key, lambda *a: None)
        run(mini)
        assert mini.server.cpu.requests_served == before


class TestTwoSidedPath:
    def test_get_returns_record(self, mini):
        out = {}
        mini.clients[0].get_twosided(
            7, lambda ok, val, lat: out.update(ok=ok, val=val)
        )
        run(mini)
        assert out["ok"]
        version, payload = out["val"]
        assert version == 1 and payload.startswith(b"value-7")

    def test_two_sided_consumes_server_cpu(self, mini):
        mini.clients[0].get_twosided(1, lambda *a: None)
        run(mini)
        assert mini.server.cpu.requests_served == 1

    def test_put_round_trip(self, mini):
        kv = mini.clients[0]
        out = {}
        kv.put_twosided(4, b"two-sided", lambda ok, val, lat: out.update(v=val))
        run(mini)
        assert out["v"] == 2  # version bumped from 1
        check = {}
        kv.get_twosided(4, lambda ok, val, lat: check.update(val=val))
        run(mini)
        assert check["val"][1].startswith(b"two-sided")

    def test_two_sided_slower_than_one_sided(self, mini):
        lat = {}
        mini.clients[0].get_onesided(1, lambda ok, v, l: lat.update(one=l))
        run(mini)
        mini.clients[0].get_twosided(1, lambda ok, v, l: lat.update(two=l))
        run(mini)
        assert lat["two"] > lat["one"]


class TestMultiClient:
    def test_clients_see_each_others_writes(self, mini4):
        writer, reader = mini4.clients[0], mini4.clients[1]
        done = {}
        writer.put_onesided(3, b"shared", lambda ok, v, l: done.update(ok=ok))
        mini4.sim.run(until=0.01)
        out = {}
        reader.get_onesided(3, lambda ok, v, l: out.update(val=v))
        mini4.sim.run(until=0.02)
        assert out["val"][1].startswith(b"shared")

    def test_interleaved_rpcs_route_to_right_clients(self, mini4):
        results = {}
        for i, kv in enumerate(mini4.clients):
            kv.get_twosided(i, lambda ok, val, lat, i=i: results.update({i: val}))
        mini4.sim.run(until=0.01)
        for i in range(4):
            assert results[i][1].startswith(f"value-{i}".encode())


class TestRpcDeadline:
    """Per-op deadlines sweep two-sided RPCs whose response never
    arrives, so `_pending_rpcs` cannot leak (and the caller cannot
    hang) across server crashes or dropped replies."""

    def test_lost_response_is_swept_and_fails(self, mini):
        kv = mini.clients[0]
        kv.rpc_deadline = 0.001
        # the server's reply path is dark: requests arrive, responses
        # are silently discarded (DataNode swallows the QPError)
        mini.server_qps[0].close()
        out = {}
        kv.get_twosided(1, lambda ok, v, l: out.update(ok=ok, err=v))
        run(mini)
        assert out == {"ok": False, "err": "rpc deadline exceeded"}
        assert kv.pending_rpc_count == 0
        assert kv.rpcs_timed_out == 1

    def test_pending_table_drains_under_sustained_loss(self, mini):
        kv = mini.clients[0]
        kv.rpc_deadline = 0.001
        mini.server_qps[0].close()
        failures = []
        for key in range(10):
            kv.put_twosided(key, b"x", lambda ok, v, l: failures.append(ok))
        run(mini)
        assert failures == [False] * 10
        assert kv.pending_rpc_count == 0
        assert kv.rpcs_timed_out == 10

    def test_late_response_after_sweep_is_ignored(self, mini):
        kv = mini.clients[0]
        # deadline far below the two-sided RTT: the sweep always wins
        kv.rpc_deadline = 1e-9
        outcomes = []
        kv.get_twosided(1, lambda ok, v, l: outcomes.append(ok))
        run(mini)
        # exactly one completion (the sweep); the real response that
        # arrived later found no pending entry and was dropped
        assert outcomes == [False]
        assert kv.rpcs_timed_out == 1
        assert kv.pending_rpc_count == 0

    def test_timely_response_wins_and_sweep_noops(self, mini):
        kv = mini.clients[0]
        kv.rpc_deadline = 0.05
        outcomes = []
        kv.get_twosided(1, lambda ok, v, l: outcomes.append(ok))
        run(mini, until=0.1)  # well past the deadline
        assert outcomes == [True]
        assert kv.rpcs_timed_out == 0
        assert kv.pending_rpc_count == 0
