"""Performance regression guard: GC-tracked objects per op.

CPython's cyclic collector runs after every ~700 net allocations of
GC-tracked objects (instances, tuples holding them, closures, cells,
bound methods) and scans every tracked object it promotes, so the
objects an op keeps alive while it is queued or in flight set the
collector's cost.  The datapath's contract (see DESIGN.md, "Hot path"):

- a one-sided GET in flight owns its WorkRequest, one heap entry and
  that entry's argument tuple — no closure, cell or bound method (the
  completion handler is bound once per client and the caller's callback
  rides on the WR context);
- a request queued in a QoS engine behind one with the same callback,
  and without a telemetry span, owns no tracked object at all.

Counts are exact: the collector is paused while ops are posted, so the
delta of ``len(gc.get_objects())`` is the number of tracked objects the
ops allocated and still hold.  Like ``test_event_budget.py``, these pin
budgets so that an accidental per-op allocation fails loudly.
"""

import gc

import pytest

from repro.cluster.builder import build_cluster
from repro.cluster.scale import SimScale
from repro.common.types import QoSMode
from repro.workloads.app import BurstApp, constant_demand

N = 1000
SCALE = SimScale(factor=1000, interval_divisor=50)


def tracked_per_op(action, n=N):
    """Tracked objects allocated and kept alive per call of ``action``."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for i in range(n):
            action(i)
        after = len(gc.get_objects())
    finally:
        if was_enabled:
            gc.enable()
    return (after - before) / n


def _noop(ok, value, latency):
    pass


@pytest.mark.parametrize("touch_memory", [False, True])
def test_in_flight_onesided_get_holds_at_most_three_objects(mini, touch_memory):
    kv = mini.clients[0]
    kv.get_onesided(0, _noop, touch_memory=touch_memory)  # warm-up
    per_op = tracked_per_op(
        lambda i: kv.get_onesided(i % 64, _noop, touch_memory=touch_memory)
    )
    # WR + heap entry + its args tuple (parent: 6.99 and 8.00).
    assert per_op <= 3
    done = []
    kv.get_onesided(1, lambda ok, v, l: done.append((ok, v)),
                    touch_memory=touch_memory)
    mini.sim.run()
    assert done and done[0][0] is True


def haechi_engine(reservation_ops=100_000):
    cluster = build_cluster(1, QoSMode.HAECHI,
                            reservations_ops=[reservation_ops], scale=SCALE)
    return cluster, cluster.clients[0].engine


def test_queued_request_with_shared_callback_holds_no_object():
    cluster, engine = haechi_engine()
    # Not started: no period has granted tokens, so every submit queues
    # (the first one also posts a pool FAA, which is not counted).
    engine.submit(0, _noop)
    per_op = tracked_per_op(lambda i: engine.submit(i % 64, _noop))
    assert per_op == 0  # parent: 1.0
    assert engine.queue_depth == N + 1


def test_queue_keeps_fifo_order_across_callback_runs():
    cluster, engine = haechi_engine()
    seen = []

    def make(tag):
        return lambda ok, value, latency: seen.append(tag)

    first, second = make("a"), make("b")
    order = [first, first, second, first, second, second]
    for key, cb in enumerate(order):
        engine.submit(key, cb)
    assert engine.queue_depth == len(order)
    cluster.start()
    cluster.sim.run(until=cluster.config.period)
    assert engine.queue_depth == 0
    assert seen == ["a", "a", "b", "a", "b", "b"]


def test_in_flight_engine_get_holds_at_most_three_objects():
    cluster, engine = haechi_engine(reservation_ops=300_000)
    cluster.start()
    sim = cluster.sim
    while engine.period_id == 0:  # up to the first period start
        sim.step()
    engine.submit(0, _noop)  # warm-up
    issued = engine.issued_this_period
    per_op = tracked_per_op(lambda i: engine.submit(i % 64, _noop), n=200)
    assert engine.issued_this_period - issued == 200  # all token-backed
    assert per_op <= 3


def test_completion_gated_burst_app_builds_no_per_op_wrapper():
    cluster, engine = haechi_engine()
    qp = engine.kv.qp
    handlers, contexts = [], []
    post = qp.post_send

    def recording_post(wr):
        if not wr.control:
            handlers.append(wr.on_completion)
            contexts.append(wr.context)
        return post(wr)

    qp.post_send = recording_post
    period = cluster.config.period
    app = BurstApp(
        cluster.sim, "C1", engine.submit, key_fn=lambda: 7,
        demand_fn=constant_demand(400), period=period, window=8,
    )
    cluster.start()
    cluster.sim.run(until=3 * period)
    assert len(handlers) > 200
    # Kept alive in the lists, per-op wrappers would have distinct ids.
    assert len({id(h) for h in handlers}) == 1
    assert len({id(c) for c in contexts}) == 1
    assert app.total_completed > 200
