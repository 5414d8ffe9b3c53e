"""Boundary-semantics audit for ``run(until=...)`` / ``schedule_at``.

These tests pin the event-loop contract the whole reproduction's
determinism rests on (see DESIGN.md, "Performance"):

- an event scheduled at exactly ``now`` is legal and runs in schedule
  (seq) order among same-timestamp events,
- ``run(until=t)`` executes *every* event with timestamp <= t —
  including events scheduled at exactly ``t`` by callbacks running at
  ``t`` — and leaves ``now == t``,
- splitting one run into ``run(until=...)`` windows executes the exact
  same callback sequence as a single drain (what licenses the
  experiment runner's warmup/measurement split).

The audit that produced this file found the semantics sound; the tests
exist so any future event-loop surgery (e.g. the hot-path rewrite of
``Simulator.run``) cannot silently violate them.
"""

import pytest

from repro.sim import Simulator


class TestScheduleAtNow:
    def test_schedule_at_exactly_now_is_accepted(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.now == 1.0
        fired = []
        sim.schedule_at(1.0, fired.append, "at-now")
        sim.run()
        assert fired == ["at-now"]
        assert sim.now == 1.0

    def test_events_at_now_keep_schedule_order(self, sim):
        order = []
        sim.schedule(1.0, lambda: sim.schedule_at(1.0, order.append, "x"))
        sim.schedule(1.0, order.append, "a")
        sim.schedule(1.0, order.append, "b")
        sim.run()
        # a and b were scheduled before x existed; x was scheduled by the
        # first callback, so it runs after every earlier-seq event at 1.0.
        assert order == ["a", "b", "x"]

    def test_zero_delay_chains_run_within_one_timestamp(self, sim):
        order = []

        def chain(n):
            order.append(n)
            if n < 3:
                sim.schedule(0.0, chain, n + 1)

        sim.schedule(2.0, chain, 0)
        sim.schedule(2.0, order.append, "peer")
        sim.run(until=2.0)
        # Each link is scheduled during its parent, so the pre-existing
        # same-time peer runs between the first link and the rest.
        assert order == [0, "peer", 1, 2, 3]
        assert sim.now == 2.0


class TestRunUntilBoundary:
    def test_event_scheduled_at_until_during_run_executes(self, sim):
        fired = []
        sim.schedule(5.0, lambda: sim.schedule_at(5.0, fired.append, "late"))
        sim.run(until=5.0)
        assert fired == ["late"]
        assert sim.now == 5.0

    def test_run_until_now_runs_due_events_and_is_idempotent(self, sim):
        sim.schedule(3.0, lambda: None)
        sim.run()
        fired = []
        sim.schedule_at(3.0, fired.append, 1)
        sim.run(until=3.0)
        assert fired == [1]
        sim.run(until=3.0)  # nothing due: a no-op, now unchanged
        assert sim.now == 3.0

    def test_events_after_until_are_untouched(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        sim.schedule(2.0 + 1e-12, fired.append, "beyond")
        sim.run(until=2.0)
        assert fired == [1, 2]
        assert sim.peek() == 2.0 + 1e-12

    def test_run_until_in_past_rejected_even_by_epsilon(self, sim):
        sim.schedule(4.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.run(until=4.0 - 1e-12)

    def test_timeout_zero_fires_within_run_until_now(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        got = []
        sim.schedule(0.0, got.append, "v")
        sim.run(until=1.0)
        assert got == ["v"]


class TestWindowedRunsMatchSingleDrain:
    """run(until) windows must not perturb execution order."""

    @staticmethod
    def _workload(sim, log):
        # Three interleaved tickers with colliding timestamps plus a
        # same-time re-scheduler: a dense tie-breaking workload.
        def ticker(tag, interval, n):
            log.append((sim.now, tag, n))
            if n < 8:
                sim.schedule(interval, ticker, tag, interval, n + 1)

        sim.schedule(0.0, ticker, "a", 0.5, 0)
        sim.schedule(0.0, ticker, "b", 0.25, 0)
        sim.schedule(1.0, ticker, "c", 0.5, 0)
        sim.schedule(1.0, lambda: sim.schedule_at(1.0, log.append, "inline"))

    def test_chunked_run_equals_full_drain(self):
        full, chunked = [], []
        sim1 = Simulator()
        self._workload(sim1, full)
        sim1.run()

        sim2 = Simulator()
        self._workload(sim2, chunked)
        for upto in (0.3, 1.0, 1.0, 2.2, 3.7):
            sim2.run(until=upto)
        sim2.run()
        assert chunked == full
        assert sim1.now == sim2.now
