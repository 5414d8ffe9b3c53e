"""Pipeline, Semaphore and TokenBucket behaviour."""

import pytest

from repro.sim import Pipeline, Semaphore, TokenBucket


class TestPipeline:
    def test_idle_pipeline_serves_immediately(self, sim):
        pipe = Pipeline(sim)
        assert pipe.submit(2.0) == 2.0

    def test_busy_pipeline_queues_fifo(self, sim):
        pipe = Pipeline(sim)
        assert pipe.submit(2.0) == 2.0
        assert pipe.submit(3.0) == 5.0
        assert pipe.submit(1.0) == 6.0

    def test_pipeline_idles_then_resumes(self, sim):
        pipe = Pipeline(sim)
        pipe.submit(1.0)
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert pipe.submit(1.0) == 6.0

    def test_backlog_reports_queued_work(self, sim):
        pipe = Pipeline(sim)
        pipe.submit(4.0)
        assert pipe.backlog == 4.0

    def test_negative_cost_rejected(self, sim):
        with pytest.raises(ValueError):
            Pipeline(sim).submit(-1.0)

    def test_utilization_tracks_busy_fraction(self, sim):
        pipe = Pipeline(sim)
        pipe.submit(2.0)
        sim.schedule(4.0, lambda: None)
        sim.run()
        assert pipe.utilization() == pytest.approx(0.5)

    def test_charge_completes_now_plus_cost(self, sim):
        pipe = Pipeline(sim)
        pipe.submit(10.0)
        assert pipe.charge(0.5) == 0.5  # skips the bulk queue

    def test_charge_consumes_capacity(self, sim):
        pipe = Pipeline(sim)
        pipe.charge(1.0)
        assert pipe.submit(2.0) == 3.0  # bulk work starts after the charge

    def test_reset_accounting_zeroes_busy(self, sim):
        pipe = Pipeline(sim)
        pipe.submit(2.0)
        sim.schedule(2.0, lambda: None)
        sim.run()
        pipe.reset_accounting()
        assert pipe.utilization(since=0.0) == 0.0


class TestPipelineVirtualTime:
    """submit_at / pause_until: the fabric model's congestion edges."""

    def test_submit_at_waits_for_future_arrival(self, sim):
        pipe = Pipeline(sim)
        assert pipe.submit_at(5.0, 1.0) == 6.0
        # The pipeline is committed into the future for ordinary work too.
        assert pipe.submit(1.0) == 7.0

    def test_submit_at_serializes_behind_queued_work(self, sim):
        pipe = Pipeline(sim)
        pipe.submit(2.0)
        assert pipe.submit_at(1.0, 1.0) == 3.0  # arrival before free time

    def test_pause_extends_free_time_without_busy_accrual(self, sim):
        pipe = Pipeline(sim)
        pipe.pause_until(4.0)
        assert pipe.free_at == 4.0
        sim.schedule(4.0, lambda: None)
        sim.run()
        assert pipe.utilization() == 0.0  # pause is idle, not service

    def test_pause_never_shrinks(self, sim):
        pipe = Pipeline(sim)
        pipe.submit(3.0)
        pipe.pause_until(1.0)  # earlier than free: a no-op
        assert pipe.submit(1.0) == 4.0

    def test_zero_cost_submit_at_pause_boundary(self, sim):
        # The PFC edge: a frame handed over exactly when the pause lifts
        # starts (and, at zero cost, finishes) at the boundary itself.
        pipe = Pipeline(sim)
        pipe.pause_until(2.0)
        assert pipe.submit_at(2.0, 0.0) == 2.0

    def test_zero_cost_submit_before_boundary_is_held(self, sim):
        pipe = Pipeline(sim)
        pipe.pause_until(2.0)
        assert pipe.submit_at(1.0, 0.0) == 2.0


class TestTokenBucket:
    def test_starts_full_so_burst_is_free(self):
        bucket = TokenBucket(rate=1.0, burst=4.0)
        assert bucket.acquire(4.0, 0.0) == 0.0

    def test_deficit_pushes_ready_time(self):
        bucket = TokenBucket(rate=2.0, burst=2.0)
        assert bucket.acquire(2.0, 0.0) == 0.0
        # 3 tokens short, refilling at 2/s: ready 1.5 s out.
        assert bucket.acquire(3.0, 0.0) == pytest.approx(1.5)
        assert bucket.tokens == 0.0

    def test_back_to_back_acquires_serialize_at_rate(self):
        # The regression the fabric buckets depend on: an empty bucket
        # hands out successive tokens 1/rate apart even when the
        # caller's clock lags the bucket's own timeline — a rate limit,
        # not a flat per-token latency.
        bucket = TokenBucket(rate=2.0, burst=1.0)
        bucket.acquire(1.0, 0.0)
        assert [bucket.acquire(1.0, 0.0) for _ in range(3)] == pytest.approx(
            [0.5, 1.0, 1.5]
        )

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        bucket.acquire(2.0, 0.0)
        assert bucket.acquire(2.0, 100.0) == 100.0  # refilled, but only to 2
        assert bucket.acquire(1.0, 100.0) == pytest.approx(101.0)

    def test_stale_at_refills_nothing(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        assert bucket.acquire(2.0, 10.0) == 10.0
        # An out-of-order caller earns no refill and queues behind the
        # bucket's timeline.
        assert bucket.acquire(1.0, 5.0) == pytest.approx(11.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


class TestSemaphore:
    def test_try_acquire_until_exhausted(self, sim):
        sem = Semaphore(sim, 2)
        assert sem.try_acquire()
        assert sem.try_acquire()
        assert not sem.try_acquire()
        assert sem.in_use == 2

    def test_acquire_blocks_until_release(self, sim):
        sem = Semaphore(sim, 1)
        assert sem.acquire().triggered
        waiter = sem.acquire()
        assert not waiter.triggered
        sem.release()
        assert waiter.triggered

    def test_waiters_wake_fifo(self, sim):
        sem = Semaphore(sim, 1)
        sem.acquire()
        first = sem.acquire()
        second = sem.acquire()
        sem.release()
        assert first.triggered and not second.triggered

    def test_over_release_raises(self, sim):
        sem = Semaphore(sim, 1)
        with pytest.raises(RuntimeError):
            sem.release()

    def test_capacity_must_be_positive(self, sim):
        with pytest.raises(ValueError):
            Semaphore(sim, 0)

    def test_release_transfers_slot_to_waiter_without_freeing(self, sim):
        # The SQ-accounting invariant: a release with a queue hands the
        # slot straight to the oldest waiter — available stays 0, so
        # in_use is conserved and over-release still trips the guard.
        sem = Semaphore(sim, 1)
        sem.acquire()
        waiter = sem.acquire()
        sem.release()
        assert waiter.triggered
        assert sem.available == 0 and sem.in_use == 1
        sem.release()  # the transferred slot comes back normally
        assert sem.available == 1
        with pytest.raises(RuntimeError):
            sem.release()
