"""Unit tests for queues, pipelines, and pacers."""

import pytest

from repro.sim import FifoQueue, Simulator, TokenBucketPacer


class TestFifoQueue:
    def test_enqueue_dequeue_order(self):
        q = FifoQueue(capacity_bytes=100)
        assert q.try_enqueue("a", 10)
        assert q.try_enqueue("b", 20)
        assert q.dequeue() == ("a", 10)
        assert q.dequeue() == ("b", 20)
        assert q.dequeue() is None

    def test_tail_drop_on_overflow(self):
        q = FifoQueue(capacity_bytes=25)
        assert q.try_enqueue("a", 10)
        assert q.try_enqueue("b", 10)
        assert not q.try_enqueue("c", 10)
        assert q.dropped_items == 1
        assert q.dropped_bytes == 10
        assert len(q) == 2

    def test_occupancy_tracks_bytes(self):
        q = FifoQueue(capacity_bytes=100)
        q.try_enqueue("a", 30)
        q.try_enqueue("b", 40)
        assert q.occupancy_bytes == 70
        q.dequeue()
        assert q.occupancy_bytes == 40

    def test_peak_occupancy(self):
        q = FifoQueue(capacity_bytes=100)
        q.try_enqueue("a", 60)
        q.dequeue()
        q.try_enqueue("b", 30)
        assert q.peak_occupancy_bytes == 60

    def test_ecn_marking_threshold(self):
        q = FifoQueue(capacity_bytes=100, ecn_threshold_bytes=50)
        q.try_enqueue("a", 40)
        assert not q.should_mark()
        q.try_enqueue("b", 20)
        assert q.should_mark()

    def test_no_threshold_never_marks(self):
        q = FifoQueue(capacity_bytes=100)
        q.try_enqueue("a", 99)
        assert not q.should_mark()

    def test_drop_fraction(self):
        q = FifoQueue(capacity_bytes=10)
        q.try_enqueue("a", 10)
        q.try_enqueue("b", 10)
        assert q.drop_fraction == pytest.approx(0.5)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            FifoQueue(capacity_bytes=0)


class TestTokenBucketPacer:
    def test_serializes_at_line_rate(self):
        sim = Simulator()
        pacer = TokenBucketPacer(sim, rate_gbps=100.0)  # 100 bits/ns
        times = []
        # 4000-byte packet = 32000 bits = 320 ns of wire time.
        pacer.send(4000, lambda: times.append(sim.now))
        pacer.send(4000, lambda: times.append(sim.now))
        sim.run()
        assert times == [320.0, 640.0]

    def test_idle_restart_from_now(self):
        sim = Simulator()
        pacer = TokenBucketPacer(sim, rate_gbps=100.0)
        times = []
        pacer.send(1000, lambda: times.append(sim.now))
        sim.run()
        assert times == [80.0]
        # After idling, the next send starts from "now", not the old
        # serializer booking: scheduled at t=1080, delivered at 1160.
        sim.call_after(
            1000.0, lambda: pacer.send(1000, lambda: times.append(sim.now))
        )
        sim.run()
        assert times[1] == pytest.approx(1080.0 + 80.0)

    def test_backlog_reporting(self):
        sim = Simulator()
        pacer = TokenBucketPacer(sim, rate_gbps=1.0)  # 1 bit/ns
        pacer.send(125, lambda: None)  # 1000 bits = 1000 ns
        assert pacer.backlog_ns == pytest.approx(1000.0)
