"""Unit tests for the PCIe DMA pipeline."""

import pytest

from repro.faults import FaultPlan, FaultSpec, faulted
from repro.pcie import DmaPipeline, PcieConfig
from repro.sim import Simulator


def make_pipe(sim, lanes, begin, finish=None, config=None):
    return DmaPipeline(
        sim,
        config or PcieConfig(),
        lanes,
        begin,
        finish if finish is not None else (lambda item: None),
    )


def test_wire_time_and_tlp_split():
    config = PcieConfig(gbps=128.0, max_payload_bytes=256)
    assert config.wire_ns(4096) == pytest.approx(256.0)
    assert config.transactions(4096) == 16
    assert config.transactions(64) == 1
    assert config.transactions(257) == 2
    assert config.transactions(0) == 0


def test_single_lane_serializes_dmas():
    sim = Simulator()
    finished = []
    pipe = make_pipe(
        sim,
        1,
        lambda start, item: start + 100.0,
        lambda item: finished.append((item, sim.now)),
    )
    for index in range(3):
        pipe.submit(4096, index)
    sim.run()
    assert finished == [(0, 100.0), (1, 200.0), (2, 300.0)]
    assert pipe.completed_dmas == 3
    assert pipe.completed_bytes == 3 * 4096


def test_multi_lane_overlaps_latency():
    sim = Simulator()
    finished = []
    pipe = make_pipe(
        sim,
        2,
        lambda start, item: start + 100.0,
        lambda item: finished.append(sim.now),
    )
    for index in range(4):
        pipe.submit(64, index)
    sim.run()
    assert finished == [100.0, 100.0, 200.0, 200.0]


def test_begin_runs_at_start_time_not_submit_time():
    """Probes must happen when the DMA starts, so that invalidations by
    earlier completions interleave correctly."""
    sim = Simulator()
    begins = []

    def begin(start, item):
        begins.append((item, start))
        return start + 50.0

    pipe = make_pipe(sim, 1, begin)
    pipe.submit(64, "a")
    pipe.submit(64, "b")
    sim.run()
    assert begins == [("a", 0.0), ("b", 50.0)]


def test_shared_wire_caps_aggregate_rate():
    """Even with 4 lanes, the wire serializer admits at most link rate."""
    sim = Simulator()
    finished = []
    pipe = make_pipe(
        sim,
        4,
        lambda start, size: pipe.reserve_wire(start, size),
        lambda size: finished.append(sim.now),
        config=PcieConfig(gbps=128.0),
    )
    for _ in range(8):
        pipe.submit(4096, 4096)
    sim.run()
    # 8 * 4096 B at 128 Gbps = 8 * 256 ns = 2048 ns minimum.
    assert finished[-1] >= 2048.0 - 1e-6


def test_backwards_completion_rejected():
    sim = Simulator()
    pipe = make_pipe(sim, 1, lambda start, item: start - 1.0)
    with pytest.raises(ValueError):
        # A free lane starts the DMA synchronously; the bogus begin()
        # is caught immediately.
        pipe.submit(64, None)


def test_backwards_completion_rejected_when_dequeued():
    # The check also guards DMAs that waited for a lane: the second
    # DMA starts from the first one's completion event.
    sim = Simulator()
    pipe = make_pipe(
        sim, 1, lambda start, item: start + 10.0 if item else start - 1.0
    )
    pipe.submit(64, True)
    pipe.submit(64, False)
    with pytest.raises(ValueError):
        sim.run()


def test_queue_depth_reporting():
    sim = Simulator()
    pipe = make_pipe(sim, 1, lambda start, item: start + 10.0)
    for index in range(3):
        pipe.submit(64, index)
    assert pipe.inflight == 1
    assert pipe.queued == 2


def test_zero_lanes_rejected():
    with pytest.raises(ValueError):
        make_pipe(Simulator(), 0, lambda start, item: start)


def test_held_and_replayed_dmas_finish_their_own_items_in_fifo_order():
    plan = FaultPlan(
        seed=1,
        name="flap-and-replay",
        specs=(
            # The link is down over [0, 500): the first DMA is held.
            FaultSpec("pcie", "link-flap", 0.0, 500.0),
            # Every DMA starting in [600, 1000) eats a 300 ns replay.
            FaultSpec(
                "pcie", "nack-replay", 600.0, 1_000.0, magnitude=300.0
            ),
        ),
    )
    sim = Simulator()
    begins = []
    finished = []

    def begin(start, item):
        begins.append((item, start))
        return start + 100.0

    with faulted(plan) as runtime:
        runtime.bind_clock(sim)
        pipe = make_pipe(
            sim, 1, begin, lambda item: finished.append((item, sim.now))
        )
    for item in ("held", "replayed", "clean"):
        pipe.submit(64, item)
    sim.run()
    assert pipe.held_dmas == 1
    assert pipe.replayed_dmas == 1
    # "held" starts when the link retrains; "replayed" starts at its
    # completion inside the replay window; "clean" starts after the
    # window closed.
    assert begins == [("held", 500.0), ("replayed", 600.0), ("clean", 1000.0)]
    assert finished == [
        ("held", 600.0),
        ("replayed", 1000.0),
        ("clean", 1100.0),
    ]
