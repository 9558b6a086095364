"""Unit tests for Rx descriptors and rings."""

import pytest

from repro.faults import FaultPlan, FaultSpec, faulted
from repro.host import Host, HostConfig
from repro.net.packet import Packet
from repro.nic import PageSlot, RxDescriptor, RxRing
from repro.sim import Simulator


def make_descriptor(pages=4, core=0):
    slots = [PageSlot(iova=i * 4096, frame=i) for i in range(pages)]
    return RxDescriptor(slots=slots, core=core)


class TestDescriptor:
    def test_take_page_consumes_in_order(self):
        desc = make_descriptor(3)
        assert desc.take_page().iova == 0
        assert desc.take_page().iova == 4096
        assert desc.free_pages == 1

    def test_exhausted_raises(self):
        desc = make_descriptor(1)
        desc.take_page()
        with pytest.raises(RuntimeError):
            desc.take_page()

    def test_complete_requires_dma_done(self):
        desc = make_descriptor(2)
        desc.take_page()
        desc.take_page()
        assert desc.is_exhausted
        assert not desc.is_complete
        desc.dma_done()
        assert not desc.is_complete
        desc.dma_done()
        assert desc.is_complete

    def test_dma_done_overflow_raises(self):
        desc = make_descriptor(2)
        desc.take_page()
        with pytest.raises(RuntimeError):
            desc.dma_done(2)


class TestRing:
    def test_take_pages_spans_descriptors(self):
        ring = RxRing(core=0)
        ring.post(make_descriptor(2))
        ring.post(make_descriptor(2))
        taken = ring.take_pages(3)
        assert len(taken) == 3
        assert taken[0][0] is not taken[2][0]
        assert ring.free_pages == 1

    def test_take_one_page_skips_exhausted_head(self):
        ring = RxRing(core=0)
        first, second = make_descriptor(1), make_descriptor(2)
        ring.post(first)
        ring.post(second)
        ((desc_a, slot_a),) = ring.take_pages(1)
        ((desc_b, slot_b),) = ring.take_pages(1)
        assert desc_a is first and desc_b is second
        assert slot_b is second.slots[0]
        assert first.dma_pending == second.dma_pending == 1
        assert ring.free_pages == 1

    def test_take_too_many_raises(self):
        ring = RxRing(core=0)
        ring.post(make_descriptor(2))
        with pytest.raises(RuntimeError):
            ring.take_pages(3)

    def test_pop_completed_only_leading(self):
        ring = RxRing(core=0)
        first, second = make_descriptor(1), make_descriptor(1)
        ring.post(first)
        ring.post(second)
        taken = ring.take_pages(2)
        # Complete the second only: nothing pops (FIFO retirement).
        second.dma_done()
        assert ring.pop_completed() == []
        first.dma_done()
        popped = ring.pop_completed()
        assert popped == [first, second]
        assert ring.completed_descriptors == 2
        assert taken

    def test_head(self):
        ring = RxRing(core=0)
        assert ring.head() is None
        desc = make_descriptor(1)
        ring.post(desc)
        assert ring.head() is desc


def make_host(**overrides):
    """A one-core passthrough host whose datapath the tests drive."""
    config = HostConfig.cascade_lake(mode="off", num_cores=1, **overrides)
    sim = Simulator()
    return sim, Host(sim, config, wire_out=lambda packet: None)


class TestNic:
    """Admission and DMA order through ``Host.packet_from_wire``."""

    def test_offer_requires_ring_pages(self):
        sim, host = make_host()
        host.nic.rings[0].drain()
        host.packet_from_wire(Packet(0, 0, 4096))
        assert host.nic.stats.ring_drops == 1
        assert host.nic.stats.dma_packets == 0
        host.nic.rings[0].post(make_descriptor(4))
        host.packet_from_wire(Packet(0, 1, 4096))
        assert host.nic.stats.ring_drops == 1
        assert host.nic.stats.dma_packets == 1
        assert host.nic.rings[0].free_pages == 3

    def test_buffer_overflow_drops(self):
        sim, host = make_host(nic_buffer_bytes=8192)
        for seq in range(4):
            host.packet_from_wire(Packet(0, seq, 4096))
        # The first packet went straight to the free DMA lane; two wait
        # in the 8 KB buffer and the fourth finds it full.
        stats = host.nic.stats
        assert stats.dma_packets == 1
        assert host.nic.input_buffer.occupancy_bytes == 8192
        assert stats.buffer_drops == 1
        assert stats.drop_fraction == pytest.approx(1 / 4)

    def test_next_packet_fifo(self):
        sim, host = make_host()
        delivered = []
        host._deliver_to_core = delivered.append
        packets = [Packet(0, seq, 4096) for seq in range(3)]
        for packet in packets:
            host.packet_from_wire(packet)
        sim.run()
        assert delivered == packets
        assert host.nic.stats.dma_packets == 3
        assert host.nic.next_packet() is None

    def test_fault_path_keeps_fifo(self):
        # A NIC fault injector (here one whose window never opens)
        # sends the pump through Nic.next_packet instead of the direct
        # start; the DMA order must not change.
        plan = FaultPlan(
            seed=1,
            name="idle",
            specs=(FaultSpec("nic", "ring-stall", 1e12, 2e12),),
        )
        with faulted(plan) as runtime:
            sim = Simulator()
            runtime.bind_clock(sim)
            config = HostConfig.cascade_lake(mode="off", num_cores=1)
            host = Host(sim, config, wire_out=lambda packet: None)
        assert host.nic.faults is not None
        delivered = []
        host._deliver_to_core = delivered.append
        packets = [Packet(0, seq, 4096) for seq in range(3)]
        for packet in packets:
            host.packet_from_wire(packet)
        sim.run()
        assert delivered == packets
        assert host.nic.stats.dma_packets == 3

    def test_multi_page_packet_spans_descriptors(self):
        sim, host = make_host()
        ring = host.nic.rings[0]
        ring.drain()
        first, second = make_descriptor(1), make_descriptor(1)
        ring.post(first)
        ring.post(second)
        recycled = []
        delivered = []
        host._schedule_descriptor_recycle = recycled.append
        host._deliver_to_core = delivered.append
        host.packet_from_wire(Packet(0, 0, 8192))
        sim.run()
        assert len(delivered) == 1
        # Both pages landed; both descriptors retire, in ring order.
        assert recycled == [first, second]
        assert ring.descriptor_count == 0
