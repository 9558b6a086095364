"""The measured host: the full NIC-to-memory datapath of §2.1.

This class wires every substrate together and drives the paper's five
datapath steps:

1. descriptor preparation (protection driver: IOVA alloc + map);
2. packet arrival into the NIC input buffer (finite; tail drop) and
   page-slot consumption from the per-core ring;
3. DMA through the PCIe Rx pipeline with per-transaction address
   translation (IOTLB probe, PTcache-shortened walk on the shared
   walker — the begin handler runs at DMA start so concurrent Tx
   invalidations interleave faithfully);
4. descriptor retirement (unmap + invalidate per the protection mode)
   and replenishment, charged to the owning core;
5. NAPI-style polled delivery to the transport, with GRO-coalesced
   delayed ACKs, immediate duplicate ACKs on out-of-order arrivals,
   and the Tx (ACK/data) datapath back through the IOMMU.

Throughput, drop rates, cache miss rates, ACK rates and tail latencies
are all *outcomes* of this machinery, not inputs.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Optional

from ..iommu import Iommu
from ..iommu.addr import PAGE_SIZE
from ..iova import age_allocator
from ..mem.physmem import PhysicalMemory
from ..net.dctcp import DctcpReceiver, DctcpSender
from ..net.packet import Packet, PacketKind
from ..nic import Nic, RecoveryManager
from ..nic.descriptor import RxDescriptor
from ..obs.hooks import current_registry
from ..pcie import DmaPipeline
from ..protection import (
    DeferredDriver,
    PassthroughDriver,
    ProtectionDriver,
    StrictFamilyDriver,
    TxMapping,
)
from ..sim import Simulator
from .config import HostConfig
from .cpu import CoreSet

__all__ = ["Host"]

class _FlowBinding:
    """Host-side state for one flow (either direction)."""

    __slots__ = ("flow_id", "core", "receiver", "sender", "rto_event")

    def __init__(self, flow_id: int, core: int):
        self.flow_id = flow_id
        self.core = core
        self.receiver: Optional[DctcpReceiver] = None
        self.sender: Optional[DctcpSender] = None
        self.rto_event = None


class Host:
    """The receiver-side server under measurement."""

    def __init__(
        self,
        sim: Simulator,
        config: HostConfig,
        wire_out: Callable[[Packet], None],
    ) -> None:
        self.sim = sim
        self.config = config
        self.wire_out = wire_out
        self.physmem = PhysicalMemory(total_frames=1 << 21)
        self.allocation_trace: list[tuple[int, int]] = []
        self.iommu: Optional[Iommu] = None
        self.driver = self._build_driver()
        self.nic = Nic(config.num_cores, config.nic_buffer_bytes, sim=sim)
        # A fault-injected NIC stall parks packets in the input buffer;
        # the NIC wakes the DMA pump when the stall window closes.
        self.nic.on_wake = self._pump_rx_dma
        self.cores = CoreSet(sim, config.num_cores)
        self.rx_pipeline = DmaPipeline(
            sim,
            config.pcie,
            config.pcie.rx_lanes,
            self._rx_dma_begin,
            self._rx_dma_finish,
            label="rx",
        )
        self.tx_pipeline = DmaPipeline(
            sim,
            config.pcie,
            config.pcie.tx_lanes,
            self._tx_dma_begin,
            self._tx_dma_finish,
            label="tx",
        )
        self._flows: dict[int, _FlowBinding] = {}
        # Per-core NAPI state.
        self._napi_queues: list[deque[Packet]] = [
            deque() for _ in range(config.num_cores)
        ]
        self._poll_timer = [None] * config.num_cores
        self._poll_scheduled = [False] * config.num_cores
        # Per-core completed-but-unretired Tx mappings.
        self._pending_tx: list[list[TxMapping]] = [
            [] for _ in range(config.num_cores)
        ]
        # DMA bookkeeping: packet_id -> taken (descriptor, slot) pairs
        # of packets waiting in the NIC input buffer.
        self._pending_slots: dict[int, list] = {}
        # Hard-fault path: packets whose DMA the IOMMU aborted.  The
        # begin handler flags the packet; the finish handler consumes
        # the flag and suppresses delivery (Rx) / wire-out (Tx).
        self._aborted_dmas: set[int] = set()
        self._aborted_tx: set[int] = set()
        self.rx_dma_aborts = 0
        self.tx_dma_aborts = 0
        # Memory-bandwidth utilization estimate for walker contention.
        self._util_window_start = 0.0
        self._util_bytes = 0
        self._mem_utilization = 0.0
        # Counters.
        self.rx_data_segments = 0
        self.rx_data_bytes = 0
        self.rx_data_pages = 0
        self.acks_sent = 0
        self.tx_data_segments = 0
        self.tx_data_bytes_sent = 0
        self.delivered_segments_by_flow: dict[int, int] = {}
        # App hook: called with (flow_id, segments) on in-order delivery.
        self.on_delivery: Optional[Callable[[int, int], None]] = None
        self.obs = current_registry()
        if self.obs is not None:
            scope = self.obs.scope("host")
            scope.counter(
                "rx_data_segments", lambda: self.rx_data_segments
            )
            scope.counter("rx_data_bytes", lambda: self.rx_data_bytes)
            scope.counter("rx_data_pages", lambda: self.rx_data_pages)
            scope.counter("acks_sent", lambda: self.acks_sent)
            scope.counter(
                "tx_data_segments", lambda: self.tx_data_segments
            )
            scope.counter(
                "tx_data_bytes", lambda: self.tx_data_bytes_sent
            )
            scope.counter("rx_dma_aborts", lambda: self.rx_dma_aborts)
            scope.counter("tx_dma_aborts", lambda: self.tx_dma_aborts)
            scope.gauge(
                "mem_utilization", lambda: self._mem_utilization
            )
        if self.iommu is not None and self.iommu.fault_queue is not None:
            self.iommu.fault_queue.bind_clock(lambda: self.sim.now)
        self._age_allocator()
        self._fill_rings()
        # Hard-fault recovery: a housekeeping detector plus the reset
        # state machine.  Built last so its first counter snapshots see
        # the filled rings.
        self.recovery: Optional[RecoveryManager] = None
        if config.recovery:
            self.recovery = RecoveryManager(self)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_driver(self) -> ProtectionDriver:
        config = self.config
        if config.mode == "off":
            return PassthroughDriver(self.physmem)
        self.iommu = Iommu(config.iommu)
        self.iommu.memory.channel_bandwidth_gbps = (
            config.memory_bandwidth_gbps
        )
        if config.mode == "deferred":
            return DeferredDriver(
                self.iommu,
                self.physmem,
                config.num_cores,
                flush_threshold=config.deferred_flush_threshold,
                allocation_trace=self.allocation_trace,
            )
        factory = {
            "strict": StrictFamilyDriver.linux_strict,
            "fns": StrictFamilyDriver.fns,
            "fns-huge": StrictFamilyDriver.fns_huge,
            "linux+A": StrictFamilyDriver.linux_plus_preserve,
            "linux+B": StrictFamilyDriver.linux_plus_contiguous,
        }[config.mode]
        return factory(
            self.iommu,
            self.physmem,
            config.num_cores,
            chunk_pages=config.descriptor_pages,
            allocation_trace=self.allocation_trace,
        )

    def _age_allocator(self) -> None:
        """Reproduce a long-uptime allocator state (see HostConfig).

        Ages the fresh allocator as if a burst of page-sized IOVAs had
        been allocated across all cores and freed in shuffled order to
        random cores.  The magazines and depot end up holding addresses
        spanning a wide extent in a scrambled order, so subsequent ring
        replenishment draws scattered IOVAs — the poor-locality regime
        §2.2 measures.  :func:`repro.iova.age_allocator` builds that
        state in one pass (replaying the stream only under an invariant
        monitor); aging leaves no allocation-trace entries.
        """
        allocator = getattr(self.driver, "allocator", None)
        if allocator is not None:
            age_allocator(
                allocator,
                self.config.effective_aging_iovas,
                self.config.aging_seed,
                self.config.num_cores,
            )

    def _fill_rings(self) -> None:
        for core in range(self.config.num_cores):
            ring = self.nic.rings[core]
            for _ in range(self.config.descriptors_per_ring):
                descriptor, _cost = self.driver.make_rx_descriptor(
                    core, self.config.descriptor_pages
                )
                ring.post(descriptor)

    # ------------------------------------------------------------------
    # Flow registration
    # ------------------------------------------------------------------
    def register_rx_flow(self, flow_id: int, core: int) -> DctcpReceiver:
        """A flow whose data arrives at this host."""
        binding = self._flows.setdefault(flow_id, _FlowBinding(flow_id, core))
        binding.core = core
        binding.receiver = DctcpReceiver(flow_id, self.config.dctcp)
        return binding.receiver

    def register_tx_flow(
        self,
        flow_id: int,
        core: int,
        unlimited: bool = True,
        segment_bytes: Optional[int] = None,
    ) -> DctcpSender:
        """A flow this host transmits (Fig 10 Tx iperf, app responses)."""
        binding = self._flows.setdefault(flow_id, _FlowBinding(flow_id, core))
        binding.core = core
        binding.sender = DctcpSender(
            flow_id,
            self.config.dctcp,
            unlimited=unlimited,
            segment_bytes=segment_bytes,
        )
        return binding.sender

    def core_of(self, flow_id: int) -> int:
        binding = self._flows.get(flow_id)
        if binding is not None:
            return binding.core
        return flow_id % self.config.num_cores

    # ------------------------------------------------------------------
    # Wire ingress (step 2-3)
    # ------------------------------------------------------------------
    def packet_from_wire(self, packet: Packet) -> None:
        """Every arriving packet — data or ACK — is DMA'd via a ring.

        Admission (reset window, ring space, input-buffer space), the
        page-slot reservation and, when the DMA engine can take the
        packet at once, the DMA start all happen here.
        """
        size = packet.size_bytes
        pages = 1 if size <= PAGE_SIZE else -(-size // PAGE_SIZE)
        binding = self._flows.get(packet.flow_id)
        core = binding.core if binding else packet.flow_id % self.config.num_cores
        nic = self.nic
        stats = nic.stats
        stats.arrived_packets += 1
        stats.arrived_bytes += size
        if nic.quiesced:
            # Function-level reset in progress: the device is off the
            # bus and arrivals are lost, like a real reset window.
            stats.buffer_drops += 1
            return
        ring = nic.rings[core]
        if ring.free_pages < pages:
            stats.ring_drops += 1
            return
        buffer = nic.input_buffer
        if not buffer.try_enqueue(packet, size):
            stats.buffer_drops += 1
            return
        # Reserve the page slots now (the NIC owns them on arrival).
        taken = ring.take_pages(pages)
        pipeline = self.rx_pipeline
        if (
            nic.faults is None
            and pipeline.inflight < pipeline.lanes
            and len(buffer) == 1
        ):
            # Nothing is queued ahead and a lane is free: the pump would
            # dequeue exactly this packet now, so start its DMA here.
            buffer.dequeue()
            stats.dma_packets += 1
            stats.dma_bytes += size
            pipeline.submit(size, (packet, taken))
            return
        self._pending_slots[packet.packet_id] = taken
        self._pump_rx_dma()

    def _pump_rx_dma(self) -> None:
        """Feed buffered packets to free Rx DMA lanes, in FIFO order."""
        nic = self.nic
        pipeline = self.rx_pipeline
        pending_slots = self._pending_slots
        if nic.faults is not None or nic.quiesced:
            # Stalls, wedges and resets live in Nic.next_packet.
            while pipeline.inflight < pipeline.lanes:
                packet = nic.next_packet()
                if packet is None:
                    return
                taken = pending_slots.pop(packet.packet_id)
                pipeline.submit(packet.size_bytes, (packet, taken))
            return
        buffer = nic.input_buffer
        stats = nic.stats
        while pipeline.inflight < pipeline.lanes:
            entry = buffer.dequeue()
            if entry is None:
                return
            packet, size = entry
            stats.dma_packets += 1
            stats.dma_bytes += size
            taken = pending_slots.pop(packet.packet_id)
            pipeline.submit(size, (packet, taken))

    def _rx_dma_begin(self, start: float, item: tuple) -> float:
        """Translate every PCIe transaction, then time the DMA.

        Each IOTLB miss is one page walk: reads within a walk are
        sequential, walks for different pages overlap on the IOMMU's
        walker channels.  The DMA completes when the wire transfer and
        the slowest walk (plus the per-DMA base latency l0) are done.
        """
        packet, taken = item
        config = self.config
        walks_done = start
        remaining = packet.size_bytes
        for _descriptor, slot in taken:
            in_page = min(remaining, PAGE_SIZE)
            remaining -= in_page
            transactions = config.pcie.transactions(in_page)
            mps = config.pcie.max_payload_bytes
            # All of this page's TLPs translate back to back with no
            # event in between; when the driver can batch them (no
            # monitor/faults/fault queue) only the first can walk.
            reads = self.driver.translate_for_dma_burst(
                slot.iova, transactions, "rx"
            )
            if reads is not None:
                if reads:
                    finish = self.iommu.reserve_walk(
                        start, reads, self._mem_utilization
                    )
                    if finish > walks_done:
                        walks_done = finish
                continue
            for index in range(transactions):
                reads, aborted = self.driver.translate_for_dma(
                    slot.iova + index * mps, "rx"
                )
                if aborted:
                    # Hard-fault path: the root complex killed the
                    # transaction; no data lands, the fault is logged,
                    # and the DMA completes early with abort latency.
                    self._aborted_dmas.add(packet.packet_id)
                    self.rx_dma_aborts += 1
                    return start + self.iommu.fault_queue.abort_latency_ns
                if reads:
                    finish = self.iommu.reserve_walk(
                        start, reads, self._mem_utilization
                    )
                    if finish > walks_done:
                        walks_done = finish
        self._account_dma_bytes(packet.size_bytes)
        wire_done = self.rx_pipeline.reserve_wire(start, packet.size_bytes)
        return max(wire_done, walks_done + config.pcie.l0_ns)

    def _rx_dma_finish(self, item: tuple) -> None:
        packet, taken = item
        aborted = packet.packet_id in self._aborted_dmas
        if aborted:
            self._aborted_dmas.discard(packet.packet_id)
        for descriptor, _slot in taken:
            descriptor.dma_pending -= 1
        if packet.is_data and not aborted:
            self.rx_data_segments += 1
            self.rx_data_bytes += packet.size_bytes
            self.rx_data_pages += len(taken)
        if taken:
            # Retirement is FIFO and every finish pops a complete head,
            # so the head can only be complete now if it is the first
            # descriptor this DMA wrote into and that one just completed
            # (every slot taken, every write landed).
            first = taken[0][0]
            if first.dma_pending == 0 and first.consumed == len(first.slots):
                for descriptor in self.nic.rings[first.core].pop_completed():
                    self._schedule_descriptor_recycle(descriptor)
        if not aborted:
            # An aborted DMA wrote nothing: the packet is lost exactly
            # like a wire drop, and the transport's loss recovery (dup
            # ACKs / RTO) takes it from here.
            self._deliver_to_core(packet)
        self._pump_rx_dma()

    # ------------------------------------------------------------------
    # Hard-fault recovery surface (driven by RecoveryManager)
    # ------------------------------------------------------------------
    def quiesce_datapath(self) -> None:
        """Stop the DMA engine and drop everything buffered in the NIC.

        Buffered packets' page-slot reservations are released (their
        descriptors are about to be torn off the rings anyway); DMAs
        already in flight on the PCIe pipelines complete on their own
        and are handled by the normal finish callbacks.
        """
        self.nic.quiesce()
        while True:
            entry = self.nic.input_buffer.dequeue()
            if entry is None:
                break
            buffered, _size = entry
            self._pending_slots.pop(buffered.packet_id, None)

    def outstanding_descriptors(self) -> list[RxDescriptor]:
        """Tear every posted descriptor off every ring (device reset)."""
        descriptors: list[RxDescriptor] = []
        for ring in self.nic.rings:
            descriptors.extend(ring.drain())
        return descriptors

    def rebuild_rings(self) -> None:
        """Map and post fresh descriptor rings after a reset."""
        self._fill_rings()

    # ------------------------------------------------------------------
    # Descriptor recycling (step 4)
    # ------------------------------------------------------------------
    def _schedule_descriptor_recycle(self, descriptor) -> None:
        core = descriptor.core

        def recycle():
            retire_cost = self.driver.retire_rx_descriptor(descriptor, core)
            new_descriptor, make_cost = self.driver.make_rx_descriptor(
                core, self.config.descriptor_pages
            )
            self.cores.run(
                core,
                retire_cost + make_cost,
                lambda: self.nic.rings[core].post(new_descriptor),
            )

        self.cores.run(core, 0.0, recycle)

    # ------------------------------------------------------------------
    # NAPI delivery (step 5)
    # ------------------------------------------------------------------
    def _deliver_to_core(self, packet: Packet) -> None:
        core = self.core_of(packet.flow_id)
        queue = self._napi_queues[core]
        queue.append(packet)
        if self._poll_scheduled[core]:
            if (
                len(queue) >= self.config.irq_coalesce_frames
                and self._poll_timer[core] is not None
            ):
                self._poll_timer[core].cancel()
                self._poll_timer[core] = None
                self.sim.schedule_after(0.0, partial(self._poll, core))
            return
        self._poll_scheduled[core] = True
        self._poll_timer[core] = self.sim.call_after(
            self.config.irq_coalesce_ns, partial(self._poll, core)
        )

    def _poll(self, core: int) -> None:
        """One NAPI poll: batch-process everything queued for the core."""
        self._poll_timer[core] = None
        queue = self._napi_queues[core]
        batch = list(queue)
        queue.clear()
        if not batch:
            self._poll_scheduled[core] = False
            return
        config = self.config
        touch_ns = config.cpu.data_touch_ns(
            config.ring_size_packets, config.enable_ddio
        )
        cost = config.cpu.stack_per_poll_ns
        for packet in batch:
            cost += config.cpu.stack_per_packet_ns
            if packet.is_data:
                cost += touch_ns * (packet.size_bytes / PAGE_SIZE)
        self.cores.run(core, cost, partial(self._poll_done, core, batch))

    def _poll_done(self, core: int, batch: list[Packet]) -> None:
        gro_segments = max(
            1, self.config.gro_max_bytes // self.config.mtu_bytes
        )
        touched_receivers: dict[int, DctcpReceiver] = {}
        now = self.sim.now
        for packet in batch:
            binding = self._flows.get(packet.flow_id)
            if packet.kind == PacketKind.ACK:
                if binding is not None and binding.sender is not None:
                    binding.sender.on_ack(packet, now)
                    self.pump_tx_flow(packet.flow_id)
                continue
            if binding is None or binding.receiver is None:
                continue
            receiver = binding.receiver
            delivered, maybe_ack = receiver.on_data(
                packet, now, ack_every=gro_segments
            )
            if delivered:
                touched_receivers[packet.flow_id] = receiver
                self.delivered_segments_by_flow[packet.flow_id] = (
                    self.delivered_segments_by_flow.get(packet.flow_id, 0)
                    + delivered
                )
                if self.on_delivery is not None:
                    self.on_delivery(packet.flow_id, delivered)
            if maybe_ack is not None:
                self._send_ack(core, maybe_ack)
        # End of poll: flush the delayed (GRO) ACK of each flow that
        # made in-order progress.
        for flow_id, receiver in touched_receivers.items():
            trailing = receiver.flush_ack(now)
            if trailing is not None:
                self._send_ack(core, trailing)
        # Tx completion cleaning also happens in the poll context.
        self._maybe_retire_tx(core, force=True)
        # Another interrupt window begins.
        self._poll_scheduled[core] = False
        if self._napi_queues[core]:
            self._poll_scheduled[core] = True
            self._poll_timer[core] = self.sim.call_after(
                self.config.irq_coalesce_ns, partial(self._poll, core)
            )

    # ------------------------------------------------------------------
    # Tx datapath: ACKs and data
    # ------------------------------------------------------------------
    def _send_ack(self, core: int, ack: Packet) -> None:
        mapping, cost = self.driver.map_tx_page(core)
        self.cores.charge(core, cost)
        self.acks_sent += 1
        self.tx_pipeline.submit(
            ack.size_bytes, (ack, [mapping], core, "tx_ack")
        )

    def pump_tx_flow(self, flow_id: int) -> None:
        """Send whatever the flow's window allows."""
        binding = self._flows.get(flow_id)
        if binding is None or binding.sender is None:
            return
        sender = binding.sender
        for packet in sender.take_packets(self.sim.now):
            self._send_tx_data(binding.core, packet)
        self._arm_rto(binding)

    def _send_tx_data(self, core: int, packet: Packet) -> None:
        pages = max(1, -(-packet.size_bytes // PAGE_SIZE))
        mappings = []
        cost = 0.0
        for _ in range(pages):
            mapping, map_cost = self.driver.map_tx_page(core)
            mappings.append(mapping)
            cost += map_cost
        self.cores.charge(core, cost)
        self.tx_data_segments += 1
        self.tx_data_bytes_sent += packet.size_bytes
        self.tx_pipeline.submit(
            packet.size_bytes, (packet, mappings, core, "tx_data")
        )

    def _tx_dma_begin(self, start: float, item: tuple) -> float:
        packet, mappings, _core, source = item
        config = self.config
        walks_done = start
        remaining = packet.size_bytes
        for mapping in mappings:
            in_page = min(remaining, PAGE_SIZE)
            remaining -= in_page
            mps = config.pcie.max_payload_bytes
            transactions = config.pcie.transactions(in_page)
            reads = self.driver.translate_for_dma_burst(
                mapping.iova, transactions, source
            )
            if reads is not None:
                if reads:
                    finish = self.iommu.reserve_walk(
                        start, reads, self._mem_utilization
                    )
                    if finish > walks_done:
                        walks_done = finish
                continue
            for index in range(transactions):
                reads, aborted = self.driver.translate_for_dma(
                    mapping.iova + index * mps, source
                )
                if aborted:
                    self._aborted_tx.add(packet.packet_id)
                    self.tx_dma_aborts += 1
                    return start + self.iommu.fault_queue.abort_latency_ns
                if reads:
                    finish = self.iommu.reserve_walk(
                        start, reads, self._mem_utilization
                    )
                    if finish > walks_done:
                        walks_done = finish
        self._account_dma_bytes(packet.size_bytes)
        wire_done = self.tx_pipeline.reserve_wire(start, packet.size_bytes)
        return max(wire_done, walks_done + config.pcie.l0_ns)

    def _tx_dma_finish(self, item: tuple) -> None:
        packet, mappings, core, _source = item
        if packet.packet_id in self._aborted_tx:
            # The device never read the payload; nothing reaches the
            # wire, but the mappings still retire through the normal
            # completion-cleaning path.
            self._aborted_tx.discard(packet.packet_id)
        else:
            self.wire_out(packet)
        self._pending_tx[core].extend(mappings)
        self._maybe_retire_tx(core, force=False)

    def _maybe_retire_tx(self, core: int, force: bool) -> None:
        pending = self._pending_tx[core]
        if not pending:
            return
        if not force and len(pending) < self.config.tx_retire_batch:
            return
        batch = list(pending)
        pending.clear()
        cost = self.driver.retire_tx_pages(batch, core)
        self.cores.charge(core, cost)

    # ------------------------------------------------------------------
    # RTO management for host-side senders
    # ------------------------------------------------------------------
    def _arm_rto(self, binding: _FlowBinding) -> None:
        sender = binding.sender
        if sender is None or sender.inflight == 0:
            return
        if binding.rto_event is not None:
            binding.rto_event.cancel()
        deadline = max(sender.rto_deadline_ns, self.sim.now)
        binding.rto_event = self.sim.call_at(
            deadline, lambda: self._rto_fire(binding)
        )

    def _rto_fire(self, binding: _FlowBinding) -> None:
        sender = binding.sender
        binding.rto_event = None
        if sender is None or sender.inflight == 0:
            return
        if self.sim.now + 1e-9 < sender.rto_deadline_ns:
            self._arm_rto(binding)
            return
        sender.on_rto(self.sim.now)
        self.pump_tx_flow(binding.flow_id)

    # ------------------------------------------------------------------
    # Memory-bandwidth utilization estimate
    # ------------------------------------------------------------------
    def _account_dma_bytes(self, size_bytes: int) -> None:
        self._util_bytes += size_bytes
        window = self.sim.now - self._util_window_start
        if window >= 100_000.0:  # re-estimate every 100 us
            bytes_per_ns = self._util_bytes / window
            # DDIO off: payloads cross the memory bus twice (DMA write
            # plus the CPU's read); on: once.
            factor = 1.0 if self.config.enable_ddio else 2.0
            self._mem_utilization = min(
                0.95,
                bytes_per_ns * factor / self.config.memory_bandwidth_gbps,
            )
            self._util_bytes = 0
            self._util_window_start = self.sim.now
