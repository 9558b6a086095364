"""The remote peer: the other end of the paper's two-server testbed.

The measured host's bottlenecks are what the experiments study, so the
peer is deliberately ideal: infinitely fast CPU and no IOMMU of its
own.  It still runs real DCTCP state machines — window growth, ECN
reaction, loss recovery, RTOs — because the sender-side congestion
behaviour (burstiness with many flows, drop-triggered duplicate ACKs,
timeout retransmissions) is the mechanism behind the paper's drop and
ACK-rate dynamics.

The peer both *sends* data (the iperf flows received by the measured
host, RPC requests) and *receives* data (Fig 10's Tx-direction flows,
RPC responses), acking received data with the standard delayed-ACK
factor.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from ..net.dctcp import DctcpParams, DctcpReceiver, DctcpSender
from ..net.packet import Packet, PacketKind
from ..sim import Simulator

__all__ = ["RemotePeer"]


class _RemoteFlow:
    __slots__ = ("flow_id", "sender", "receiver", "rto_event")

    def __init__(self, flow_id: int):
        self.flow_id = flow_id
        self.sender: Optional[DctcpSender] = None
        self.receiver: Optional[DctcpReceiver] = None
        self.rto_event = None


class RemotePeer:
    """Ideal peer server: DCTCP endpoints without host bottlenecks."""

    def __init__(
        self,
        sim: Simulator,
        params: DctcpParams,
        wire_out: Callable[[Packet], None],
        ack_every: int = 2,
        processing_delay_ns: float = 2_000.0,
    ) -> None:
        self.sim = sim
        self.params = params
        self.wire_out = wire_out
        self.ack_every = ack_every
        self.processing_delay_ns = processing_delay_ns
        self._flows: dict[int, _RemoteFlow] = {}
        # App hook for delivered in-order segments (RPC client etc.).
        self.on_delivery: Optional[Callable[[int, int], None]] = None
        self.delivered_segments_by_flow: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Flow registration
    # ------------------------------------------------------------------
    def register_sender(
        self,
        flow_id: int,
        unlimited: bool = True,
        segment_bytes: Optional[int] = None,
    ) -> DctcpSender:
        flow = self._flows.setdefault(flow_id, _RemoteFlow(flow_id))
        flow.sender = DctcpSender(
            flow_id,
            self.params,
            unlimited=unlimited,
            segment_bytes=segment_bytes,
        )
        return flow.sender

    def register_receiver(self, flow_id: int) -> DctcpReceiver:
        flow = self._flows.setdefault(flow_id, _RemoteFlow(flow_id))
        flow.receiver = DctcpReceiver(flow_id, self.params)
        return flow.receiver

    def sender(self, flow_id: int) -> DctcpSender:
        return self._flows[flow_id].sender

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def pump(self, flow_id: int) -> None:
        """Send whatever the flow's congestion window allows."""
        flow = self._flows[flow_id]
        sender = flow.sender
        if sender is None:
            return
        for packet in sender.take_packets(self.sim.now):
            self.wire_out(packet)
        self._arm_rto(flow)

    def start_all(self) -> None:
        """Kick every registered sender (t=0 of the experiment)."""
        for flow_id, flow in self._flows.items():
            if flow.sender is not None:
                self.pump(flow_id)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def packet_from_wire(self, packet: Packet) -> None:
        """Handle a delivered packet after a small processing delay."""
        self.sim.schedule_after(
            self.processing_delay_ns, partial(self._process, packet)
        )

    def _process(self, packet: Packet) -> None:
        flow = self._flows.get(packet.flow_id)
        if flow is None:
            return
        now = self.sim.now
        if packet.kind == PacketKind.ACK:
            if flow.sender is not None:
                flow.sender.on_ack(packet, now)
                self.pump(packet.flow_id)
            return
        if flow.receiver is None:
            return
        delivered, maybe_ack = flow.receiver.on_data(
            packet, now, ack_every=self.ack_every
        )
        if delivered:
            self.delivered_segments_by_flow[packet.flow_id] = (
                self.delivered_segments_by_flow.get(packet.flow_id, 0)
                + delivered
            )
            if self.on_delivery is not None:
                self.on_delivery(packet.flow_id, delivered)
        if maybe_ack is not None:
            self.wire_out(maybe_ack)

    # ------------------------------------------------------------------
    # RTO
    # ------------------------------------------------------------------
    def _arm_rto(self, flow: _RemoteFlow) -> None:
        sender = flow.sender
        if sender is None or sender.inflight == 0:
            return
        if flow.rto_event is not None:
            flow.rto_event.cancel()
        deadline = max(sender.rto_deadline_ns, self.sim.now)
        flow.rto_event = self.sim.call_at(
            deadline, lambda: self._rto_fire(flow)
        )

    def _rto_fire(self, flow: _RemoteFlow) -> None:
        sender = flow.sender
        flow.rto_event = None
        if sender is None or sender.inflight == 0:
            return
        if self.sim.now + 1e-9 < sender.rto_deadline_ns:
            self._arm_rto(flow)
            return
        sender.on_rto(self.sim.now)
        self.pump(flow.flow_id)
