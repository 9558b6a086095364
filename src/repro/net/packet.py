"""Packet representation shared by the transport, switch, and NIC models.

Packets are segment-granular: one :class:`Packet` is one MTU-sized (or
smaller) wire unit.  ``seq`` numbers count segments, not bytes, which
keeps the DCTCP state machines simple without changing any behaviour
the experiments measure.
"""

from __future__ import annotations

import itertools
from typing import Optional

__all__ = ["Packet", "PacketKind", "ACK_SIZE_BYTES"]

ACK_SIZE_BYTES = 64

_packet_ids = itertools.count()


class PacketKind:
    """Enumeration of wire-unit kinds (plain strings for cheap checks)."""

    DATA = "data"
    ACK = "ack"
    RPC_REQ = "rpc_req"
    RPC_RESP = "rpc_resp"


_DATA_KINDS = frozenset(
    (PacketKind.DATA, PacketKind.RPC_REQ, PacketKind.RPC_RESP)
)


class Packet:
    """One wire unit.

    Attributes
    ----------
    flow_id:
        Flow the packet belongs to.
    seq:
        Segment sequence number (data) or cumulative ack number (acks).
    size_bytes:
        Bytes on the wire.
    kind:
        One of :class:`PacketKind`; fixed at construction.
    is_data:
        Whether ``kind`` carries payload (data or an RPC message).
    ecn_marked:
        Set by the switch when its queue exceeds the marking threshold;
        echoed by the receiver in ACKs (``ecn_echo``).
    retransmission:
        Whether this is a retransmitted segment.
    sent_ns / created_ns:
        Timestamps for latency accounting.
    rpc_id:
        Identifier linking RPC requests to responses.
    """

    __slots__ = (
        "packet_id",
        "flow_id",
        "seq",
        "size_bytes",
        "kind",
        "is_data",
        "ecn_marked",
        "ecn_echo",
        "retransmission",
        "created_ns",
        "sent_ns",
        "rpc_id",
        "sack_seq",
    )

    def __init__(
        self,
        flow_id: int,
        seq: int,
        size_bytes: int,
        kind: str = PacketKind.DATA,
        created_ns: float = 0.0,
        rpc_id: Optional[int] = None,
    ) -> None:
        self.packet_id = next(_packet_ids)
        self.flow_id = flow_id
        self.seq = seq
        self.size_bytes = size_bytes
        self.kind = kind
        # ``kind`` never changes after construction, so the data test
        # every hop makes is computed once.
        self.is_data = kind in _DATA_KINDS
        self.ecn_marked = False
        self.ecn_echo = False
        self.retransmission = False
        self.created_ns = created_ns
        self.sent_ns = created_ns
        self.rpc_id = rpc_id
        # For ACK packets: the sequence of the segment that triggered
        # this (dup) ack, letting the sender do SACK-like recovery.
        self.sack_seq: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Packet {self.kind} flow={self.flow_id} seq={self.seq} "
            f"{self.size_bytes}B>"
        )
