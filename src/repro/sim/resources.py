"""Shared resources for simulated subsystems.

Two resources cover the queueing structures outside the PCIe link:

* :class:`FifoQueue` — a bounded byte/item queue with tail drop.  Used
  for the NIC input buffer and the switch queue; overflow accounting is
  what produces the paper's packet-drop figures (Figs 2b, 3b, 7b, 8b).

* :class:`TokenBucketPacer` — paces packet departures at a configured
  line rate; models NIC serialization and switch egress.

The PCIe+IOMMU datapath, whose per-DMA latency caps Rx throughput by
Little's law (paper §1, §2.2), is :class:`repro.pcie.DmaPipeline`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from .engine import Simulator

__all__ = ["FifoQueue", "TokenBucketPacer"]


class FifoQueue:
    """A bounded FIFO with byte-based occupancy and tail drop.

    ``capacity_bytes`` bounds the queue; an item that does not fit is
    dropped and counted.  An optional ``ecn_threshold_bytes`` reports
    whether an enqueued item should be ECN-marked (DCTCP-style marking
    at the switch).
    """

    def __init__(
        self,
        capacity_bytes: int,
        ecn_threshold_bytes: Optional[int] = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self._items: deque[tuple[Any, int]] = deque()
        self.occupancy_bytes = 0
        self.enqueued_items = 0
        self.enqueued_bytes = 0
        self.dropped_items = 0
        self.dropped_bytes = 0
        self.marked_items = 0
        self.peak_occupancy_bytes = 0

    def try_enqueue(self, item: Any, size_bytes: int) -> bool:
        """Enqueue ``item``; returns ``False`` (and counts a drop) if full."""
        if self.occupancy_bytes + size_bytes > self.capacity_bytes:
            self.dropped_items += 1
            self.dropped_bytes += size_bytes
            return False
        self._items.append((item, size_bytes))
        self.occupancy_bytes += size_bytes
        self.enqueued_items += 1
        self.enqueued_bytes += size_bytes
        if self.occupancy_bytes > self.peak_occupancy_bytes:
            self.peak_occupancy_bytes = self.occupancy_bytes
        return True

    def should_mark(self) -> bool:
        """Whether current occupancy exceeds the ECN marking threshold."""
        if self.ecn_threshold_bytes is None:
            return False
        return self.occupancy_bytes > self.ecn_threshold_bytes

    def dequeue(self) -> Optional[tuple[Any, int]]:
        """Remove and return ``(item, size_bytes)``; ``None`` if empty."""
        if not self._items:
            return None
        item, size = self._items.popleft()
        self.occupancy_bytes -= size
        return item, size

    def __len__(self) -> int:
        return len(self._items)

    @property
    def drop_fraction(self) -> float:
        """Fraction of offered items that were dropped."""
        offered = self.enqueued_items + self.dropped_items
        return self.dropped_items / offered if offered else 0.0


class TokenBucketPacer:
    """Serializes item departures at a fixed line rate.

    Items are emitted back-to-back at ``rate_bits_per_ns`` (e.g. 100 Gbps
    == 100 bits/ns); each item's wire time is ``bits / rate``.  Used for
    the sender NIC's egress and the switch's egress port.
    """

    def __init__(self, sim: Simulator, rate_gbps: float) -> None:
        if rate_gbps <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.rate_bits_per_ns = rate_gbps  # 1 Gbps == 1 bit/ns
        self._next_free = 0.0
        self.sent_items = 0
        self.sent_bytes = 0

    def send(self, size_bytes: int, on_delivered: Callable[[], None]) -> float:
        """Schedule delivery of one item; returns its delivery time."""
        wire_ns = size_bytes * 8 / self.rate_bits_per_ns
        start = max(self.sim.now, self._next_free)
        finish = start + wire_ns
        self._next_free = finish
        self.sent_items += 1
        self.sent_bytes += size_bytes
        self.sim.schedule_at(finish, on_delivered)
        return finish

    @property
    def backlog_ns(self) -> float:
        """How far ahead of the clock the serializer is booked."""
        return max(0.0, self._next_free - self.sim.now)
