"""The NIC: input buffer, per-core Rx rings, drop accounting.

Arriving packets enter a bounded input buffer; the DMA engine drains it
through the PCIe/IOMMU pipeline.  When address translation inflates
per-DMA latency, the drain rate falls below the arrival rate, the
buffer fills, and packets are tail-dropped — the causal chain behind
the paper's throughput/drop figures.  A second drop mode is ring
exhaustion: a packet whose core ring has no free page slots cannot be
DMA'd (the CPU fell behind on descriptor recycling).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from ..faults.hooks import injector_for
from ..obs.hooks import current_registry
from ..sim import FifoQueue, Simulator
from .ring import RxRing

__all__ = ["Nic", "NicStats"]


class NicStats:
    """Drop and arrival counters for one NIC."""

    __slots__ = (
        "arrived_packets",
        "arrived_bytes",
        "buffer_drops",
        "ring_drops",
        "dma_packets",
        "dma_bytes",
    )

    def __init__(self) -> None:
        self.arrived_packets = 0
        self.arrived_bytes = 0
        self.buffer_drops = 0
        self.ring_drops = 0
        self.dma_packets = 0
        self.dma_bytes = 0

    @property
    def total_drops(self) -> int:
        return self.buffer_drops + self.ring_drops

    @property
    def drop_fraction(self) -> float:
        if self.arrived_packets == 0:
            return 0.0
        return self.total_drops / self.arrived_packets


class Nic:
    """Receive side of the measured host's NIC."""

    def __init__(
        self,
        num_cores: int,
        buffer_bytes: int = 1 << 20,
        sim: Optional[Simulator] = None,
    ) -> None:
        if num_cores <= 0:
            raise ValueError("need at least one core")
        # Fault injector (repro.faults); None in normal runs.  The
        # simulator reference exists only for fault scheduling
        # (stall-end wakeups, doorbell redelivery).
        self.sim = sim
        self.faults = injector_for("nic")
        self.rings = [
            RxRing(core, sim=sim, faults=self.faults)
            for core in range(num_cores)
        ]
        self.input_buffer = FifoQueue(buffer_bytes)
        self.stats = NicStats()
        # Called when a fault-induced stall ends and buffered packets
        # can move again; the host points this at its DMA pump.
        self.on_wake: Optional[Callable[[], None]] = None
        self._wake_event = None
        self.stalled_dequeues = 0
        # Recovery surface: a quiesced NIC stops dequeuing (and new
        # arrivals are dropped upstream) while the host tears down and
        # rebuilds the rings.
        self.quiesced = False
        self.resets = 0
        self.obs = current_registry()
        if self.obs is not None:
            scope = self.obs.scope("nic")
            stats = self.stats
            scope.counter("arrived_packets", lambda: stats.arrived_packets)
            scope.counter("arrived_bytes", lambda: stats.arrived_bytes)
            scope.counter("buffer_drops", lambda: stats.buffer_drops)
            scope.counter("ring_drops", lambda: stats.ring_drops)
            scope.counter("dma_packets", lambda: stats.dma_packets)
            scope.counter("dma_bytes", lambda: stats.dma_bytes)
            scope.counter("stalled_dequeues", lambda: self.stalled_dequeues)
            scope.counter(
                "posted_descriptors",
                lambda: sum(r.posted_descriptors for r in self.rings),
            )
            scope.counter(
                "completed_descriptors",
                lambda: sum(r.completed_descriptors for r in self.rings),
            )
            scope.counter(
                "dropped_doorbells",
                lambda: sum(r.dropped_doorbells for r in self.rings),
            )
            scope.gauge(
                "buffered_bytes", lambda: self.input_buffer.occupancy_bytes
            )

    def next_packet(self):
        """Pop the next buffered packet for the DMA engine.

        Returns ``None`` when the buffer is empty — or when a
        fault-injected descriptor-engine stall is in effect, in which
        case a wakeup is scheduled for the stall's end so the pump
        resumes without polling.  A quiesced or wedged device dequeues
        nothing; a wedge (``stall_until() == inf``) never self-wakes —
        only a reset via the recovery path restarts the pump.
        """
        if self.quiesced:
            return None
        if self.faults is not None:
            stalled_until = self.faults.stall_until()
            if stalled_until is not None:
                self.stalled_dequeues += 1
                self._schedule_wake(stalled_until)
                return None
        entry = self.input_buffer.dequeue()
        if entry is None:
            return None
        packet, _size = entry
        self.stats.dma_packets += 1
        self.stats.dma_bytes += packet.size_bytes
        return packet

    def _schedule_wake(self, at_ns: float) -> None:
        if self.sim is None or self._wake_event is not None:
            return
        if math.isinf(at_ns) or at_ns <= self.sim.now:
            # A wedged device (inf) cannot wake itself; the watchdog or
            # recovery manager must reset it.
            return
        self._wake_event = self.sim.call_at(at_ns, self._wake)

    def _wake(self) -> None:
        self._wake_event = None
        if self.on_wake is not None:
            self.on_wake()

    # ------------------------------------------------------------------
    # Reset & recovery surface
    # ------------------------------------------------------------------
    def quiesce(self) -> None:
        """Stop the DMA engine while the host tears the rings down."""
        self.quiesced = True

    def reset_device(self) -> None:
        """Function-level reset: the only way out of a device wedge.

        Cancels any pending stall wakeup (its ring state is gone) and
        clears a latched hard fault on the device's injector.
        """
        self.resets += 1
        if self._wake_event is not None:
            self._wake_event.cancel()
            self._wake_event = None
        if self.faults is not None:
            self.faults.notify_reset()

    def resume(self) -> None:
        """Re-enable the DMA engine after rings are rebuilt."""
        self.quiesced = False
