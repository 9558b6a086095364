"""Discrete-event simulation substrate.

Exports the engine (:class:`Simulator`), process primitives
(:class:`Process`, :class:`Timeout`, :class:`Signal`), shared resources
(:class:`FifoQueue`, :class:`TokenBucketPacer`) and deterministic RNG
(:class:`SeededRng`).  The PCIe+IOMMU DMA datapath is modeled by
:class:`repro.pcie.DmaPipeline`, not here.
"""

from .engine import (
    EarlyQuiescenceError,
    Event,
    SimulationError,
    Simulator,
    Watchdog,
    WatchdogError,
)
from .process import Process, Signal, Timeout
from .resources import FifoQueue, TokenBucketPacer
from .rng import SeededRng

__all__ = [
    "Simulator",
    "Event",
    "SimulationError",
    "EarlyQuiescenceError",
    "Watchdog",
    "WatchdogError",
    "Process",
    "Timeout",
    "Signal",
    "FifoQueue",
    "TokenBucketPacer",
    "SeededRng",
]
