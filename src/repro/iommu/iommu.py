"""The IOMMU: translation, caching, walking and fault semantics.

This class glues together the IO page table, IOTLB, PTcache hierarchy
and invalidation queue, and exposes the two operations the datapath
performs:

* :meth:`translate` — the per-PCIe-transaction address translation:
  IOTLB probe; on miss a walk shortened by the PTcaches, counting the
  memory reads the walk needs (1 in the best case, 4 in the worst);

* :meth:`reserve_walk` — the *timing* side: page-walk memory reads are
  serialized at the page-table walker and cost ``lm`` (197 ns by the
  paper's fit) each.  Rx and Tx translations share the walker, which is
  how Tx/ACK traffic inflates Rx DMA latency (paper §2.2).

A DMA to an unmapped IOVA raises :class:`DmaFault` — the safety
property.  Strict mode and F&S guarantee that a device access after
unmap faults; the deferred mode does not (stale IOTLB entries may still
translate), which the safety tests demonstrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..faults.hooks import injector_for
from ..mem.latency import DEFAULT_LM_NS, MemoryLatencyModel
from ..obs.hooks import current_registry
from ..verify.events import (
    DmaFaultEvent,
    MapEvent,
    TranslateEvent,
    UnmapEvent,
)
from ..verify.hooks import current_monitor
from .faultq import (
    DEFAULT_FAULT_ABORT_LATENCY_NS,
    DEFAULT_FAULT_QUEUE_CAPACITY,
    FaultReportingQueue,
)
from .invalidation import InvalidationQueue
from .iotlb import Iotlb
from .pagetable import IOPageTable
from .ptcache import PtCacheHierarchy
from .stats import IommuStats

__all__ = ["Iommu", "IommuConfig", "TranslationResult", "DmaFault"]


class DmaFault(Exception):
    """A DMA targeted an IOVA with no valid translation.

    In hardware this aborts the transaction and logs a fault; raising is
    the simulation's way of catching any safety violation immediately.
    """

    def __init__(self, iova: int):
        super().__init__(f"DMA fault: iova {iova:#x} has no translation")
        self.iova = iova


@dataclass(frozen=True)
class TranslationResult:
    """Outcome of one translation.

    ``memory_reads`` is 0 on an IOTLB hit; otherwise the number of IO
    page table accesses the (PTcache-shortened) walk performed.
    ``stale`` flags a translation served from a stale IOTLB entry after
    unmap (possible only in deferred mode) — a safety violation.
    ``aborted`` means the transaction was killed by the hard-fault path
    (fault queue attached): no data moved, a fault record was logged,
    and ``frame`` is meaningless.
    """

    frame: int
    iotlb_hit: bool
    memory_reads: int
    stale: bool = False
    aborted: bool = False


@dataclass
class IommuConfig:
    """Cache geometry and timing knobs for the IOMMU model."""

    iotlb_entries: int = 128
    iotlb_ways: int = 8
    # Verify on every IOTLB hit that the page table still maps the IOVA
    # (detects stale-entry use).  Strict mode and F&S invalidate on every
    # unmap, so an IOTLB hit implies a live mapping and the check is
    # skipped for speed; the deferred driver enables it to surface its
    # safety hole in the tests.
    check_stale_hits: bool = False
    ptcache_l1_entries: int = 32
    ptcache_l2_entries: int = 32
    ptcache_l3_entries: int = 64
    lm_ns: float = DEFAULT_LM_NS
    invalidation_cpu_ns: float = 250.0
    trace_invalidations: bool = False
    # Concurrent page-table walkers.  Hardware IOMMUs track several
    # walks in flight; reads *within* one walk are sequential (each
    # level's read depends on the previous), but walks for different
    # pages proceed in parallel.  The default of 2 reproduces the
    # paper's serial-reads-per-packet throughput model at 4 KB MTU
    # while letting multi-page (9 K MTU) DMAs overlap their per-page
    # walks, as the fitted lm = 197 ns implies.
    walkers: int = 2
    # Hard-fault path.  When True, a DMA to an unmapped IOVA is aborted
    # and logged to a FaultReportingQueue instead of raising DmaFault —
    # how real hardware behaves.  Off by default: the raise is the
    # safety tests' violation detector and must stay the default.
    fault_queue: bool = False
    fault_queue_capacity: int = DEFAULT_FAULT_QUEUE_CAPACITY
    fault_abort_latency_ns: float = DEFAULT_FAULT_ABORT_LATENCY_NS


class Iommu:
    """The full IOMMU model (translation caches + page table + walker)."""

    def __init__(self, config: IommuConfig | None = None) -> None:
        self.config = config or IommuConfig()
        # Safety-invariant monitor (repro.verify); None in normal runs.
        self.monitor = current_monitor()
        self.page_table = IOPageTable()
        self.iotlb = Iotlb(self.config.iotlb_entries, self.config.iotlb_ways)
        self.ptcaches = PtCacheHierarchy(
            self.config.ptcache_l1_entries,
            self.config.ptcache_l2_entries,
            self.config.ptcache_l3_entries,
        )
        # The hierarchy counts the paper's m1/m2/m3 as it probes; the
        # stats record shares that dict instead of keeping a copy.
        self.stats = IommuStats(
            ptcache_counted_misses=self.ptcaches.counted_misses
        )
        self.invalidation_queue = InvalidationQueue(
            self.iotlb,
            self.ptcaches,
            self.stats,
            cpu_cost_ns=self.config.invalidation_cpu_ns,
            trace=self.config.trace_invalidations,
        )
        self.memory = MemoryLatencyModel(base_read_ns=self.config.lm_ns)
        # Hard-fault path: PRI-style fault log + spurious-fault injector.
        # With no queue attached (the default) unmapped DMAs raise.
        self.fault_queue: Optional[FaultReportingQueue] = None
        if self.config.fault_queue:
            self.fault_queue = FaultReportingQueue(
                capacity=self.config.fault_queue_capacity,
                abort_latency_ns=self.config.fault_abort_latency_ns,
            )
        self.faults = injector_for("iommu")
        # Set by an aborting translate(), consumed by the driver's
        # translate_for_dma() wrapper; a flag rather than a field on
        # every TranslationResult keeps driver translate() signatures
        # (and their subclass overrides) untouched.
        self._abort_pending = False
        if self.config.walkers <= 0:
            raise ValueError("need at least one walker")
        self._walker_free = [0.0] * self.config.walkers
        # One-entry translation fast path.  The NIC splits every 4 KB
        # page into max_payload-sized TLPs, so consecutive translate()
        # calls overwhelmingly repeat the same (source, page).  Cache
        # the last hit keyed on (source, page, IOTLB generation): any
        # IOTLB mutation — insert, eviction, invalidation, flush —
        # bumps the generation and kills the entry, so the cache can
        # never outlive the IOTLB entry it mirrors.  Disabled when a
        # hit needs per-call work the cache would skip (stale-hit
        # checking in deferred mode, the invariant monitor).
        self._fast_enabled = (
            self.monitor is None and not self.config.check_stale_hits
        )
        self._fast_page = -1
        self._fast_source = ""
        self._fast_gen = -1
        self._fast_result: Optional[TranslationResult] = None
        self.obs = current_registry()
        # Hoisted once: reserve_walk runs per page walk and must not
        # re-dereference obs.tracer each time.
        self._tracer = self.obs.tracer if self.obs is not None else None
        if self.obs is not None:
            scope = self.obs.scope("iommu")
            scope.counter("translations", lambda: self.stats.translations)
            scope.counter("iotlb_hits", lambda: self.stats.iotlb_hits)
            scope.counter("iotlb_misses", lambda: self.stats.iotlb_misses)
            scope.counter("walks", lambda: self.stats.walks)
            scope.counter("memory_reads", lambda: self.stats.memory_reads)
            scope.counter("faults", lambda: self.stats.faults)
            scope.counter(
                "invalidation_requests",
                lambda: self.stats.invalidation_requests,
            )
            for level in (1, 2, 3):
                scope.counter(
                    f"ptcache_m{level}",
                    lambda level=level: (
                        self.stats.ptcache_counted_misses[level]
                    ),
                )

    # ------------------------------------------------------------------
    # Translation (the per-transaction fast path)
    # ------------------------------------------------------------------
    def translate(self, iova: int, source: str = "rx") -> TranslationResult:
        """Translate one IOVA as the root complex would.

        Probes the IOTLB; on a miss, probes the PTcaches (in parallel,
        deepest hit wins), walks the remaining levels, refills every
        cache, and reports the number of memory reads the walk cost.
        Raises :class:`DmaFault` if no translation exists anywhere.
        """
        stats = self.stats
        stats.translations += 1
        by_source = stats.translations_by_source
        by_source[source] = by_source.get(source, 0) + 1

        if (
            self.faults is not None
            and self.fault_queue is not None
            and self.faults.spurious_fault(iova, source)
        ):
            # Fault storm: the access is perfectly valid but the
            # reporting path aborts it anyway.  Rolled per translation,
            # so this must run before the fast-path replay.
            return self._abort(iova, source, "storm")

        iotlb = self.iotlb
        if (
            self._fast_page == (iova >> 12)
            and self._fast_gen == iotlb.generation
            and self._fast_source == source
        ):
            # Same page, same IOTLB state: replay the cached hit.  All
            # counters an IOTLB hit would touch are still bumped, and
            # re-touching the MRU entry's LRU position is a no-op, so
            # statistics and cache state match the slow path exactly.
            stats.iotlb_hits += 1
            iotlb.hits += 1
            return self._fast_result  # type: ignore[return-value]

        frame = iotlb.lookup(iova)
        if frame is not None:
            stats.iotlb_hits += 1
            # A present IOTLB entry is used without consulting the page
            # table — if the page table no longer maps this IOVA the
            # access is *stale* (deferred-mode safety hole).
            stale = (
                self.config.check_stale_hits
                and not self.page_table.is_mapped(iova)
            )
            if self.monitor is not None:
                self.monitor.record(
                    TranslateEvent(iova, source, True, stale, frame),
                    owner=id(self.iotlb),
                )
            result = TranslationResult(
                frame=frame, iotlb_hit=True, memory_reads=0, stale=stale
            )
            if self._fast_enabled:
                self._fast_page = iova >> 12
                self._fast_source = source
                self._fast_gen = iotlb.generation
                self._fast_result = result
            return result

        stats.iotlb_misses += 1
        misses_by_source = stats.iotlb_misses_by_source
        misses_by_source[source] = misses_by_source.get(source, 0) + 1

        walk = self.page_table.walk(iova)
        if walk is None:
            if self.fault_queue is not None:
                return self._abort(iova, source, "unmapped")
            stats.faults += 1
            if self.monitor is not None:
                self.monitor.record(
                    DmaFaultEvent(iova, source), owner=id(self.iotlb)
                )
            raise DmaFault(iova)
        stats.walks += 1
        # A huge walk terminates at the PT-L3 entry: its page chain has
        # three pages, only PTcache-L1 and PTcache-L2 can shorten it,
        # and it costs 1-3 memory reads instead of 1-4.  The probe also
        # counts the paper's m1/m2/m3 into stats.ptcache_counted_misses.
        pages = walk.pages
        memory_reads = len(pages) - self.ptcaches.probe(iova, pages)
        if walk.huge:
            iotlb.insert_huge(iova, walk.frame - ((iova >> 12) & 511))
        else:
            iotlb.insert(iova, walk.frame)
        stats.memory_reads += memory_reads
        if self.monitor is not None:
            self.monitor.record(
                TranslateEvent(iova, source, False, False, walk.frame),
                owner=id(self.iotlb),
            )
        if self._fast_enabled:
            # The insert above made this page the IOTLB's MRU entry:
            # the *next* translate of it would be a plain hit, so cache
            # a hit-shaped result (generation snapshot is post-insert).
            self._fast_page = iova >> 12
            self._fast_source = source
            self._fast_gen = iotlb.generation
            self._fast_result = TranslationResult(
                frame=walk.frame, iotlb_hit=True, memory_reads=0
            )
        return TranslationResult(
            frame=walk.frame,
            iotlb_hit=False,
            memory_reads=memory_reads,
        )

    def _abort(
        self, iova: int, source: str, reason: str
    ) -> TranslationResult:
        """Hard-fault path: kill the transaction and log a record."""
        self.stats.faults += 1
        if self.monitor is not None:
            self.monitor.record(
                DmaFaultEvent(iova, source), owner=id(self.iotlb)
            )
        assert self.fault_queue is not None
        self.fault_queue.report(iova, source, reason)
        self._abort_pending = True
        return TranslationResult(
            frame=0, iotlb_hit=False, memory_reads=0, aborted=True
        )

    def consume_abort(self) -> bool:
        """True iff the most recent :meth:`translate` call aborted.

        Drivers' ``translate()`` overrides return only a read count, so
        the abort outcome travels out-of-band through this one-shot
        flag; :meth:`~repro.protection.base.ProtectionDriver.
        translate_for_dma` is the only consumer.
        """
        if self._abort_pending:
            self._abort_pending = False
            return True
        return False

    def enable_stale_hit_checks(self) -> None:
        """Turn on the per-hit stale check (deferred-mode diagnostics).

        Must be used instead of flipping ``config.check_stale_hits``
        directly: a cached fast-path entry replays hits without
        consulting the page table, which would hide exactly the stale
        accesses the check exists to surface, so the fast path is
        disabled and any armed entry is dropped.
        """
        self.config.check_stale_hits = True
        self._disarm_fast_path()

    def attach_monitor(self, monitor) -> None:
        """Attach an invariant monitor after construction.

        Sets the monitor on every part of the IOMMU and disarms the
        fast path, as construction under ``monitored(...)`` does: a
        replayed hit (and a replayed burst, see
        :func:`~repro.iommu.batch.burst_ready`) emits no
        ``TranslateEvent``, so the monitor would miss translations.
        """
        self.monitor = monitor
        self.page_table.monitor = monitor
        self.iotlb.monitor = monitor
        self.invalidation_queue.monitor = monitor
        for cache in self.ptcaches.levels:
            cache.monitor = monitor
        self._disarm_fast_path()

    def _disarm_fast_path(self) -> None:
        """Disable the one-entry fast path and drop any armed entry."""
        self._fast_enabled = False
        self._fast_page = -1
        self._fast_result = None

    # ------------------------------------------------------------------
    # Walker timing
    # ------------------------------------------------------------------
    def reserve_walk(
        self,
        now: float,
        memory_reads: int,
        utilization: float = 0.0,
        channel: Optional[int] = None,
    ) -> float:
        """Reserve one walk of ``memory_reads`` *sequential* reads.

        Reads within a walk serialize (each level's read depends on the
        previous); walks for different pages run on the IOMMU's walker
        channels.  By default a walk takes the least-loaded channel —
        concurrent walks overlap up to the walker count and queue
        beyond it, which is what makes cheap (1-read) F&S walks almost
        free while expensive (4-read) post-invalidation walks back up.
        Passing ``channel`` pins the walk for tests.  ``utilization``
        optionally inflates per-read latency under memory-bandwidth
        contention.  Returns the completion time.
        """
        if memory_reads <= 0:
            return now
        read_ns = self.memory.read_latency_ns(utilization)
        channels = self._walker_free
        if channel is None:
            index = min(range(len(channels)), key=channels.__getitem__)
        else:
            index = channel % len(channels)
        start = max(now, channels[index])
        finish = start + memory_reads * read_ns
        channels[index] = finish
        if self._tracer is not None:
            self._tracer.complete(
                "walk",
                f"walker{index}",
                start,
                finish - start,
                reads=memory_reads,
            )
        return finish

    @property
    def walker_busy_until(self) -> float:
        """When the most-loaded walker channel frees up."""
        return max(self._walker_free)

    # ------------------------------------------------------------------
    # Mapping interface used by protection drivers
    # ------------------------------------------------------------------
    def map_page(self, iova: int, frame: int) -> None:
        self.page_table.map_page(iova, frame)
        if self.monitor is not None:
            self.monitor.record(
                MapEvent(iova, 1 << 12), owner=id(self.iotlb)
            )

    def map_range(self, iova: int, frames: list[int]) -> None:
        self.page_table.map_range(iova, frames)
        if self.monitor is not None:
            self.monitor.record(
                MapEvent(iova, len(frames) << 12), owner=id(self.iotlb)
            )

    def map_huge(self, iova: int, base_frame: int) -> None:
        """Install a 2 MB leaf (see :meth:`IOPageTable.map_huge`)."""
        self.page_table.map_huge(iova, base_frame)
        if self.monitor is not None:
            self.monitor.record(
                MapEvent(iova, 1 << 21, huge=True), owner=id(self.iotlb)
            )

    def unmap_range(self, iova: int, length: int):
        """Unmap a range in one operation; returns reclaimed PT pages."""
        reclaimed = self.page_table.unmap_range(iova, length)
        if self.monitor is not None:
            self.monitor.record(
                UnmapEvent(
                    iova,
                    length,
                    tuple(page.level for page in reclaimed),
                ),
                owner=id(self.iotlb),
            )
        return reclaimed
