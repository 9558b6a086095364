"""The IOTLB: a set-associative, LRU cache of IOVA → frame translations.

Real IOTLB geometries are not public; the default (128 entries, 8-way)
is in the range prior work assumes [Amit et al. 2010; Neugebauer et al.
2018] and is configurable.  Under the strict protection mode the IOTLB
miss *count* is dominated by compulsory misses (every page's first
transaction after its IOVA was invalidated), so the experiments are not
sensitive to the exact geometry; contention-induced extra misses (the
paper's 1.3–2.2 misses/page) come from concurrent Rx/Tx translations
and do depend on associativity, which tests cover.

Python dicts iterate in insertion order, so each set is a dict used as
an LRU list: hits delete + reinsert the key, evictions pop the oldest.
"""

from __future__ import annotations

from typing import Optional

from ..obs.hooks import current_registry
from ..verify.events import InvalidationEvent, IotlbEvictEvent
from ..verify.hooks import current_monitor
from .addr import PAGE_SHIFT, PAGE_SIZE

__all__ = ["Iotlb"]


class Iotlb:
    """Set-associative LRU IOTLB over 4 KB translations."""

    def __init__(
        self, entries: int = 128, ways: int = 8, huge_entries: int = 32
    ) -> None:
        if entries <= 0 or ways <= 0:
            raise ValueError("entries and ways must be positive")
        if entries % ways:
            raise ValueError("entries must be a multiple of ways")
        self.entries = entries
        self.ways = ways
        self.num_sets = entries // ways
        self._sets: list[dict[int, int]] = [dict() for _ in range(self.num_sets)]
        # Dedicated 2 MB-translation array (hardware IOTLBs keep huge
        # entries in a separate, smaller structure).  Fully associative
        # LRU; key is iova >> 21, value is the base frame of the 512
        # contiguous backing frames.
        self.huge_entries = huge_entries
        self._huge: dict[int, int] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        # Bumped on every mutation (insert/invalidate/flush).  The
        # IOMMU's one-entry translation fast path caches a (page,
        # generation) pair and treats any generation change as a cache
        # kill, so it can never return a translation the IOTLB no
        # longer holds.
        self.generation = 0
        # Safety-invariant monitor (repro.verify); None in normal runs.
        self.monitor = current_monitor()
        self.obs = current_registry()
        if self.obs is not None:
            scope = self.obs.scope("iotlb")
            scope.counter("hits", lambda: self.hits)
            scope.counter("misses", lambda: self.misses)
            scope.counter("invalidations", lambda: self.invalidations)
            scope.counter("evictions", lambda: self.evictions)
            scope.gauge("resident", lambda: self.resident_entries)
            scope.gauge("huge_resident", lambda: len(self._huge))

    def _set_for(self, page_number: int) -> dict[int, int]:
        return self._sets[page_number % self.num_sets]

    def lookup(self, iova: int) -> Optional[int]:
        """Probe the IOTLB; returns the frame on hit, ``None`` on miss.

        Both the 4 KB array and the 2 MB array are probed (hardware
        checks them in parallel)."""
        page_number = iova >> PAGE_SHIFT
        entry_set = self._set_for(page_number)
        frame = entry_set.get(page_number)
        if frame is None:
            huge_key = iova >> 21
            base = self._huge.get(huge_key)
            if base is not None:
                del self._huge[huge_key]
                self._huge[huge_key] = base
                self.hits += 1
                return base + (page_number & 511)
            self.misses += 1
            return None
        # LRU touch: move to the back of the insertion order.
        del entry_set[page_number]
        entry_set[page_number] = frame
        self.hits += 1
        return frame

    def contains(self, iova: int) -> bool:
        """Non-counting, non-LRU-touching presence check.

        Used by safety checks ("could the device still translate this
        IOVA?") that must not perturb the statistics.
        """
        page_number = iova >> PAGE_SHIFT
        if page_number in self._set_for(page_number):
            return True
        return (iova >> 21) in self._huge

    def insert(self, iova: int, frame: int) -> None:
        """Install a translation, evicting the set's LRU entry if full."""
        self.generation += 1
        page_number = iova >> PAGE_SHIFT
        entry_set = self._set_for(page_number)
        if page_number in entry_set:
            del entry_set[page_number]
        elif len(entry_set) >= self.ways:
            oldest = next(iter(entry_set))
            del entry_set[oldest]
            self.evictions += 1
            if self.monitor is not None:
                self.monitor.record(
                    IotlbEvictEvent(oldest << PAGE_SHIFT), owner=id(self)
                )
        entry_set[page_number] = frame

    def insert_huge(self, iova: int, base_frame: int) -> None:
        """Install a 2 MB translation, LRU-evicting from the huge array."""
        self.generation += 1
        key = iova >> 21
        if key in self._huge:
            del self._huge[key]
        elif len(self._huge) >= self.huge_entries:
            del self._huge[next(iter(self._huge))]
            self.evictions += 1
        self._huge[key] = base_frame

    def invalidate_page(self, iova: int) -> bool:
        """Drop any entry translating one IOVA page; returns whether one
        existed.

        A page-granule invalidation must drop a *covering* 2 MB entry
        too, not just an exact 4 KB match — hardware invalidates any
        cached translation for the address, whatever its size.  Keeping
        the huge entry would leave the device a stale translation for
        the whole 2 MB region after a strict-mode per-page unmap.
        """
        self.generation += 1
        page_number = iova >> PAGE_SHIFT
        entry_set = self._set_for(page_number)
        dropped = False
        if page_number in entry_set:
            del entry_set[page_number]
            self.invalidations += 1
            dropped = True
        huge_key = iova >> 21
        if huge_key in self._huge:
            del self._huge[huge_key]
            self.invalidations += 1
            dropped = True
        if self.monitor is not None:
            # The invalidation completes whether or not an entry was
            # resident; afterwards any successful translation of this
            # page is a use-after-unmap.  An IOTLB-level invalidation
            # inherently leaves the PTcaches alone.
            self.monitor.record(
                InvalidationEvent(
                    iova & ~(PAGE_SIZE - 1), PAGE_SIZE, True
                ),
                owner=id(self),
            )
        return dropped

    def invalidate_range(self, iova: int, length: int) -> int:
        """Drop all entries within ``[iova, iova + length)``.

        Returns the number of entries dropped.  This is the semantics of
        a single VT-d invalidation-queue IOTLB descriptor with an
        address-range granule — the operation F&S uses for its batched
        per-descriptor invalidations.
        """
        self.generation += 1
        first = iova >> PAGE_SHIFT
        last = (iova + length - 1) >> PAGE_SHIFT
        dropped = 0
        span = last - first + 1
        if span == 1:
            # One page (Linux strict mode's per-page call): a single pop.
            # Frame 0 is a valid frame, hence the ``is not None``.
            entry_set = self._sets[first % self.num_sets]
            if entry_set.pop(first, None) is not None:
                dropped = 1
        elif span >= self.entries:
            # Cheaper to scan every resident entry than every page.
            for entry_set in self._sets:
                for page_number in [
                    p for p in entry_set if first <= p <= last
                ]:
                    del entry_set[page_number]
                    dropped += 1
        else:
            for page_number in range(first, last + 1):
                entry_set = self._set_for(page_number)
                if page_number in entry_set:
                    del entry_set[page_number]
                    dropped += 1
        if self._huge:
            first_huge = iova >> 21
            last_huge = (iova + length - 1) >> 21
            for key in [
                k for k in self._huge if first_huge <= k <= last_huge
            ]:
                del self._huge[key]
                dropped += 1
        self.invalidations += dropped
        return dropped

    def flush(self) -> int:
        """Global invalidation (the deferred mode's periodic flush)."""
        self.generation += 1
        dropped = sum(len(s) for s in self._sets) + len(self._huge)
        for entry_set in self._sets:
            entry_set.clear()
        self._huge.clear()
        self.invalidations += dropped
        return dropped

    @property
    def resident_entries(self) -> int:
        return sum(len(s) for s in self._sets) + len(self._huge)

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0
