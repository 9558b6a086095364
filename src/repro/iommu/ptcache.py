"""IO page table caches (PTcache-L1/L2/L3).

These are the caches the paper's contribution revolves around: per-level
caches inside the IOMMU that map a truncated IOVA to the *next-level
page-table page*, letting a walk skip the upper levels.  A PTcache-L3
hit reduces a walk to a single memory read (the PT-L4 entry).

Geometry defaults follow the paper's estimate (its Fig 2e/3e red lines
put PTcache-L3 at 64–128 entries; we default to 64, the conservative
end) and are configurable.  Each cache is fully associative LRU — upper
level caches in CPU MMUs are typically small and fully associative
[Bhattacharjee 2013], and the paper's reuse-distance methodology
implicitly assumes LRU.

A :class:`PtCacheHierarchy` bundles the three levels and implements the
"probe all levels in parallel, use the deepest hit" walk-shortening
behaviour, plus the two invalidation policies the paper contrasts:

* ``invalidate_range`` — drop every entry covering the range at *all*
  levels (what Linux does on every unmap);
* targeted invalidation of entries pointing at *reclaimed* page-table
  pages only (all F&S needs for correctness).
"""

from __future__ import annotations

from typing import Optional

from ..obs.hooks import current_registry
from ..verify.events import PtCacheHitEvent
from ..verify.hooks import current_monitor
from .addr import LEVEL_SHIFTS, ptcache_key

__all__ = ["PtCache", "PtCacheHierarchy"]


class PtCache:
    """One fully-associative LRU page-table cache level."""

    def __init__(self, level: int, entries: int) -> None:
        if level not in (1, 2, 3):
            raise ValueError("PTcache levels are 1, 2 and 3")
        if entries <= 0:
            raise ValueError("entries must be positive")
        self.level = level
        self.shift = LEVEL_SHIFTS[level]
        self.capacity = entries
        self._entries: dict[int, object] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        # Safety-invariant monitor (repro.verify); None in normal runs.
        self.monitor = current_monitor()
        self.obs = current_registry()
        if self.obs is not None:
            scope = self.obs.scope(f"ptcache.l{level}")
            scope.counter("hits", lambda: self.hits)
            scope.counter("misses", lambda: self.misses)
            scope.counter("invalidations", lambda: self.invalidations)
            scope.counter("evictions", lambda: self.evictions)
            scope.gauge("resident", lambda: len(self._entries))

    def lookup(self, iova: int) -> Optional[object]:
        """Probe for the PT page covering ``iova`` at this level."""
        key = ptcache_key(iova, self.level)
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        del self._entries[key]
        self._entries[key] = value
        self.hits += 1
        if self.monitor is not None:
            self.monitor.record(PtCacheHitEvent(self.level, iova, value))
        return value

    def contains(self, iova: int) -> bool:
        """Non-counting, non-LRU-touching presence check (for tests)."""
        return ptcache_key(iova, self.level) in self._entries

    def insert(self, iova: int, page: object) -> None:
        key = ptcache_key(iova, self.level)
        if key in self._entries:
            del self._entries[key]
        elif len(self._entries) >= self.capacity:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            self.evictions += 1
        self._entries[key] = page

    def invalidate_range(self, iova: int, length: int) -> int:
        """Drop entries whose coverage intersects ``[iova, iova+length)``."""
        first = iova >> self.shift
        last = (iova + length - 1) >> self.shift
        dropped = 0
        if first == last:
            # One entry covers the whole range (every per-page
            # invalidation): a single pop.
            if self._entries.pop(first, None) is not None:
                dropped = 1
        elif last - first + 1 >= len(self._entries):
            for key in [k for k in self._entries if first <= k <= last]:
                del self._entries[key]
                dropped += 1
        else:
            for key in range(first, last + 1):
                if key in self._entries:
                    del self._entries[key]
                    dropped += 1
        self.invalidations += dropped
        return dropped

    def flush(self) -> int:
        dropped = len(self._entries)
        self._entries.clear()
        self.invalidations += dropped
        return dropped

    @property
    def resident_entries(self) -> int:
        return len(self._entries)


class PtCacheHierarchy:
    """The three PTcache levels plus walk-shortening and miss accounting."""

    def __init__(
        self,
        l1_entries: int = 32,
        l2_entries: int = 32,
        l3_entries: int = 64,
    ) -> None:
        self.l1 = PtCache(1, l1_entries)
        self.l2 = PtCache(2, l2_entries)
        self.l3 = PtCache(3, l3_entries)
        # The paper's m1/m2/m3: counted (read-adding) misses per level,
        # i.e. misses at level i that also missed at every deeper level.
        self.counted_misses = {1: 0, 2: 0, 3: 0}
        self._levels = (self.l1, self.l2, self.l3)
        # Levels a walk ending at PT-L``top+1`` probes, deepest first.
        self._probe_order: dict[int, tuple[PtCache, ...]] = {
            2: (self.l2, self.l1),
            3: (self.l3, self.l2, self.l1),
        }

    @property
    def levels(self) -> tuple[PtCache, PtCache, PtCache]:
        return self._levels

    def probe(self, iova: int, walk_pages) -> int:
        """Probe and refill the levels of one walk; deepest hit wins.

        ``walk_pages`` is the PT-L1..PT-L4 page chain from
        :meth:`IOPageTable.walk` (PT-L1..PT-L3 for a huge walk, which
        ends at PT-L3, so only PTcache-L1/L2 take part).  The
        PTcache-L``i`` entry points at the PT-L``i+1`` page.

        Each level is probed (conceptually in parallel, deepest first)
        and refilled in one pass: the key is popped, the hit or miss is
        counted, a miss at capacity evicts the LRU entry, and the walked
        page goes back in as the MRU entry.  That is exactly the effect
        of a :meth:`PtCache.lookup` followed by a :meth:`PtCache.insert`
        per level.  The paper-style counted misses are updated too.

        Returns the deepest hit level (0 if every level missed); the
        walk then needs ``len(walk_pages) - deepest`` memory reads.
        """
        top = len(walk_pages) - 1
        deepest = 0
        for cache in self._probe_order[top]:
            entries = cache._entries
            key = iova >> cache.shift
            value = entries.pop(key, None)
            if value is None:
                cache.misses += 1
                if len(entries) >= cache.capacity:
                    del entries[next(iter(entries))]
                    cache.evictions += 1
            else:
                cache.hits += 1
                if not deepest:
                    deepest = cache.level
                if cache.monitor is not None:
                    cache.monitor.record(
                        PtCacheHitEvent(cache.level, iova, value)
                    )
            entries[key] = walk_pages[cache.level]
        counted = self.counted_misses
        for level in range(deepest + 1, top + 1):
            counted[level] += 1
        return deepest

    def invalidate_range(self, iova: int, length: int) -> int:
        """Linux policy: drop covering entries at every level."""
        return (
            self.l1.invalidate_range(iova, length)
            + self.l2.invalidate_range(iova, length)
            + self.l3.invalidate_range(iova, length)
        )

    def flush(self) -> int:
        return self.l1.flush() + self.l2.flush() + self.l3.flush()
