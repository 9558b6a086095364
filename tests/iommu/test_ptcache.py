"""Unit tests for the IO page table caches (PTcache-L1/L2/L3)."""

import pytest

from repro.iommu import PtCache, PtCacheHierarchy
from repro.iommu.addr import LEVEL_SHIFTS


def fake_walk_pages():
    """A stand-in 4-element PT page chain for fills."""
    return ("l1", "l2", "l3", "l4")


class TestPtCache:
    def test_coverage_sharing_at_l3(self):
        cache = PtCache(level=3, entries=4)
        base = 10 << LEVEL_SHIFTS[3]
        cache.insert(base, "page")
        # Anywhere in the same 2 MB region hits the same entry.
        assert cache.lookup(base + 2**21 - 1) == "page"
        assert cache.lookup(base + 2**21) is None

    def test_lru_eviction(self):
        cache = PtCache(level=3, entries=2)
        region = LEVEL_SHIFTS[3]
        cache.insert(0 << region, "a")
        cache.insert(1 << region, "b")
        cache.lookup(0)  # touch "a"
        cache.insert(2 << region, "c")  # evicts "b"
        assert cache.lookup(1 << region) is None
        assert cache.lookup(0) == "a"
        assert cache.evictions == 1

    def test_invalidate_range_covers_intersections(self):
        cache = PtCache(level=3, entries=8)
        region = 1 << LEVEL_SHIFTS[3]
        for i in range(4):
            cache.insert(i * region, f"p{i}")
        # A range touching the tail of region 0 and head of region 2.
        dropped = cache.invalidate_range(region - 4096, region + 8192)
        assert dropped == 3  # regions 0, 1, 2
        assert cache.contains(3 * region)

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            PtCache(level=4, entries=8)

    def test_flush(self):
        cache = PtCache(level=1, entries=8)
        cache.insert(0, "x")
        assert cache.flush() == 1
        assert cache.resident_entries == 0


class TestHierarchyProbe:
    """``probe`` probes and refills every level a walk passed through;
    it returns the deepest hit level, and a 4-level walk then costs
    ``4 - deepest`` memory reads."""

    def test_all_miss_costs_four_reads(self):
        caches = PtCacheHierarchy()
        deepest = caches.probe(0x1000, fake_walk_pages())
        assert deepest == 0
        assert caches.counted_misses == {1: 1, 2: 1, 3: 1}

    def test_l3_hit_costs_one_read(self):
        """The paper's best case: PTcache-L3 hit -> a single PT-L4 read."""
        caches = PtCacheHierarchy()
        caches.probe(0x1000, fake_walk_pages())
        deepest = caches.probe(0x1000, fake_walk_pages())
        assert deepest == 3

    def test_l2_hit_costs_two_reads(self):
        caches = PtCacheHierarchy(l3_entries=1)
        caches.probe(0x1000, fake_walk_pages())
        # Evict only the L3 entry by filling a different 2 MB region.
        caches.l3.insert(5 << 21, "other")
        deepest = caches.probe(0x1000, fake_walk_pages())
        assert deepest == 2

    def test_l1_hit_costs_three_reads(self):
        caches = PtCacheHierarchy(l2_entries=1, l3_entries=1)
        caches.probe(0x1000, fake_walk_pages())
        caches.l3.insert(5 << 21, "other")
        caches.l2.insert(5 << 30, "other")
        deepest = caches.probe(0x1000, fake_walk_pages())
        assert deepest == 1

    def test_counted_misses_follow_paper_accounting(self):
        """m1 <= m2 <= m3: a level-i miss is counted only when every
        deeper level also missed (it then adds a memory read)."""
        caches = PtCacheHierarchy()
        caches.probe(0x1000, fake_walk_pages())
        caches.l3.flush()
        before = dict(caches.counted_misses)
        caches.probe(0x1000, fake_walk_pages())  # L3 miss, L2 hit
        counted = {
            level: caches.counted_misses[level] - before[level]
            for level in (1, 2, 3)
        }
        assert counted == {1: 0, 2: 0, 3: 1}

    def test_fill_populates_all_levels(self):
        caches = PtCacheHierarchy()
        caches.probe(0x1000, fake_walk_pages())
        assert caches.l1.lookup(0x1000) == "l2"
        assert caches.l2.lookup(0x1000) == "l3"
        assert caches.l3.lookup(0x1000) == "l4"

    def test_huge_walk_probes_only_upper_levels(self):
        """A huge walk ends at PT-L3: PTcache-L3 is neither probed nor
        filled, and L3 misses are not counted."""
        caches = PtCacheHierarchy()
        assert caches.probe(0x1000, ("l1", "l2", "l3")) == 0
        assert caches.counted_misses == {1: 1, 2: 1, 3: 0}
        assert caches.l3.misses == 0
        assert not caches.l3.contains(0x1000)
        assert caches.probe(0x1000, ("l1", "l2", "l3")) == 2

    def test_probe_refreshes_lru_like_lookup_then_insert(self):
        caches = PtCacheHierarchy(l3_entries=2)
        region = 1 << LEVEL_SHIFTS[3]
        caches.probe(0, fake_walk_pages())
        caches.probe(region, fake_walk_pages())
        caches.probe(0, ("l1", "l2", "l3", "new"))  # hit: 0 becomes MRU
        caches.probe(2 * region, fake_walk_pages())  # evicts region 1
        assert caches.l3.evictions == 1
        assert not caches.l3.contains(region)
        assert caches.l3.lookup(0) == "new"

    def test_invalidate_range_hits_all_levels(self):
        """Linux's unmap behaviour: one page's invalidation drops the
        covering entry at every level — the root cause of the paper's
        PTcache-L1/L2 misses."""
        caches = PtCacheHierarchy()
        caches.probe(0x1000, fake_walk_pages())
        dropped = caches.invalidate_range(0x1000, 4096)
        assert dropped == 3
        assert caches.probe(0x1000, fake_walk_pages()) == 0

    def test_shared_entries_across_nearby_iovas(self):
        """Two IOVAs in the same 2 MB region share all PTcache entries —
        the locality F&S's contiguous allocation creates."""
        caches = PtCacheHierarchy()
        caches.probe(0x1000, fake_walk_pages())
        assert caches.probe(0x1000 + 64 * 4096, fake_walk_pages()) == 3
