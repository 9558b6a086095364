"""Regression tests for the DMA-safety invariant monitor.

Each invariant gets two tests: the correct implementation passes, and a
deliberately broken variant (a skipped invalidation, a forged IOTLB
entry, an overlapping allocation) makes the monitor raise
:class:`InvariantViolation` with the right ``kind`` and a usable trace.
"""

import pytest

from repro.iommu import Iommu, burst_ready
from repro.iommu.addr import PAGE_SIZE
from repro.iommu.iommu import DmaFault
from repro.iova.allocator import RbTreeIovaAllocator
from repro.iova.caching import CachingIovaAllocator
from repro.verify import (
    InvalidationEvent,
    InvariantMonitor,
    InvariantViolation,
    TranslateEvent,
    UnmapEvent,
    monitored,
)

HUGE = 512 * PAGE_SIZE  # one PT-L4 page's coverage (2 MB)


def make_iommu(monitor):
    with monitored(monitor):
        return Iommu()


# ---------------------------------------------------------------------------
# Invariant (a): use-after-unmap
# ---------------------------------------------------------------------------
def test_translate_after_complete_invalidation_violates():
    monitor = InvariantMonitor()
    iommu = make_iommu(monitor)
    iova = 0x4000
    iommu.map_page(iova, frame=7)
    iommu.translate(iova)
    iommu.unmap_range(iova, PAGE_SIZE)
    iommu.invalidation_queue.invalidate_range(
        iova, PAGE_SIZE, preserve_ptcache=False
    )
    # A correct IOMMU faults now; forge the stale IOTLB entry a missing
    # invalidation would have left behind.
    iommu.iotlb.insert(iova, 7)
    with pytest.raises(InvariantViolation) as excinfo:
        iommu.translate(iova)
    assert excinfo.value.kind == "use-after-unmap"
    # The trace explains the violation: the unmap and its invalidation
    # for this IOVA must both be visible.
    touching = excinfo.value.events_touching()
    assert any(isinstance(event, UnmapEvent) for event in touching)
    assert any(isinstance(event, InvalidationEvent) for event in touching)
    assert isinstance(touching[-1], TranslateEvent)


def test_correct_unmap_faults_without_violation():
    monitor = InvariantMonitor()
    iommu = make_iommu(monitor)
    iova = 0x4000
    iommu.map_page(iova, frame=7)
    iommu.translate(iova)
    iommu.unmap_range(iova, PAGE_SIZE)
    iommu.invalidation_queue.invalidate_range(
        iova, PAGE_SIZE, preserve_ptcache=False
    )
    with pytest.raises(DmaFault):
        iommu.translate(iova)
    assert monitor.ok
    assert monitor.faults_observed == 1


def test_remap_revives_page():
    monitor = InvariantMonitor()
    iommu = make_iommu(monitor)
    iova = 0x4000
    iommu.map_page(iova, frame=7)
    iommu.unmap_range(iova, PAGE_SIZE)
    iommu.invalidation_queue.invalidate_range(
        iova, PAGE_SIZE, preserve_ptcache=False
    )
    iommu.map_page(iova, frame=9)
    assert iommu.translate(iova).frame == 9
    assert monitor.ok


def test_unmapped_but_uninvalidated_counts_stale_window():
    """Deferred mode's hole: unmapped, invalidation pending — counted,
    not a strict violation (the invalidation has not completed)."""
    monitor = InvariantMonitor()
    with monitored(monitor):
        iommu = Iommu()
        iommu.config.check_stale_hits = True
    iova = 0x4000
    iommu.map_page(iova, frame=7)
    iommu.translate(iova)
    iommu.unmap_range(iova, PAGE_SIZE)
    result = iommu.translate(iova)  # stale IOTLB hit, no invalidation yet
    assert result.stale
    assert monitor.ok
    assert monitor.stale_window_translations == 1


# ---------------------------------------------------------------------------
# Invariant (b): stale PTcache consultation
# ---------------------------------------------------------------------------
def _prime_and_reclaim(iommu, base):
    """Map 2 MB of 4 KB pages, cache its PT-L4 page, reclaim it."""
    iommu.map_range(base, list(range(1000, 1512)))
    iommu.translate(base)  # PTcache-L3 now caches the PT-L4 page
    reclaimed = iommu.unmap_range(base, HUGE)  # whole-page unmap reclaims
    assert any(page.level == 4 for page in reclaimed)
    iommu.invalidation_queue.invalidate_range(
        base, HUGE, preserve_ptcache=True
    )
    return reclaimed


def test_preserved_ptcache_after_reclaim_violates():
    monitor = InvariantMonitor()
    iommu = make_iommu(monitor)
    base = 4 * HUGE
    _prime_and_reclaim(iommu, base)
    # Broken driver: skips the PTcache fallback invalidation.  The next
    # walk in the region consults the preserved entry, which points at
    # the reclaimed page-table page.
    iommu.map_range(base, list(range(2000, 2512)))
    with pytest.raises(InvariantViolation) as excinfo:
        iommu.translate(base)
    assert excinfo.value.kind == "stale-ptcache"


def test_ptcache_fallback_invalidation_is_safe():
    monitor = InvariantMonitor()
    iommu = make_iommu(monitor)
    base = 4 * HUGE
    reclaimed = _prime_and_reclaim(iommu, base)
    # Correct driver (F&S's fallback): drop the PTcache entries covering
    # every reclaimed page-table page.
    for page in reclaimed:
        iommu.invalidation_queue.invalidate_ptcache_range(
            page.base_iova, page.coverage_bytes
        )
    iommu.map_range(base, list(range(2000, 2512)))
    iommu.translate(base)
    assert monitor.ok


def test_descriptor_granularity_unmaps_never_reclaim():
    """Page-sized unmaps reclaim nothing, so preserving PTcaches across
    them (F&S's whole point) never violates."""
    monitor = InvariantMonitor()
    iommu = make_iommu(monitor)
    base = 4 * HUGE
    iommu.map_range(base, list(range(1000, 1016)))
    iommu.translate(base)
    for index in range(16):
        reclaimed = iommu.unmap_range(base + index * PAGE_SIZE, PAGE_SIZE)
        assert reclaimed == []
        iommu.invalidation_queue.invalidate_range(
            base + index * PAGE_SIZE, PAGE_SIZE, preserve_ptcache=True
        )
    iommu.map_range(base, list(range(3000, 3016)))
    iommu.translate(base + PAGE_SIZE)
    assert monitor.ok


# ---------------------------------------------------------------------------
# Invariant (c): allocator discipline
# ---------------------------------------------------------------------------
def test_rbtree_alloc_free_cycle_is_clean():
    monitor = InvariantMonitor()
    with monitored(monitor):
        allocator = RbTreeIovaAllocator()
    spans = [allocator.alloc(4) for _ in range(8)]
    for iova in spans:
        allocator.free(iova, 4)
    assert monitor.ok


def test_overlapping_allocation_violates():
    monitor = InvariantMonitor()
    with monitored(monitor):
        allocator = RbTreeIovaAllocator()
    # Break the gap scan so it hands out the same range twice.
    allocator._scan_down = lambda start, pages, align_pages=1: (0x100, 0)
    allocator.alloc(4)
    with pytest.raises(InvariantViolation) as excinfo:
        allocator.alloc(2)
    assert excinfo.value.kind == "iova-overlap"


def test_double_free_through_rcache_violates():
    """The Linux rcache silently parks a double-freed IOVA in a magazine
    — handing the same range to two owners later.  Only the monitor
    catches the bug at the moment of the bad free."""
    monitor = InvariantMonitor()
    with monitored(monitor):
        allocator = CachingIovaAllocator(num_cpus=2)
    iova = allocator.alloc(1, cpu=0)
    allocator.free(iova, 1, cpu=0)
    with pytest.raises(InvariantViolation) as excinfo:
        allocator.free(iova, 1, cpu=1)
    assert excinfo.value.kind == "iova-bad-free"


def test_free_with_wrong_size_violates():
    monitor = InvariantMonitor()
    with monitored(monitor):
        allocator = RbTreeIovaAllocator()
    iova = allocator.alloc(4)
    with pytest.raises(InvariantViolation) as excinfo:
        allocator.free(iova, 2)
    assert excinfo.value.kind == "iova-bad-free"


def test_stray_free_violates():
    monitor = InvariantMonitor()
    with monitored(monitor):
        allocator = RbTreeIovaAllocator()
    allocator.alloc(4)
    with pytest.raises(InvariantViolation) as excinfo:
        allocator.free(0x123000, 1)
    assert excinfo.value.kind == "iova-bad-free"


# ---------------------------------------------------------------------------
# Monitor mechanics
# ---------------------------------------------------------------------------
def test_no_monitor_means_no_instrumentation():
    iommu = Iommu()  # constructed outside any monitored() block
    assert iommu.monitor is None
    assert iommu.page_table.monitor is None
    assert iommu.invalidation_queue.monitor is None
    iommu.map_page(0x1000, 1)
    iommu.translate(0x1000)


def test_collect_mode_records_instead_of_raising():
    monitor = InvariantMonitor(raise_on_violation=False)
    iommu = make_iommu(monitor)
    iova = 0x4000
    iommu.map_page(iova, frame=7)
    iommu.unmap_range(iova, PAGE_SIZE)
    iommu.invalidation_queue.invalidate_range(
        iova, PAGE_SIZE, preserve_ptcache=False
    )
    iommu.iotlb.insert(iova, 7)
    iommu.translate(iova)  # does not raise
    assert not monitor.ok
    assert monitor.violations[0].kind == "use-after-unmap"
    assert "use-after-unmap" in monitor.violations[0].format_trace()


def test_attach_after_construction():
    iommu = Iommu()  # built unmonitored...
    monitor = InvariantMonitor()
    monitor.attach_iommu(iommu)  # ...then attached post-hoc
    iommu.map_page(0x1000, 1)
    iommu.translate(0x1000)
    assert monitor.events_recorded > 0


def _event_sequence(monitor):
    return [
        (type(event).__name__, event._describe())
        for event in monitor.trace()
    ]


def _map_and_translate_three_times(iommu):
    iommu.map_page(0x1000, 1)
    for _ in range(3):
        iommu.translate(0x1000)


def test_post_hoc_attach_records_like_construction_time_monitor():
    """Attaching after construction disarms the one-entry fast path, so
    every translation emits its TranslateEvent and burst replay is off,
    exactly as for an IOMMU built under ``monitored(...)``."""
    built = InvariantMonitor()
    _map_and_translate_three_times(make_iommu(built))
    iommu = Iommu()
    assert burst_ready(iommu)
    attached = InvariantMonitor()
    attached.attach_iommu(iommu)
    assert not burst_ready(iommu)
    _map_and_translate_three_times(iommu)
    assert built.events_recorded == 4
    assert _event_sequence(attached) == _event_sequence(built)


def test_post_hoc_attach_drops_an_armed_fast_path_entry():
    iommu = Iommu()
    iommu.map_page(0x1000, 1)
    iommu.translate(0x1000)  # arms the fast path for page 1
    monitor = InvariantMonitor()
    monitor.attach_iommu(iommu)
    iommu.translate(0x1000)
    assert [name for name, _ in _event_sequence(monitor)] == [
        "TranslateEvent"
    ]


def test_two_address_spaces_do_not_collide():
    """Two IOMMUs under one monitor: the same IOVA is unrelated across
    them, so a dead page in one space must not poison the other."""
    monitor = InvariantMonitor()
    first = make_iommu(monitor)
    second = make_iommu(monitor)
    iova = 0x8000
    first.map_page(iova, frame=1)
    first.unmap_range(iova, PAGE_SIZE)
    first.invalidation_queue.invalidate_range(
        iova, PAGE_SIZE, preserve_ptcache=False
    )
    second.map_page(iova, frame=2)
    assert second.translate(iova).frame == 2
    assert monitor.ok
