"""Unit tests for the IO page table, including Fig 5 reclamation semantics."""

import copy

import pytest

from repro.iommu import IOPageTable, Iommu, MappingError, PageTablePage
from repro.iommu import pagetable
from repro.iommu.addr import PAGE_SIZE, PTL4_PAGE_SIZE, level_index

MB = 1024 * 1024


def map_range(table, iova, pages, first_frame=100):
    table.map_range(iova, list(range(first_frame, first_frame + pages)))


class TestMapping:
    def test_map_and_lookup(self):
        table = IOPageTable()
        table.map_page(0x1000, 42)
        assert table.lookup(0x1000) == 42

    def test_lookup_uses_page_granularity(self):
        table = IOPageTable()
        table.map_page(0x1000, 42)
        assert table.lookup(0x1FFF) == 42
        assert table.lookup(0x2000) is None

    def test_unaligned_map_rejected(self):
        table = IOPageTable()
        with pytest.raises(MappingError):
            table.map_page(0x1001, 42)

    def test_double_map_rejected(self):
        table = IOPageTable()
        table.map_page(0x1000, 42)
        with pytest.raises(MappingError):
            table.map_page(0x1000, 43)

    def test_map_range_maps_consecutive_pages(self):
        table = IOPageTable()
        table.map_range(0x10000, [1, 2, 3])
        assert table.lookup(0x10000) == 1
        assert table.lookup(0x11000) == 2
        assert table.lookup(0x12000) == 3
        assert table.mapped_pages == 3

    def test_walk_returns_four_level_chain(self):
        table = IOPageTable()
        table.map_page(0x1000, 42)
        walk = table.walk(0x1000)
        assert walk.frame == 42
        assert [page.level for page in walk.pages] == [1, 2, 3, 4]

    def test_walk_unmapped_returns_none(self):
        table = IOPageTable()
        assert table.walk(0x1000) is None

    def test_intermediate_pages_shared_within_2mb(self):
        table = IOPageTable()
        table.map_page(0, 1)
        created_before = table.stats.pages_created
        table.map_page(PAGE_SIZE, 2)
        # Second page within the same 2 MB region creates no new PT pages.
        assert table.stats.pages_created == created_before

    def test_new_ptl4_page_at_2mb_boundary(self):
        table = IOPageTable()
        table.map_page(0, 1)
        created_before = table.stats.pages_created
        table.map_page(PTL4_PAGE_SIZE, 2)
        assert table.stats.pages_created == created_before + 1


class TestUnmapErrors:
    def test_unmap_unmapped_raises(self):
        table = IOPageTable()
        with pytest.raises(MappingError):
            table.unmap_page(0x1000)

    def test_unaligned_unmap_raises(self):
        table = IOPageTable()
        with pytest.raises(MappingError):
            table.unmap_range(0x1001, PAGE_SIZE)

    def test_zero_length_unmap_raises(self):
        table = IOPageTable()
        with pytest.raises(MappingError):
            table.unmap_range(0x1000, 0)


class TestReclamationFig5:
    """The paper's Fig 5: reclamation requires one covering operation."""

    def test_large_single_unmap_reclaims_covered_pages(self):
        # Fig 5b: 5 MB mapped; one unmap of the whole 5 MB reclaims the
        # two PT-L4 pages whose 2 MB ranges are fully covered.
        table = IOPageTable()
        base = 0x40000000  # 1 GB, 2 MB aligned
        map_range(table, base, 5 * MB // PAGE_SIZE)
        reclaimed = table.unmap_range(base, 5 * MB)
        l4 = [r for r in reclaimed if r.level == 4]
        assert len(l4) == 2
        assert {r.base_iova for r in l4} == {base, base + 2 * MB}

    def test_partial_unmap_does_not_reclaim(self):
        # Fig 5c: a 256 KB unmap covers no whole PT-L4 page.
        table = IOPageTable()
        base = 0x40000000
        map_range(table, base, 5 * MB // PAGE_SIZE)
        reclaimed = table.unmap_range(base, 256 * 1024)
        assert reclaimed == []

    def test_many_small_unmaps_never_reclaim(self):
        # Fig 5d: unmapping everything 256 KB at a time reclaims nothing,
        # even once the whole 5 MB is gone.
        table = IOPageTable()
        base = 0x40000000
        map_range(table, base, 5 * MB // PAGE_SIZE)
        for offset in range(0, 5 * MB, 256 * 1024):
            reclaimed = table.unmap_range(base + offset, 256 * 1024)
            assert reclaimed == []
        assert table.mapped_pages == 0
        assert table.stats.pages_reclaimed == 0

    def test_single_2mb_unmap_reclaims_exactly_that_leaf(self):
        table = IOPageTable()
        base = 0x40000000
        map_range(table, base, 2 * MB // PAGE_SIZE)
        reclaimed = table.unmap_range(base, 2 * MB)
        assert [(r.level, r.base_iova) for r in reclaimed] == [(4, base)]

    def test_unaligned_2mb_unmap_covers_no_page(self):
        # 2 MB starting mid-way through a PT-L4 page covers neither
        # neighbouring leaf page fully.
        table = IOPageTable()
        base = 0x40000000 + MB  # half-way into a 2 MB region
        map_range(table, base, 2 * MB // PAGE_SIZE)
        reclaimed = table.unmap_range(base, 2 * MB)
        assert reclaimed == []

    def test_1gb_unmap_reclaims_pt_l3_and_children(self):
        # Covering an entire PT-L3 page (1 GB) reclaims it and every
        # PT-L4 page underneath it.
        table = IOPageTable()
        base = 1 << 30
        # Map one page in each of three 2 MB regions, then the whole
        # 1 GB range cannot be unmapped (not all mapped) — so map a
        # full 1 GB sparsely is too big; instead map 4 MB at the start
        # and verify covering unmap of the *whole GB* is rejected
        # because unmapped pages exist.
        map_range(table, base, 4 * MB // PAGE_SIZE)
        with pytest.raises(MappingError):
            table.unmap_range(base, 1 << 30)

    def test_remap_after_reclaim_rebuilds_pages(self):
        table = IOPageTable()
        base = 0x40000000
        map_range(table, base, 2 * MB // PAGE_SIZE)
        table.unmap_range(base, 2 * MB)
        table.map_page(base, 7)
        assert table.lookup(base) == 7

    def test_reclaim_stats_by_level(self):
        table = IOPageTable()
        base = 0x40000000
        map_range(table, base, 2 * MB // PAGE_SIZE)
        table.unmap_range(base, 2 * MB)
        assert table.stats.reclaims_by_level[4] == 1
        assert table.stats.reclaims_by_level[3] == 0


class TestDescriptorGranularityNeverReclaims:
    def test_64_page_unmaps_preserve_pt_pages(self):
        """The F&S safety argument: descriptor-sized (256 KB) unmaps
        can never reclaim a PT page, so PTcaches never go stale."""
        table = IOPageTable()
        base = 0x80000000
        total_pages = 1024  # 4 MB worth of descriptors
        map_range(table, base, total_pages)
        for start in range(0, total_pages, 64):
            reclaimed = table.unmap_range(
                base + start * PAGE_SIZE, 64 * PAGE_SIZE
            )
            assert reclaimed == []
        assert table.stats.pages_reclaimed == 0


def table_state(table):
    """Every mapping, the PT pages and the counters, for equality checks."""
    pages = []
    mappings = {}

    def visit(page):
        pages.append((page.level, page.base_iova))
        for index, child in page.entries.items():
            if isinstance(child, PageTablePage):
                visit(child)
            else:
                mappings[(page.level, page.base_iova, index)] = child

    visit(table.root)
    return (
        sorted(pages),
        mappings,
        table.mapped_pages,
        copy.deepcopy(table.stats),
        dict(table._paths),
    )


class TestUnmapIsAllOrNothing:
    """A failing ``unmap_range`` leaves the table exactly as it was."""

    def test_unmapped_page_inside_range(self):
        table = IOPageTable()
        table.map_page(0x0, 1)
        table.map_page(0x1000, 2)
        before = table_state(table)
        with pytest.raises(MappingError, match="0x2000 not mapped"):
            table.unmap_range(0x0, 0x3000)
        assert table_state(table) == before
        assert table.mapped_pages == 2
        assert table.stats.unmaps == 0
        assert table.lookup(0x0) == 1 and table.lookup(0x1000) == 2

    def test_partially_covered_huge_leaf(self):
        table = IOPageTable()
        base = 0x40000000
        map_range(table, base + PTL4_PAGE_SIZE - 2 * PAGE_SIZE, 2)
        table.map_huge(base + PTL4_PAGE_SIZE, 9000)
        before = table_state(table)
        with pytest.raises(MappingError, match="partial unmap"):
            table.unmap_range(
                base + PTL4_PAGE_SIZE - 2 * PAGE_SIZE, 3 * PAGE_SIZE
            )
        assert table_state(table) == before
        assert table.walk(base + PTL4_PAGE_SIZE).huge
        assert table.lookup(base + PTL4_PAGE_SIZE - PAGE_SIZE) == 101

    def test_failed_covering_unmap_reclaims_nothing(self):
        table = IOPageTable()
        base = 0x40000000
        map_range(table, base, 2 * MB // PAGE_SIZE)
        table.map_page(base + 2 * MB + PAGE_SIZE, 7)
        before = table_state(table)
        with pytest.raises(MappingError):
            table.unmap_range(base, 4 * MB)
        assert table_state(table) == before
        assert table.stats.pages_reclaimed == 0

    def test_unmap_after_a_failed_unmap_still_reclaims(self):
        table = IOPageTable()
        base = 0x40000000
        map_range(table, base, 2 * MB // PAGE_SIZE)
        with pytest.raises(MappingError):
            table.unmap_range(base, 4 * MB)
        reclaimed = table.unmap_range(base, 2 * MB)
        assert [(r.level, r.base_iova) for r in reclaimed] == [(4, base)]

    def test_map_page_over_huge_leaf_rejected(self):
        table = IOPageTable()
        table.map_huge(0x40000000, 9000)
        before = table_state(table)
        with pytest.raises(MappingError):
            table.map_page(0x40000000 + PAGE_SIZE, 1)
        assert table_state(table) == before


class TestDescentShortcuts:
    """The reclaim bound and the PT-L4 path index."""

    def test_no_unmap_shorter_than_2mb_scans_for_reclaim(self, monkeypatch):
        calls = []
        scan = IOPageTable._reclaim_covered

        def counting(self, page, start, end, reclaimed):
            calls.append((start, end))
            return scan(self, page, start, end, reclaimed)

        monkeypatch.setattr(IOPageTable, "_reclaim_covered", counting)
        table = IOPageTable()
        base = 0x40000000
        map_range(table, base, 3 * PTL4_PAGE_SIZE // PAGE_SIZE)
        offset = 0
        for pages in (1, 64, 446):  # 511 pages, all inside region 0
            table.unmap_range(base + offset, pages * PAGE_SIZE)
            offset += pages * PAGE_SIZE
        assert calls == []
        assert table.unmap_range(base + 2 * MB, 2 * MB)  # reclaims
        assert calls[0] == (base + 2 * MB, base + 4 * MB)

    def test_fast_paths_make_no_level_index_calls(self, monkeypatch):
        table = IOPageTable()
        iommu = Iommu()
        table.map_page(0x40000000, 1)  # creates the PT-L4 page
        iommu.map_page(0x40000000, 1)
        calls = []

        def counting(iova, level):
            calls.append(level)
            return level_index(iova, level)

        monkeypatch.setattr(pagetable, "level_index", counting)
        for subject in (table, iommu.page_table):
            subject.map_page(0x40001000, 2)
            assert subject.walk(0x40001000).frame == 2
            assert subject.lookup(0x40002000) is None
            subject.unmap_range(0x40001000, PAGE_SIZE)
        assert iommu.translate(0x40000000).memory_reads == 4
        assert iommu.translate(0x40000000).iotlb_hit
        assert calls == []
        iommu.map_page(0x40000000 + 2 * MB, 3)  # index miss: descends
        assert calls

    def test_walk_returns_the_indexed_path(self):
        table = IOPageTable()
        table.map_page(0x40000000, 1)
        table.map_page(0x40001000, 2)
        first = table.walk(0x40000000).pages
        assert table.walk(0x40001000).pages is first
        assert first is table._paths[0x40000000 >> 21]
        assert first[0] is table.root

    def test_reclaim_drops_the_index_entry(self):
        table = IOPageTable()
        base = 0x40000000
        map_range(table, base, 2 * MB // PAGE_SIZE)
        table.map_page(base + 2 * MB, 7)
        table.unmap_range(base, 2 * MB)
        assert set(table._paths) == {(base + 2 * MB) >> 21}
        table.map_page(base, 8)  # remap after reclaim rebuilds the path
        assert set(table._paths) == {base >> 21, (base + 2 * MB) >> 21}
        assert table.walk(base).pages[3].entries == {0: 8}
