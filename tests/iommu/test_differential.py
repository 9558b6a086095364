"""Differential tests for the page-table and PTcache shortcuts.

Three shortcuts keep the strict datapath off the 4-level descent:

* the PT-L4 path index in :class:`~repro.iommu.IOPageTable` (one dict
  probe per map, walk and unmap instead of a tree descent);
* the 2 MB bound on reclamation checks (``_reclaim_covered`` runs only
  for unmaps of at least 2 MB);
* the fused PTcache probe-refill in
  :meth:`~repro.iommu.PtCacheHierarchy.probe`.

Each is checked against a model that takes none of them.  The
reference model here is a dict of IOVA page -> frame, a dict of 2 MB
huge leaves, and the set of live page-table pages under the paper's
Fig 5 rule: one unmap reclaims exactly the PT pages whose whole range
it covers, whatever its length.  Random schedules of maps, unmaps,
translations and invalidations run on an IOMMU in lockstep with the
model; then the same schedule runs on a bare IOMMU (fast path armed)
and on one built under an invariant monitor (fast path off), which
must agree on every counter and every cache's contents.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iommu import (
    DmaFault,
    Iommu,
    MappingError,
    PageTablePage,
    PtCacheHierarchy,
    burst_ready,
    replay_hits,
)
from repro.iommu.addr import LEVEL_SHIFTS, PAGE_SHIFT, PAGE_SIZE
from repro.iommu.pagetable import PageTableStats
from repro.iommu.ptcache import PtCache
from repro.verify import InvariantMonitor, monitored

MB2 = 1 << 21
GB = 1 << 30
# Three 1 GB regions: the first two share a PT-L2 page, the third has
# its own (it starts a new 512 GB PT-L1 entry).
GIGS = (0, GB, 1 << 39)


def coverage(level: int) -> int:
    """IOVA bytes one PT-L``level`` page covers."""
    return 512 << LEVEL_SHIFTS[level]


class ReferenceTable:
    """The page table without shortcuts: flat dicts plus Fig 5."""

    def __init__(self) -> None:
        self.frames: dict[int, int] = {}  # 4 KB page number -> frame
        self.huge: dict[int, int] = {}  # iova >> 21 -> base frame
        self.pt_pages: set[tuple[int, int]] = set()  # (level, base)
        self.stats = PageTableStats()

    def _create(self, iova: int, levels) -> None:
        for level in levels:
            key = (level, iova & ~(coverage(level) - 1))
            if key not in self.pt_pages:
                self.pt_pages.add(key)
                self.stats.pages_created += 1

    def map_page(self, iova: int, frame: int) -> None:
        if iova >> 21 in self.huge:
            raise MappingError("huge leaf")
        self._create(iova, (2, 3, 4))
        if iova >> PAGE_SHIFT in self.frames:
            raise MappingError("mapped")
        self.frames[iova >> PAGE_SHIFT] = frame
        self.stats.maps += 1

    def map_range(self, iova: int, frames: list[int]) -> None:
        for offset, frame in enumerate(frames):
            self.map_page(iova + offset * PAGE_SIZE, frame)

    def map_huge(self, iova: int, base_frame: int) -> None:
        self._create(iova, (2, 3))
        if (4, iova) in self.pt_pages or iova >> 21 in self.huge:
            raise MappingError("occupied")
        self.huge[iova >> 21] = base_frame
        self.stats.maps += 1

    def unmap(self, iova: int, length: int) -> list[tuple[int, int, int]]:
        end = iova + length
        pages, leaves, addr = [], [], iova
        while addr < end:
            if (4, addr & ~(MB2 - 1)) in self.pt_pages:
                if addr >> PAGE_SHIFT not in self.frames:
                    raise MappingError("not mapped")
                pages.append(addr >> PAGE_SHIFT)
                addr += PAGE_SIZE
            elif addr >> 21 in self.huge:
                if addr % MB2 or end - addr < MB2:
                    raise MappingError("partial unmap of huge mapping")
                leaves.append(addr >> 21)
                addr += MB2
            else:
                raise MappingError("not mapped")
        for page in pages:
            del self.frames[page]
        for leaf in leaves:
            del self.huge[leaf]
        self.stats.unmaps += len(pages) + len(leaves)
        # Fig 5: every PT page whose whole range this one call covers.
        reclaimed = sorted(
            (level, base, coverage(level))
            for level, base in self.pt_pages
            if iova <= base and base + coverage(level) <= end
        )
        for level, base, _ in reclaimed:
            self.pt_pages.discard((level, base))
            self.stats.pages_reclaimed += 1
            self.stats.reclaims_by_level[level] += 1
        return reclaimed

    def lookup(self, iova: int):
        """(frame, huge) or None."""
        base = self.huge.get(iova >> 21)
        if base is not None:
            return base + ((iova >> PAGE_SHIFT) & 511), True
        frame = self.frames.get(iova >> PAGE_SHIFT)
        return None if frame is None else (frame, False)


def tree_paths(table) -> dict[int, tuple[PageTablePage, ...]]:
    """Every live PT-L4 page's PT-L1..PT-L4 chain, by full traversal."""
    found: dict[int, tuple[PageTablePage, ...]] = {}

    def visit(page, chain):
        chain = chain + (page,)
        if page.level == 4:
            found[page.base_iova >> 21] = chain
            return
        for child in page.entries.values():
            if isinstance(child, PageTablePage):
                visit(child, chain)

    visit(table.root, ())
    return found


def tree_pages(table) -> set[tuple[int, int]]:
    pages: set[tuple[int, int]] = set()

    def visit(page):
        if page.level > 1:
            pages.add((page.level, page.base_iova))
        for child in page.entries.values():
            if isinstance(child, PageTablePage):
                visit(child)

    visit(table.root)
    return pages


def check_table(table, ref: ReferenceTable) -> None:
    index = table._paths
    paths = tree_paths(table)
    assert index.keys() == paths.keys()
    for key, chain in paths.items():
        assert all(a is b for a, b in zip(index[key], chain, strict=True))
    assert tree_pages(table) == ref.pt_pages
    assert table.stats == ref.stats
    assert table.mapped_pages == len(ref.frames) + 512 * len(ref.huge)


def check_walk(table, ref: ReferenceTable, iova: int) -> None:
    walk = table.walk(iova)
    expected = ref.lookup(iova)
    if expected is None:
        assert walk is None
        assert table.lookup(iova) is None
        return
    assert (walk.frame, walk.huge) == expected
    assert table.lookup(iova) == expected[0]
    chain = tree_paths(table).get(iova >> 21)
    if walk.huge:
        assert chain is None
        assert [page.level for page in walk.pages] == [1, 2, 3]
    else:
        assert walk.pages is table._paths[iova >> 21]
        assert all(a is b for a, b in zip(walk.pages, chain, strict=True))


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
gig = st.sampled_from(GIGS)
slot = st.integers(min_value=0, max_value=2)
page_index = st.one_of(
    st.sampled_from([0, 1, 63, 64, 255, 511]),
    st.integers(min_value=0, max_value=511),
)
UNMAP_KINDS = ("page", "64pages", "2mb", "2mb_unaligned", "1gb")

operation = st.one_of(
    st.tuples(st.just("map_page"), gig, slot, page_index),
    st.tuples(
        st.just("map_range"),
        gig,
        slot,
        page_index,
        st.integers(min_value=1, max_value=700),
    ),
    st.tuples(st.just("map_huge"), gig, slot),
    st.tuples(st.just("fill"), gig, slot),
    st.tuples(
        st.just("unmap"),
        gig,
        slot,
        page_index,
        st.sampled_from(UNMAP_KINDS),
        st.booleans(),  # preserve the PTcaches
        st.booleans(),  # map the whole range first, so it can succeed
    ),
    st.tuples(
        st.just("translate"),
        gig,
        slot,
        page_index,
        st.sampled_from(["rx", "tx"]),
        st.integers(min_value=1, max_value=4),  # TLPs in the burst
        st.booleans(),  # map the page first if it is unmapped
    ),
    st.tuples(
        st.just("invalidate"),
        gig,
        slot,
        page_index,
        st.sampled_from([1, 64, 512]),
        st.booleans(),
    ),
)
schedules = st.lists(operation, min_size=5, max_size=40)


class Runner:
    """Applies a schedule to one IOMMU and, optionally, the model."""

    def __init__(self, iommu: Iommu, ref: ReferenceTable | None) -> None:
        self.iommu = iommu
        self.table = iommu.page_table
        self.ref = ref
        self.next_frame = 1000
        self.outcomes: list[object] = []

    def _frame(self) -> int:
        self.next_frame += 1024
        return self.next_frame

    def _apply(self, action, *args):
        """Run on the IOMMU and the model; errors must agree."""
        name = action.__name__
        try:
            result = action(*args)
        except MappingError:
            result = MappingError
        if self.ref is not None:
            try:
                expected = getattr(self.ref, name)(*args)
            except MappingError:
                expected = MappingError
            if name == "unmap" and result is not MappingError:
                result_keys = sorted(
                    (p.level, p.base_iova, p.coverage_bytes) for p in result
                )
                assert result_keys == expected
            else:
                assert (result is MappingError) == (expected is MappingError)
        return result

    def map_page(self, iova: int) -> None:
        def map_page(iova, frame):
            self.iommu.map_page(iova, frame)

        self._apply(map_page, iova, self._frame())

    def map_range(self, iova: int, pages: int) -> None:
        def map_range(iova, frames):
            self.iommu.map_range(iova, frames)

        self._apply(map_range, iova, [self._frame() for _ in range(pages)])

    def map_huge(self, iova: int) -> None:
        def map_huge(iova, frame):
            self.iommu.map_huge(iova, frame)

        self._apply(map_huge, iova, self._frame())

    def unmap(self, iova: int, length: int, preserve: bool) -> None:
        def unmap(iova, length):
            return self.iommu.unmap_range(iova, length)

        reclaimed = self._apply(unmap, iova, length)
        if reclaimed is MappingError:
            self.outcomes.append(("unmap-error", iova, length))
            return
        self.outcomes.append(
            ("unmap", [(p.level, p.base_iova) for p in reclaimed])
        )
        # The F&S driver's protocol: invalidate the unmapped range
        # (with or without PTcache preservation), then drop PTcache
        # entries over any page-table page the unmap reclaimed.
        queue = self.iommu.invalidation_queue
        queue.submit_invalidation(iova, length, preserve)
        if preserve:
            for freed in reclaimed:
                queue.submit_invalidation(
                    freed.base_iova,
                    freed.coverage_bytes,
                    preserve_ptcache=False,
                    ptcache_only=True,
                )

    def translate(self, iova: int, source: str, tlps: int) -> None:
        iommu = self.iommu
        try:
            first = iommu.translate(iova, source)
        except DmaFault:
            self.outcomes.append(("fault", iova))
            if self.ref is not None:
                assert self.ref.lookup(iova) is None
            return
        if self.ref is not None:
            expected = self.ref.lookup(iova)
            assert expected is not None and first.frame == expected[0]
        self.outcomes.append((first.frame, first.iotlb_hit, first.memory_reads))
        # The rest of a same-page TLP burst, as the datapath issues it.
        if burst_ready(iommu):
            replay_hits(iommu, tlps - 1, source)
        else:
            for _ in range(tlps - 1):
                result = iommu.translate(iova, source)
                assert (result.frame, result.iotlb_hit) == (first.frame, True)

    def unmapped_runs(self, start: int, pages: int):
        """Maximal runs of unmapped 4 KB pages in [start, +pages)."""
        run_start, run = None, 0
        for index in range(pages):
            iova = start + index * PAGE_SIZE
            if self.table.lookup(iova) is None:
                if run_start is None:
                    run_start, run = iova, 0
                run += 1
            elif run_start is not None:
                yield run_start, run
                run_start = None
        if run_start is not None:
            yield run_start, run

    def run(self, schedule) -> None:
        for op in schedule:
            kind, base = op[0], op[1]
            if kind == "map_page":
                self.map_page(base + op[2] * MB2 + op[3] * PAGE_SIZE)
            elif kind == "map_range":
                # The free run at the start of the requested range, so
                # the call succeeds (map_range is not all-or-nothing).
                start = base + op[2] * MB2 + op[3] * PAGE_SIZE
                runs = list(self.unmapped_runs(start, op[4]))
                if runs and runs[0][0] == start:
                    self.map_range(start, runs[0][1])
            elif kind == "map_huge":
                self.map_huge(base + op[2] * MB2)
            elif kind == "fill":
                self.fill(base + op[2] * MB2)
            elif kind == "unmap":
                _, base, slot_index, offset, size, preserve, prefill = op
                region = base + slot_index * MB2
                start, length = {
                    "page": (region + offset * PAGE_SIZE, PAGE_SIZE),
                    "64pages": (region + offset * PAGE_SIZE, 64 * PAGE_SIZE),
                    "2mb": (region, MB2),
                    "2mb_unaligned": (
                        region + max(offset, 1) * PAGE_SIZE,
                        MB2,
                    ),
                    "1gb": (base, GB),
                }[size]
                if prefill:
                    self.prefill(start, start + length)
                self.unmap(start, length, preserve)
            elif kind == "translate":
                _, base, slot_index, offset, source, tlps, premap = op
                iova = base + slot_index * MB2 + offset * PAGE_SIZE
                if premap and self.table.lookup(iova) is None:
                    self.map_page(iova)
                self.translate(iova, source, tlps)
            else:
                _, base, slot_index, offset, pages, preserve = op
                result = self.iommu.invalidation_queue.submit_invalidation(
                    base + slot_index * MB2 + offset * PAGE_SIZE,
                    pages * PAGE_SIZE,
                    preserve,
                )
                assert result.completed
            if self.ref is not None:
                check_table(self.table, self.ref)

    def prefill(self, start: int, end: int) -> None:
        """Map what is unmapped in [start, end): a huge leaf for a whole
        free 2 MB region, 4 KB pages elsewhere (never over a huge leaf,
        so a partially covered one still makes the unmap fail)."""
        live = tree_paths(self.table)
        for region in range(start & ~(MB2 - 1), end, MB2):
            low, high = max(start, region), min(end, region + MB2)
            walk = self.table.walk(region)
            if walk is not None and walk.huge:
                continue
            if (low, high) == (region, region + MB2) and (
                region >> 21 not in live
            ):
                self.map_huge(region)
                continue
            for run_start, pages in list(
                self.unmapped_runs(low, (high - low) // PAGE_SIZE)
            ):
                self.map_range(run_start, pages)

    def fill(self, region: int) -> None:
        """Map every unmapped page of a 2 MB region (a no-op on a huge
        leaf)."""
        walk = self.table.walk(region)
        if walk is not None and walk.huge:
            return
        for start, pages in list(self.unmapped_runs(region, 512)):
            self.map_range(start, pages)


def cache_state(iommu: Iommu):
    """Every counter and the LRU-ordered contents of every cache."""
    ptcaches = [
        (
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.invalidations,
            [
                (key, page.level, page.base_iova)
                for key, page in cache._entries.items()
            ],
        )
        for cache in iommu.ptcaches.levels
    ]
    iotlb = iommu.iotlb
    return (
        iommu.stats,
        dict(iommu.ptcaches.counted_misses),
        ptcaches,
        (iotlb.hits, iotlb.misses, iotlb.evictions, iotlb.invalidations),
        [list(entry_set.items()) for entry_set in iotlb._sets],
        list(iotlb._huge.items()),
    )


def probe_points(schedule):
    for op in schedule:
        if op[0] in ("map_page", "map_range", "unmap", "translate"):
            base = op[1] + op[2] * MB2 + op[3] * PAGE_SIZE
            yield from (base, base + PAGE_SIZE, base + 64 * PAGE_SIZE)
        elif op[0] in ("map_huge", "fill"):
            yield op[1] + op[2] * MB2 + 5 * PAGE_SIZE


@given(schedules)
@settings(max_examples=100, deadline=None)
def test_page_table_matches_reference_model(schedule):
    """Walks, lookups, reclaimed pages, stats and the path index agree
    with the flat model after every operation."""
    ref = ReferenceTable()
    runner = Runner(Iommu(), ref)
    runner.run(schedule)
    for iova in probe_points(schedule):
        check_walk(runner.table, ref, iova)


def check_bare_and_monitored(schedule) -> None:
    bare = Runner(Iommu(), ReferenceTable())
    bare.run(schedule)
    monitor = InvariantMonitor()
    with monitored(monitor):
        watched = Runner(Iommu(), None)
    assert not burst_ready(watched.iommu)
    watched.run(schedule)
    assert monitor.ok, monitor.violations
    assert watched.outcomes == bare.outcomes
    assert cache_state(watched.iommu) == cache_state(bare.iommu)
    assert watched.table.stats == bare.table.stats


@given(schedules)
@settings(max_examples=60, deadline=None)
def test_bare_and_monitored_iommus_agree(schedule):
    """The fast paths (armed on the bare IOMMU, off under a monitor)
    change no counter and no cache content, and the monitor sees no
    violation."""
    check_bare_and_monitored(schedule)


def test_every_shortcut_case_in_one_schedule():
    """A fixed schedule that reaches each case the strategies aim at:
    2 MB reclaims (aligned) and non-reclaims (unaligned), remaps after
    a reclaim, a 1 GB unmap over huge leaves and a full PT-L4 page,
    failing unmaps, and invalidations with and without preservation."""
    schedule = [
        ("fill", 0, 0),
        ("fill", 0, 1),
        ("translate", 0, 0, 3, "rx", 4, False),
        ("unmap", 0, 0, 8, "2mb_unaligned", True, False),  # no reclaim
        ("unmap", 0, 0, 0, "2mb", True, False),  # fails: holes
        ("fill", 0, 0),
        ("unmap", 0, 0, 0, "2mb", True, False),  # reclaims the PT-L4 page @ 0
        ("map_page", 0, 0, 7),  # remap after the reclaim
        ("translate", 0, 0, 7, "tx", 2, False),
        ("unmap", 0, 0, 7, "page", False, False),
        ("map_range", 0, 0, 500, 600),  # 20 pages across 2 MB
        ("unmap", 0, 1, 480, "64pages", False, False),  # fails midway
        ("map_huge", GB, 3),
        ("translate", GB, 3, 9, "rx", 3, False),
        ("unmap", GB, 3, 9, "page", True, False),  # partial huge: fails
        ("fill", GB, 0),
        ("translate", GB, 0, 1, "rx", 1, False),
        ("unmap", GB, 0, 0, "1gb", True, True),  # reclaims PT-L3 + PT-L4
        ("translate", GB, 3, 9, "rx", 1, False),  # faults
        ("map_page", GB, 0, 0),  # remap after the 1 GB reclaim
        ("invalidate", 0, 1, 0, 512, True),
        ("invalidate", 0, 1, 0, 1, False),
        ("translate", 0, 1, 9, "rx", 2, False),
    ]
    ref = ReferenceTable()
    runner = Runner(Iommu(), ref)
    runner.run(schedule)
    for iova in probe_points(schedule):
        check_walk(runner.table, ref, iova)
    assert runner.table.stats.reclaims_by_level == {1: 0, 2: 0, 3: 1, 4: 2}
    assert ("fault", GB + 3 * MB2 + 9 * PAGE_SIZE) in runner.outcomes
    errors = [o for o in runner.outcomes if o[0] == "unmap-error"]
    assert len(errors) == 3
    check_bare_and_monitored(schedule)


# ----------------------------------------------------------------------
# Fused probe-refill vs per-level lookup + insert
# ----------------------------------------------------------------------
def reference_probe(caches: list[PtCache], iova: int, pages) -> int:
    """Probe deepest first, then fill, one level-call at a time."""
    top = len(pages) - 1
    hits = [
        level
        for level in range(top, 0, -1)
        if caches[level - 1].lookup(iova) is not None
    ]
    for level in range(1, top + 1):
        caches[level - 1].insert(iova, pages[level])
    return hits[0] if hits else 0


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=40),
            st.booleans(),
            st.booleans(),
        ),
        max_size=200,
    )
)
@settings(max_examples=60, deadline=None)
def test_fused_probe_matches_lookup_then_insert(accesses):
    fused = PtCacheHierarchy(l1_entries=2, l2_entries=3, l3_entries=4)
    singles = [PtCache(1, 2), PtCache(2, 3), PtCache(3, 4)]
    counted = {1: 0, 2: 0, 3: 0}
    for region, huge, invalidate in accesses:
        iova = region << 20  # two 1 MB halves per 2 MB PTcache-L3 key
        if invalidate:
            fused.invalidate_range(iova, PAGE_SIZE)
            for cache in singles:
                cache.invalidate_range(iova, PAGE_SIZE)
            continue
        pages = ("l1", f"l2-{region}", f"l3-{region}")
        if not huge:
            pages += (f"l4-{region}",)
        expected = reference_probe(singles, iova, pages)
        assert fused.probe(iova, pages) == expected
        for level in range(expected + 1, len(pages)):
            counted[level] += 1
    assert fused.counted_misses == counted
    for mine, theirs in zip(fused.levels, singles):
        assert (mine.hits, mine.misses, mine.evictions) == (
            theirs.hits,
            theirs.misses,
            theirs.evictions,
        )
        assert list(mine._entries.items()) == list(theirs._entries.items())
