"""The IO page table, with Linux's page-reclamation semantics.

The table is a 4-level radix tree (see :mod:`repro.iommu.addr`).  Two
behaviours of the Linux implementation matter to the paper and are
modeled exactly:

1. **Mapping granularity** is a 4 KB page: ``map_page`` installs one
   PT-L4 entry, creating intermediate PT pages on demand.

2. **Reclamation** (paper Fig 5): an intermediate page-table page is
   freed *only* when a single ``unmap_range`` call covers that page's
   entire address range.  Many small unmaps that together clear a page
   never reclaim it (Fig 5d) — this is what makes it safe for F&S to
   preserve the PTcaches across descriptor-granularity unmaps, since a
   PTcache entry only goes stale when the page it points to is
   reclaimed.

``unmap_range`` reports which page-table pages were reclaimed so the
protection driver can decide whether PTcache invalidation is required
(F&S's correctness fallback, §3 of the paper).  Reclamation is checked
only when one call unmaps at least 2 MB: no page-table page covers less
(a PT-L4 page spans 2 MB), so a shorter unmap cannot cover one whole and
the scan is skipped.  An ``unmap_range`` that hits an unmapped page or
a partially covered huge leaf raises and changes nothing.

Every live PT-L4 page is also kept in a path index (``iova >> 21`` to
its PT-L1..PT-L4 chain), so mapping, walking and unmapping a page that
lives in an existing PT-L4 page costs one dict probe, not a 4-level
descent.  The descent runs only on an index miss: when a PT-L4 page is
created, at a 2 MB huge leaf, or in an unmapped region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..verify.events import PtPageReclaimedEvent
from ..verify.hooks import current_monitor
from .addr import (
    ENTRIES_PER_PAGE,
    LEVEL_SHIFTS,
    PAGE_SHIFT,
    PAGE_SIZE,
    PTL4_PAGE_SHIFT,
    PTL4_PAGE_SIZE,
    level_index,
)

# Mask of a 9-bit page-table index (the PT-L4 index of ``iova >> 12``).
INDEX_MASK = ENTRIES_PER_PAGE - 1

__all__ = [
    "IOPageTable",
    "PageTablePage",
    "ReclaimedPage",
    "WalkResult",
    "HugeMapping",
    "MappingError",
]


class MappingError(ValueError):
    """Raised on invalid map/unmap operations (overlap, unaligned, absent)."""


class PageTablePage:
    """One 4 KB page of the IO page table at a given level.

    ``entries`` maps a 9-bit index to either a child :class:`PageTablePage`
    (levels 1-3) or a physical frame number (level 4).
    """

    __slots__ = ("level", "base_iova", "entries")

    def __init__(self, level: int, base_iova: int):
        self.level = level
        self.base_iova = base_iova
        self.entries: dict[int, object] = {}

    @property
    def coverage_bytes(self) -> int:
        """IOVA bytes covered by this whole page (all 512 entries)."""
        return ENTRIES_PER_PAGE << LEVEL_SHIFTS[self.level]

    @property
    def end_iova(self) -> int:
        return self.base_iova + self.coverage_bytes

    def covers(self, iova: int) -> bool:
        return self.base_iova <= iova < self.end_iova

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<PT-L{self.level} page @{self.base_iova:#x} "
            f"{len(self.entries)} entries>"
        )


@dataclass(frozen=True)
class ReclaimedPage:
    """Record of one page-table page freed by an unmap operation."""

    level: int
    base_iova: int
    coverage_bytes: int


@dataclass(frozen=True)
class HugeMapping:
    """A 2 MB leaf entry installed directly in a PT-L3 page.

    ``base_frame`` is the first of 512 physically contiguous frames.
    Huge mappings are the §5 future-work extension: one IOTLB entry
    (and one walk terminating at PT-L3) covers 2 MB, cutting the
    compulsory strict-mode miss rate by 512x at the cost of 2 MB
    protection granularity.
    """

    base_frame: int


@dataclass(frozen=True)
class WalkResult:
    """Outcome of a software walk: the frame plus the visited PT pages.

    ``pages`` holds the PT-L1..PT-L4 pages touched (PT-L1..PT-L3 for a
    huge mapping), used by the walker to refill the PTcaches.
    ``huge`` marks a walk that terminated at a 2 MB leaf.
    """

    frame: int
    pages: tuple[PageTablePage, ...]
    huge: bool = False


@dataclass
class PageTableStats:
    """Operation counts for the IO page table."""

    maps: int = 0
    unmaps: int = 0
    pages_created: int = 0
    pages_reclaimed: int = 0
    reclaims_by_level: dict[int, int] = field(
        default_factory=lambda: {1: 0, 2: 0, 3: 0, 4: 0}
    )


class IOPageTable:
    """A 4-level IO page table with Linux reclamation semantics."""

    def __init__(self) -> None:
        self.root = PageTablePage(level=1, base_iova=0)
        self.stats = PageTableStats()
        self._mapped_pages = 0
        # PT-L4 path index (see the module docstring): ``iova >> 21`` ->
        # (PT-L1, PT-L2, PT-L3, PT-L4) for every live PT-L4 page; added
        # by ``_create_path``, dropped by ``_count_subtree_reclaim``.
        self._paths: dict[int, tuple[PageTablePage, ...]] = {}
        # Safety-invariant monitor (repro.verify); None in normal runs.
        self.monitor = current_monitor()

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def map_page(self, iova: int, frame: int) -> None:
        """Map the 4 KB IOVA page at ``iova`` to physical ``frame``."""
        if iova & (PAGE_SIZE - 1):
            raise MappingError(f"unaligned iova {iova:#x}")
        path = self._paths.get(iova >> PTL4_PAGE_SHIFT)
        if path is None:
            path = self._create_path(iova)
        entries = path[3].entries
        index = (iova >> PAGE_SHIFT) & INDEX_MASK
        if index in entries:
            raise MappingError(f"iova {iova:#x} already mapped")
        entries[index] = frame
        self._mapped_pages += 1
        self.stats.maps += 1

    def map_range(self, iova: int, frames: list[int]) -> None:
        """Map consecutive IOVA pages starting at ``iova`` to ``frames``."""
        for offset, frame in enumerate(frames):
            self.map_page(iova + offset * PAGE_SIZE, frame)

    def map_huge(self, iova: int, base_frame: int) -> None:
        """Install a 2 MB leaf at ``iova`` (must be 2 MB aligned).

        The entry lives in the PT-L3 page where a PT-L4 pointer would
        otherwise go; the 512 backing frames start at ``base_frame``
        and must be physically contiguous.
        """
        if iova % PTL4_PAGE_SIZE:
            raise MappingError(f"huge mapping at {iova:#x} not 2 MB aligned")
        page = self.root
        for level in (1, 2):
            page = self._child(page, iova, level)
        index = level_index(iova, 3)
        if index in page.entries:
            raise MappingError(
                f"iova {iova:#x} already has a PT-L4 page or huge entry"
            )
        page.entries[index] = HugeMapping(base_frame)
        self._mapped_pages += 512
        self.stats.maps += 1

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def walk(self, iova: int) -> Optional[WalkResult]:
        """Full software walk; ``None`` if the IOVA is unmapped.

        ``pages`` of the result is the stored PT-L1..PT-L4 chain of the
        path index (PT-L1..PT-L3 for a huge leaf).
        """
        path = self._paths.get(iova >> PTL4_PAGE_SHIFT)
        if path is not None:
            frame = path[3].entries.get((iova >> PAGE_SHIFT) & INDEX_MASK)
            if frame is None:
                return None
            return WalkResult(frame, path)  # type: ignore[arg-type]
        upper = self._huge_path(iova)
        if upper is None:
            return None
        # 2 MB leaf in the PT-L3 page: the walk ends one level early;
        # resolve the 4 KB sub-frame by offset.
        leaf = upper[2].entries[level_index(iova, 3)]
        frame = leaf.base_frame  # type: ignore[attr-defined]
        offset = (iova >> PAGE_SHIFT) & INDEX_MASK
        return WalkResult(frame + offset, upper, huge=True)

    def lookup(self, iova: int) -> Optional[int]:
        """Frame mapped at ``iova``'s page, or ``None``."""
        result = self.walk(iova)
        return result.frame if result else None

    def is_mapped(self, iova: int) -> bool:
        return self.lookup(iova) is not None

    @property
    def mapped_pages(self) -> int:
        return self._mapped_pages

    # ------------------------------------------------------------------
    # Unmapping + reclamation
    # ------------------------------------------------------------------
    def unmap_range(self, iova: int, length: int) -> list[ReclaimedPage]:
        """Unmap ``[iova, iova + length)`` in a *single* operation.

        Returns the page-table pages reclaimed by this call.  Linux
        semantics: a PT page is reclaimed iff this one call's range
        covers the page's entire coverage (paper Fig 5).  All 4 KB pages
        in the range must currently be mapped; otherwise
        :class:`MappingError` is raised and the table is left exactly
        as it was (the cleared entries are put back).
        """
        if iova % PAGE_SIZE or length % PAGE_SIZE:
            raise MappingError("unmap range must be page aligned")
        if length <= 0:
            raise MappingError("unmap length must be positive")
        end = iova + length
        paths = self._paths
        # Undo log of cleared leaf entries: (entries, index, value).
        cleared: list[tuple[dict[int, object], int, object]] = []
        pages = 0
        addr = iova
        try:
            while addr < end:
                path = paths.get(addr >> PTL4_PAGE_SHIFT)
                if path is not None:
                    entries = path[3].entries
                    index = (addr >> PAGE_SHIFT) & INDEX_MASK
                    frame = entries.pop(index, None)
                    if frame is None:
                        raise MappingError(f"iova {addr:#x} not mapped")
                    cleared.append((entries, index, frame))
                    pages += 1
                    addr += PAGE_SIZE
                    continue
                upper = self._huge_path(addr)
                if upper is None:
                    raise MappingError(f"iova {addr:#x} not mapped")
                if addr & (PTL4_PAGE_SIZE - 1) or end - addr < PTL4_PAGE_SIZE:
                    raise MappingError(
                        "partial unmap of huge mapping at "
                        f"{addr & ~(PTL4_PAGE_SIZE - 1):#x}"
                    )
                entries = upper[2].entries
                index = level_index(addr, 3)
                cleared.append((entries, index, entries.pop(index)))
                pages += 512
                addr += PTL4_PAGE_SIZE
        except MappingError:
            for entries, index, value in cleared:
                entries[index] = value
            raise
        self._mapped_pages -= pages
        self.stats.unmaps += len(cleared)
        reclaimed: list[ReclaimedPage] = []
        if length >= PTL4_PAGE_SIZE:
            # No page-table page covers less than 2 MB (a PT-L4 page
            # is the smallest), so a shorter unmap cannot cover one
            # whole and the reclaim scan is skipped (Fig 5).
            self._reclaim_covered(self.root, iova, end, reclaimed)
        return reclaimed

    def unmap_page(self, iova: int) -> list[ReclaimedPage]:
        """Unmap a single 4 KB page (the Linux per-page unmap path)."""
        return self.unmap_range(iova, PAGE_SIZE)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _child(self, page: PageTablePage, iova: int, level: int):
        """The PT-L``level+1`` page under ``page`` for ``iova``, created
        on demand (a huge leaf in its slot is a mapping conflict)."""
        index = level_index(iova, level)
        child = page.entries.get(index)
        if child is None:
            child_base = iova & ~((1 << LEVEL_SHIFTS[level]) - 1)
            child = PageTablePage(level + 1, child_base)
            page.entries[index] = child
            self.stats.pages_created += 1
        elif isinstance(child, HugeMapping):
            raise MappingError(f"iova {iova:#x} already mapped (huge leaf)")
        return child

    def _create_path(self, iova: int) -> tuple[PageTablePage, ...]:
        """Descend from the root creating missing pages; index the
        PT-L4 page's path (called on a path-index miss)."""
        page = self.root
        path = [page]
        for level in (1, 2, 3):
            page = self._child(page, iova, level)
            path.append(page)
        stored = tuple(path)
        self._paths[iova >> PTL4_PAGE_SHIFT] = stored
        return stored

    def _huge_path(self, iova: int) -> Optional[tuple[PageTablePage, ...]]:
        """(PT-L1, PT-L2, PT-L3) of a huge leaf covering ``iova``, else
        ``None`` (the descent run on a path-index miss)."""
        page = self.root
        path = [page]
        for level in (1, 2):
            child = page.entries.get(level_index(iova, level))
            if child is None:
                return None
            page = child  # type: ignore[assignment]
            path.append(page)
        if isinstance(page.entries.get(level_index(iova, 3)), HugeMapping):
            return tuple(path)
        return None

    def _reclaim_covered(
        self,
        page: PageTablePage,
        start: int,
        end: int,
        reclaimed: list[ReclaimedPage],
    ) -> None:
        """Free child pages whose whole coverage lies inside [start, end)."""
        if page.level >= 4:
            return
        shift = LEVEL_SHIFTS[page.level]
        child_span = 1 << shift
        # Only children overlapping the range can be affected.
        first = max(0, (start - page.base_iova) >> shift)
        last = min(
            ENTRIES_PER_PAGE - 1, (end - 1 - page.base_iova) >> shift
        )
        for index in range(first, last + 1):
            child = page.entries.get(index)
            if not isinstance(child, PageTablePage):
                continue
            child_start = page.base_iova + index * child_span
            child_end = child_start + child_span
            if start <= child_start and child_end <= end:
                # The single operation covers this child completely:
                # reclaim it (and implicitly everything below it).
                self._count_subtree_reclaim(child, reclaimed)
                del page.entries[index]
            else:
                self._reclaim_covered(child, start, end, reclaimed)

    def _count_subtree_reclaim(
        self, page: PageTablePage, reclaimed: list[ReclaimedPage]
    ) -> None:
        reclaimed.append(
            ReclaimedPage(page.level, page.base_iova, page.coverage_bytes)
        )
        if self.monitor is not None:
            self.monitor.record(PtPageReclaimedEvent(page))
        self.stats.pages_reclaimed += 1
        self.stats.reclaims_by_level[page.level] += 1
        if page.level == 4:
            del self._paths[page.base_iova >> PTL4_PAGE_SHIFT]
        for child in page.entries.values():
            if isinstance(child, PageTablePage):
                self._count_subtree_reclaim(child, reclaimed)
