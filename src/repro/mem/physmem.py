"""Physical memory frame allocator.

The NIC driver allocates physical 4 KB frames to back Rx descriptor
buffers and Tx socket buffers; the IOMMU driver maps IOVAs onto those
frames.  This module provides a simple free-list frame allocator with
the accounting the experiments need (frames in use, allocation churn).

Frame numbers, not byte addresses, are the currency: frame ``n`` covers
physical bytes ``[n * PAGE_SIZE, (n + 1) * PAGE_SIZE)``.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["PAGE_SIZE", "PAGE_SHIFT", "PhysicalMemory", "OutOfMemoryError"]

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT  # 4 KB


class OutOfMemoryError(MemoryError):
    """Raised when the frame allocator is exhausted."""


class PhysicalMemory:
    """A fixed pool of 4 KB physical frames.

    Frames are handed out LIFO (hot frames are reused first, like a real
    per-CPU page allocator), which also makes allocation O(1).  The pool
    is filled lazily: freed frames sit on a stack, and frames never
    handed out are the ascending range from a fresh-frame watermark.
    That is the order an eager descending free list would pop them in,
    without building a ``total_frames``-entry list per instance.
    """

    HUGE_FRAMES = 512  # 2 MB of 4 KB frames

    def __init__(self, total_frames: int = 1 << 20) -> None:
        if total_frames <= 0:
            raise ValueError("need at least one frame")
        self.total_frames = total_frames
        self._free: list[int] = []
        self._next_fresh = 0
        self._allocated: set[int] = set()
        self.alloc_count = 0
        self.free_count = 0
        # Huge (2 MB) allocations come from a separate, aligned region
        # growing down from a high watermark, with a free list for
        # reuse; 4 KB and 2 MB allocations never overlap because the
        # huge watermark starts above ``total_frames``.
        self._huge_next = ((total_frames + 511) // 512 + 1) * 512
        self._huge_free: list[int] = []
        self._huge_allocated: set[int] = set()

    def alloc_frame(self) -> int:
        """Allocate one frame; raises :class:`OutOfMemoryError` if empty."""
        if self._free:
            frame = self._free.pop()
        elif self._next_fresh < self.total_frames:
            frame = self._next_fresh
            self._next_fresh += 1
        else:
            raise OutOfMemoryError("physical memory exhausted")
        self._allocated.add(frame)
        self.alloc_count += 1
        return frame

    def alloc_frames(self, count: int) -> list[int]:
        """Allocate ``count`` frames (not necessarily contiguous)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.alloc_frame() for _ in range(count)]

    def free_frame(self, frame: int) -> None:
        """Return a frame to the pool; double frees raise ``ValueError``."""
        if frame not in self._allocated:
            raise ValueError(f"frame {frame} is not allocated")
        self._allocated.remove(frame)
        self._free.append(frame)
        self.free_count += 1

    def free_frames(self, frames: Iterable[int]) -> None:
        for frame in frames:
            self.free_frame(frame)

    def alloc_huge(self) -> int:
        """Allocate 512 physically contiguous, 2 MB-aligned frames;
        returns the base frame number."""
        if self._huge_free:
            base = self._huge_free.pop()
        else:
            base = self._huge_next
            self._huge_next += self.HUGE_FRAMES
        self._huge_allocated.add(base)
        self.alloc_count += 1
        return base

    def free_huge(self, base_frame: int) -> None:
        """Return a huge allocation; double frees raise ``ValueError``."""
        if base_frame not in self._huge_allocated:
            raise ValueError(f"huge frame {base_frame} is not allocated")
        self._huge_allocated.remove(base_frame)
        self._huge_free.append(base_frame)
        self.free_count += 1

    @property
    def huge_in_use(self) -> int:
        return len(self._huge_allocated)

    @property
    def frames_in_use(self) -> int:
        return len(self._allocated) + 512 * len(self._huge_allocated)

    def is_allocated(self, frame: int) -> bool:
        return frame in self._allocated
