"""IOVA allocation: Linux rbtree + per-CPU caches, and F&S chunks."""

from .aging import age_allocator, replay_aging
from .allocator import (
    DEFAULT_LIMIT_PFN,
    IovaAllocator,
    IovaExhaustedError,
    RbTreeIovaAllocator,
)
from .caching import (
    MAG_SIZE,
    MAX_CACHED_ORDER,
    CachingIovaAllocator,
    Magazine,
)
from .contiguous import DEFAULT_CHUNK_PAGES, ChunkIovaAllocator, IovaChunk
from .rbtree import IovaRange, IovaRbTree

__all__ = [
    "age_allocator",
    "replay_aging",
    "IovaAllocator",
    "RbTreeIovaAllocator",
    "CachingIovaAllocator",
    "ChunkIovaAllocator",
    "IovaChunk",
    "IovaRange",
    "IovaRbTree",
    "Magazine",
    "IovaExhaustedError",
    "DEFAULT_LIMIT_PFN",
    "DEFAULT_CHUNK_PAGES",
    "MAG_SIZE",
    "MAX_CACHED_ORDER",
]
