"""Differential test: the one-pass aging kernel against the replay.

:func:`repro.iova.age_allocator` skips the ~100k tree inserts and
deletes of :func:`repro.iova.replay_aging` (the scalar reference twin).
The skip is safe only if the two end states cannot be told apart: every
state field must match, and both allocators must keep answering a
later alloc/free stream identically.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.iommu import Iommu
from repro.iova import (
    CachingIovaAllocator,
    age_allocator,
    replay_aging,
)
from repro.mem.physmem import PhysicalMemory
from repro.protection import DeferredDriver, StrictFamilyDriver

FAMILIES = {
    "strict": StrictFamilyDriver.linux_strict,
    "fns": StrictFamilyDriver.fns,
    "fns-huge": StrictFamilyDriver.fns_huge,
    "linux+A": StrictFamilyDriver.linux_plus_preserve,
    "linux+B": StrictFamilyDriver.linux_plus_contiguous,
}


def driver_allocator(family, cores):
    """The fresh IOVA allocator a ``family`` driver builds."""
    iommu, physmem = Iommu(), PhysicalMemory(total_frames=1 << 12)
    if family == "deferred":
        driver = DeferredDriver(iommu, physmem, cores)
    elif family == "fns-huge":
        driver = FAMILIES[family](iommu, physmem, cores, chunk_pages=512)
    else:
        driver = FAMILIES[family](iommu, physmem, cores)
    return driver.allocator


def state(allocator):
    """Every field aging can touch, in a comparable form."""
    rbtree = allocator.rbtree
    cached = rbtree._cached
    return {
        "ranges": [(node.pfn_lo, node.pfn_hi) for node in rbtree.tree],
        "size": len(rbtree.tree),
        "cached": None if cached is None else cached.pfn_lo,
        "magazines": [
            [(list(rc.loaded.pfns), list(rc.prev.pfns)) for rc in per_cpu]
            for per_cpu in allocator._cpu_rcaches
        ],
        "depot": [[list(mag.pfns) for mag in d] for d in allocator._depot],
        "rcache_ns": list(allocator.cpu_ns_by_core.items()),
        "rbtree_ns": list(rbtree.cpu_ns_by_core.items()),
        "counters": (
            allocator.cache_hits,
            allocator.cache_misses,
            allocator.alloc_count,
            allocator.free_count,
            rbtree.alloc_count,
            rbtree.free_count,
            rbtree.allocated_pages,
        ),
    }


def continue_stream(allocator, seed, cores, steps=300):
    """A mixed 1/2/64-page alloc/free stream; returns what it saw."""
    rng = random.Random(seed)
    live = []
    seen = []
    for _ in range(steps):
        cpu = rng.randrange(cores)
        if live and rng.random() < 0.45:
            iova, pages = live.pop(rng.randrange(len(live)))
            allocator.free(iova, pages, cpu=cpu)
            seen.append(("free", iova))
        else:
            pages = rng.choice((1, 1, 2, 64))
            iova = allocator.alloc(pages, cpu=cpu)
            live.append((iova, pages))
            seen.append(("alloc", iova, pages))
    return seen


@settings(max_examples=12, deadline=None)
@given(
    count=st.one_of(st.integers(0, 9000), st.integers(0, 100_000)),
    seed=st.integers(0, 2**32 - 1),
    cores=st.integers(1, 8),
    family=st.sampled_from(sorted(FAMILIES) + ["deferred"]),
)
@example(count=98_304, seed=42, cores=8, family="fns")
@example(count=16_384, seed=42, cores=4, family="strict")
@example(count=5, seed=1, cores=8, family="deferred")
# A flush frees the cached scan node itself; it must move to the
# freed node's successor, which is still in the tree at the end.
@example(count=9_764, seed=891, cores=1, family="linux+A")
def test_kernel_matches_replay(count, seed, cores, family):
    reference = driver_allocator(family, cores)
    kernel = driver_allocator(family, cores)
    replay_aging(reference, count, seed, cores)
    age_allocator(kernel, count, seed, cores)
    assert state(kernel) == state(reference)
    kernel.rbtree.tree.check_invariants()
    assert continue_stream(kernel, seed, cores) == continue_stream(
        reference, seed, cores
    )
    assert state(kernel) == state(reference)


def test_aging_leaves_no_trace_entries():
    trace = [(0x1000, 1)]
    for age in (replay_aging, age_allocator):
        allocator = CachingIovaAllocator(2, trace=trace)
        age(allocator, 600, 3, 2)
        assert trace == [(0x1000, 1)]


def test_cached_node_runs_off_the_top():
    # One core, enough frees to flush: the replay moves the cached
    # scan node past the highest survivor, leaving it unset.
    reference = CachingIovaAllocator(1)
    kernel = CachingIovaAllocator(1)
    replay_aging(reference, 20_000, 7, 1)
    age_allocator(kernel, 20_000, 7, 1)
    assert reference.rbtree._cached is None
    assert state(kernel) == state(reference)
    for pages in (2, 64, 1):
        assert kernel.alloc(pages, cpu=0) == reference.alloc(pages, cpu=0)


class TestPreconditions:
    def test_needs_fresh_allocator(self):
        allocator = CachingIovaAllocator(2)
        allocator.alloc(1, cpu=0)
        with pytest.raises(ValueError, match="fresh"):
            age_allocator(allocator, 100, 1, 2)

    def test_cores_must_fit(self):
        with pytest.raises(ValueError, match="cores"):
            age_allocator(CachingIovaAllocator(2), 100, 1, 3)

    def test_zero_count_is_a_no_op(self):
        allocator = CachingIovaAllocator(2)
        before = state(allocator)
        age_allocator(allocator, 0, 1, 2)
        assert state(allocator) == before
