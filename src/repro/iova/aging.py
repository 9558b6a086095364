"""Long-uptime allocator state: a one-pass aging kernel and its replay twin.

The PTcache-L3 miss regime of §2.2 only appears on a server whose IOVA
allocator has been up for a while: its magazines and depot hold
addresses spanning a wide extent in scrambled order.  Testbeds
reproduce that state by *aging* a fresh :class:`CachingIovaAllocator`:
allocate ``count`` page-sized IOVAs round-robin over ``cores``, then
free them in shuffled order to random cores.

:func:`replay_aging` runs that stream through the real alloc/free
paths.  It is the scalar reference twin, and it is what runs under an
invariant monitor, which must observe every alloc and free event.
:func:`age_allocator` reaches the same end state in one pass over the
frees:

1. **Allocs in closed form.**  On a fresh allocator every alloc misses
   the empty rcache and takes the rbtree's top-down path with zero scan
   steps, so alloc ``i`` returns pfn ``limit_pfn - i`` and charges one
   tree op to core ``i % cores``.  Only the counters move.
2. **Frees as a real loop.**  The magazine/depot logic runs for every
   free with the replay's shuffle and ``randint`` draws.  Tree frees of
   flushed magazines clear bits of a presence map instead of deleting
   rbtree nodes, and the cached scan node moves exactly as
   :meth:`RbTreeIovaAllocator.free` moves it.
3. **Survivors only.**  The ranges still allocated are inserted into
   the tree, a few thousand instead of the ~100k inserts and deletes of
   the replay.

The kernel mutates the allocator's own objects in place, so registry
scopes that captured them stay live.  ``tests/iova/test_aging.py``
checks it against the replay field by field.
"""

from __future__ import annotations

from ..sim.rng import SeededRng
from .allocator import IovaExhaustedError
from .caching import DEPOT_MAX_MAGS, CachingIovaAllocator, Magazine
from .rbtree import IovaRange

__all__ = ["age_allocator", "replay_aging"]

_STREAM = "allocator-aging"


def replay_aging(
    allocator: CachingIovaAllocator, count: int, seed: int, cores: int
) -> None:
    """Age ``allocator`` by running the whole stream through alloc/free.

    Allocation-trace entries from aging are discarded.
    """
    rng = SeededRng(seed, _STREAM)
    trace = allocator.trace
    mark = len(trace) if trace is not None else 0
    iovas = [allocator.alloc(1, cpu=index % cores) for index in range(count)]
    rng.shuffle(iovas)
    for iova in iovas:
        allocator.free(iova, 1, cpu=rng.randint(0, cores - 1))
    if trace is not None:
        del trace[mark:]


def age_allocator(
    allocator: CachingIovaAllocator, count: int, seed: int, cores: int
) -> None:
    """Age a fresh ``allocator`` to the exact end state of the replay.

    Falls back to :func:`replay_aging` when a monitor is attached.
    """
    if count <= 0:
        return
    rbtree = allocator.rbtree
    if allocator.monitor is not None or rbtree.monitor is not None:
        replay_aging(allocator, count, seed, cores)
        return
    if not 0 < cores <= allocator.num_cpus:
        raise ValueError(f"cores must be in 1..{allocator.num_cpus}")
    if not _is_fresh(allocator):
        raise ValueError("aging needs a fresh allocator")
    top = rbtree.limit_pfn
    if count > top + 1:
        raise IovaExhaustedError(f"no gap of 1 pages below pfn {top:#x}")
    base = top - count + 1

    # Phase 1: alloc i -> pfn top - i, one tree op on core i % cores.
    tree_cost = rbtree.tree_op_cost_ns
    alloc_cost = tree_cost + rbtree.scan_step_cost_ns * 0  # zero steps
    rounds, extra = divmod(count, cores)
    rb_ns = rbtree.cpu_ns_by_core
    for cpu in range(min(count, cores)):
        total = 0.0
        for _ in range(rounds + (cpu < extra)):
            total += alloc_cost
        rb_ns[cpu] = total
    allocator.alloc_count = count
    allocator.cache_misses = count
    rbtree.alloc_count = count

    # Phase 2: the frees.  present[j] says whether pfn base + j is
    # still in the tree; cached is the index of the cached scan node
    # (the last alloc, pfn base), or -1 once it has run off the top.
    rng = SeededRng(seed, _STREAM)
    pfns = list(range(top, base - 1, -1))
    rng.shuffle(pfns)
    present = bytearray(b"\x01") * count
    cached = 0
    rcaches = [per_cpu[0] for per_cpu in allocator._cpu_rcaches]
    depot = allocator._depot[0]
    ns = allocator.cpu_ns_by_core
    hit_cost = allocator.cache_hit_cost_ns
    depot_cost = allocator.depot_cost_ns
    tree_frees = 0
    randint = rng.randint
    for pfn in pfns:
        cpu = randint(0, cores - 1)
        rcache = rcaches[cpu]
        if rcache.loaded.is_full():
            if not rcache.prev.is_full():
                rcache.loaded, rcache.prev = rcache.prev, rcache.loaded
            else:
                depot.append(rcache.loaded)
                rcache.loaded = Magazine()
                if len(depot) > DEPOT_MAX_MAGS:
                    for flushed in depot.pop(0).pfns:
                        index = flushed - base
                        if 0 <= cached <= index:
                            # The freed node's successor.
                            cached = present.find(1, index + 1)
                        present[index] = 0
                        rb_ns[cpu] = rb_ns.get(cpu, 0.0) + tree_cost
                        tree_frees += 1
                ns[cpu] = ns.get(cpu, 0.0) + depot_cost
        rcache.loaded.pfns.append(pfn)
        ns[cpu] = ns.get(cpu, 0.0) + hit_cost
    allocator.free_count = count
    rbtree.free_count = tree_frees
    rbtree.allocated_pages = count - tree_frees

    # Phase 3: insert the surviving ranges.
    tree = rbtree.tree
    index = present.find(1)
    while index >= 0:
        node = IovaRange(base + index, base + index)
        tree.insert(node)
        if index == cached:
            rbtree._cached = node
        index = present.find(1, index + 1)


def _is_fresh(allocator: CachingIovaAllocator) -> bool:
    rbtree = allocator.rbtree
    return (
        len(rbtree.tree) == 0
        and rbtree._cached is None
        and not rbtree.cpu_ns_by_core
        and not allocator.cpu_ns_by_core
        and allocator.cached_iova_count() == 0
        and allocator.alloc_count == allocator.free_count == 0
        and allocator.cache_hits == allocator.cache_misses == 0
        and rbtree.alloc_count == rbtree.free_count == 0
    )

