"""Unit tests for the physical frame allocator."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import OutOfMemoryError, PhysicalMemory


def test_alloc_returns_distinct_frames():
    mem = PhysicalMemory(total_frames=16)
    frames = mem.alloc_frames(16)
    assert len(set(frames)) == 16


def test_exhaustion_raises():
    mem = PhysicalMemory(total_frames=2)
    mem.alloc_frames(2)
    with pytest.raises(OutOfMemoryError):
        mem.alloc_frame()


def test_free_allows_reuse():
    mem = PhysicalMemory(total_frames=1)
    frame = mem.alloc_frame()
    mem.free_frame(frame)
    assert mem.alloc_frame() == frame


def test_double_free_raises():
    mem = PhysicalMemory(total_frames=4)
    frame = mem.alloc_frame()
    mem.free_frame(frame)
    with pytest.raises(ValueError):
        mem.free_frame(frame)


def test_free_unallocated_raises():
    mem = PhysicalMemory(total_frames=4)
    with pytest.raises(ValueError):
        mem.free_frame(3)


def test_usage_accounting():
    mem = PhysicalMemory(total_frames=8)
    frames = mem.alloc_frames(5)
    assert mem.frames_in_use == 5
    mem.free_frames(frames[:2])
    assert mem.frames_in_use == 3
    assert mem.alloc_count == 5
    assert mem.free_count == 2


def test_is_allocated():
    mem = PhysicalMemory(total_frames=4)
    frame = mem.alloc_frame()
    assert mem.is_allocated(frame)
    mem.free_frame(frame)
    assert not mem.is_allocated(frame)


def test_negative_count_rejected():
    mem = PhysicalMemory(total_frames=4)
    with pytest.raises(ValueError):
        mem.alloc_frames(-1)


def test_zero_frames_rejected():
    with pytest.raises(ValueError):
        PhysicalMemory(total_frames=0)


class EagerPhysicalMemory:
    """Reference twin: the pool as one eagerly built LIFO free list."""

    def __init__(self, total_frames):
        self.total_frames = total_frames
        self.free = list(range(total_frames - 1, -1, -1))
        self.allocated = set()
        self.huge = PhysicalMemory(total_frames)  # huge path is unchanged

    def alloc_frame(self):
        if not self.free:
            raise OutOfMemoryError("physical memory exhausted")
        frame = self.free.pop()
        self.allocated.add(frame)
        return frame

    def free_frame(self, frame):
        if frame not in self.allocated:
            raise ValueError(f"frame {frame} is not allocated")
        self.allocated.remove(frame)
        self.free.append(frame)

    @property
    def frames_in_use(self):
        return len(self.allocated) + 512 * self.huge.huge_in_use


def outcome(call):
    try:
        return ("ok", call())
    except (OutOfMemoryError, ValueError) as error:
        return (type(error).__name__, str(error))


@settings(max_examples=60, deadline=None)
@given(
    total=st.integers(1, 64),
    ops=st.lists(
        st.tuples(
            st.sampled_from(
                ("alloc", "alloc", "free", "free", "double", "huge", "unhuge")
            ),
            st.integers(0, 2**16),
        ),
        min_size=20,
        max_size=300,
    ),
)
def test_lazy_pool_matches_eager_list(total, ops):
    lazy, eager = PhysicalMemory(total), EagerPhysicalMemory(total)
    held, freed, huge = [], [], []
    for op, pick in ops:
        if op == "alloc":
            got = outcome(lazy.alloc_frame)
            assert got == outcome(eager.alloc_frame)
            if got[0] == "ok":
                held.append(got[1])
        elif op == "free" and held:
            frame = held.pop(pick % len(held))
            assert outcome(lambda: lazy.free_frame(frame)) == outcome(
                lambda: eager.free_frame(frame)
            )
            freed.append(frame)
        elif op == "double" and freed:
            frame = freed[pick % len(freed)]
            if frame not in held:
                got = outcome(lambda: lazy.free_frame(frame))
                assert got[0] == "ValueError"
                assert got == outcome(lambda: eager.free_frame(frame))
        elif op == "huge":
            base = lazy.alloc_huge()
            assert eager.huge.alloc_huge() == base
            huge.append(base)
        elif op == "unhuge" and huge:
            base = huge.pop(pick % len(huge))
            lazy.free_huge(base)
            eager.huge.free_huge(base)
        assert lazy.frames_in_use == eager.frames_in_use


@pytest.mark.parametrize("total", [1, 7, 512])
def test_exhausts_at_exactly_total_frames(total):
    mem = PhysicalMemory(total)
    assert mem.alloc_frames(total) == list(range(total))
    with pytest.raises(OutOfMemoryError):
        mem.alloc_frame()
    mem.free_frame(total // 2)
    assert mem.alloc_frame() == total // 2
    with pytest.raises(OutOfMemoryError):
        mem.alloc_frame()


def test_construction_is_lazy():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mem = PhysicalMemory(1 << 21)
        allocated = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert mem.total_frames == 1 << 21
    assert allocated < 1 << 20
