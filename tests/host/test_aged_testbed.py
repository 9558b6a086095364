"""Testbeds built with the one-pass aging kernel behave like replayed ones.

``Host._age_allocator`` ages the allocator with
:func:`repro.iova.age_allocator`, which replays the alloc/free stream
only when an invariant monitor must observe it.  The kernel runs under
a metrics registry, so an observed testbed and a bare one must give
identical results, and monitored runs (the replay) must stay
violation-free.
"""

from repro.host import HostConfig, Testbed
from repro.iova import CachingIovaAllocator, age_allocator
from repro.obs import MetricsRegistry, observed
from repro.verify import InvariantMonitor, monitored


def run_quick(mode="strict"):
    testbed = Testbed(HostConfig.cascade_lake(mode=mode))
    testbed.add_rx_flows(2)
    result = testbed.run(
        warmup_ns=1_000_000.0, measure_ns=2_000_000.0, strict_until=True
    )
    return result, testbed


def fingerprint(result, testbed):
    return (
        result.rx_goodput_gbps,
        result.drops,
        result.memory_reads_per_page,
        result.allocation_trace,
        testbed.sim.executed_events,
    )


def test_registry_does_not_change_results():
    bare = fingerprint(*run_quick())
    with observed(MetricsRegistry()):
        watched = fingerprint(*run_quick())
    assert watched == bare


def test_registry_scopes_read_the_aged_allocator():
    registry = MetricsRegistry()
    registry.begin_phase("aging")
    with observed(registry):
        allocator = CachingIovaAllocator(2)
    age_allocator(allocator, 600, 1, 2)
    values = registry.phases[-1].read_all()
    assert values["iova.rcache.frees"] == 600
    assert values["iova.rbtree.allocs"] == 600


def test_monitored_runs_are_violation_free():
    for mode in ("strict", "fns"):
        monitor = InvariantMonitor(raise_on_violation=False)
        with monitored(monitor):
            testbed = Testbed(HostConfig.cascade_lake(mode=mode))
            testbed.add_rx_flows(1)
            testbed.run(warmup_ns=200_000.0, measure_ns=400_000.0)
        assert monitor.violations == []
        # The replay ran: the monitor saw every aging alloc and free.
        assert monitor.events_recorded >= 2 * testbed.config.effective_aging_iovas
