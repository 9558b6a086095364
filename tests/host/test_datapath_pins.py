"""Event-order pins for the host datapath.

Each cell runs a short testbed (Rx flows plus a Tx flow) under a
metrics registry with a periodic sampler and records:

* ``sim.executed_events`` — how many events the run executed;
* the engine's final ``_seq`` — how many events were ever scheduled;
* a sha256 over ``repr(result)`` and the registry report.

The values were recorded before the per-packet Rx call chain was
folded into one closure-free chain.  A datapath refactor that claims
"same events, same ``(time, seq)``" must leave all three unchanged;
any difference means an event moved, appeared or vanished.
"""

from __future__ import annotations

import contextlib
import hashlib
import json

import pytest

from repro.faults import FaultPlan, FaultSpec, faulted
from repro.host.config import HostConfig
from repro.host.testbed import Testbed
from repro.obs import MetricsRegistry, observed
from repro.verify import InvariantMonitor, monitored

WARMUP_NS = 200_000.0
MEASURE_NS = 600_000.0
SAMPLE_NS = 25_000.0

# Hits every fault branch of the Rx/Tx DMA path: a NIC descriptor-engine
# stall, lost doorbells, a PCIe link flap and NACK replays.
FAULT_PLAN = FaultPlan(
    seed=11,
    name="datapath-pins",
    specs=(
        FaultSpec("nic", "ring-stall", 300_000.0, 380_000.0),
        FaultSpec(
            "nic",
            "doorbell-drop",
            0.0,
            WARMUP_NS + MEASURE_NS,
            probability=0.3,
            magnitude=20_000.0,
        ),
        FaultSpec("pcie", "link-flap", 500_000.0, 520_000.0),
        FaultSpec(
            "pcie",
            "nack-replay",
            0.0,
            WARMUP_NS + MEASURE_NS,
            probability=0.2,
            magnitude=1_500.0,
        ),
    ),
)


def run_cell(mode: str, faults: bool = False, monitor: bool = False):
    """Run one pinned cell; returns ``(pins, testbed)``."""
    registry = MetricsRegistry(sample_interval_ns=SAMPLE_NS)
    with contextlib.ExitStack() as stack:
        stack.enter_context(observed(registry))
        if faults:
            stack.enter_context(faulted(FAULT_PLAN))
        if monitor:
            stack.enter_context(monitored(InvariantMonitor()))
        config = HostConfig.cascade_lake(mode=mode)
        testbed = Testbed(config)
        testbed.add_rx_flows(3, cores=[0, 1, 2])
        testbed.add_tx_flows(1, cores=[3])
        result = testbed.run(warmup_ns=WARMUP_NS, measure_ns=MEASURE_NS)
    digest = hashlib.sha256()
    digest.update(repr(result).encode())
    digest.update(json.dumps(registry.report(), sort_keys=True).encode())
    pins = (
        testbed.sim.executed_events,
        testbed.sim._seq,
        digest.hexdigest(),
    )
    return pins, testbed


CELLS = {
    "off": dict(mode="off"),
    "strict": dict(mode="strict"),
    "fns": dict(mode="fns"),
    "fns-faults": dict(mode="fns", faults=True),
    "strict-monitored": dict(mode="strict", monitor=True),
}

# name -> (executed_events, final _seq, sha256(repr(result) + report)).
PINS = {
    "fns": (
        11786,
        12545,
        "373800dfc5c63064783df7d6ad4b513591ac93db4d1627366d157cf3c1ef191f",
    ),
    "fns-faults": (
        3380,
        3664,
        "c2266d1f9f3fc381268ed98bf3619ca46298de14fa4c5dee85983aadb7b207de",
    ),
    "off": (
        16725,
        17753,
        "a24c781d3ebaa853f08e781c6cdfef9956346f17cf4ff32fa1418ff448bed928",
    ),
    "strict": (
        7496,
        8168,
        "4fc65b3066819b7f2dc916be663bb19c424163d2987f43ea901a43a4c8951870",
    ),
    "strict-monitored": (
        7496,
        8168,
        "4fc65b3066819b7f2dc916be663bb19c424163d2987f43ea901a43a4c8951870",
    ),
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_datapath_pins(name):
    pins, testbed = run_cell(**CELLS[name])
    host = testbed.host
    assert host.rx_data_segments > 0
    assert host.tx_data_segments > 0
    assert pins == PINS[name]


def test_fault_cell_hits_every_fault_branch():
    _pins, testbed = run_cell(**CELLS["fns-faults"])
    host = testbed.host
    assert host.nic.stalled_dequeues > 0
    assert sum(ring.dropped_doorbells for ring in host.nic.rings) > 0
    pipelines = (host.rx_pipeline, host.tx_pipeline)
    assert sum(p.held_dmas for p in pipelines) > 0
    assert sum(p.replayed_dmas for p in pipelines) > 0
