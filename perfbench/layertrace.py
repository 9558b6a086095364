"""Layer span tracer for the benchmark's traced pass.

A ``sys.setprofile`` hook attributes wall time to the simulator's
layers, the top-level packages of ``repro`` (``repro.iommu`` is layer
``iommu``).  A span opens whenever a call crosses from one layer into
another and closes when that call returns; each span records its
layer, start, end and parent span.  Calls into code outside the traced
layers (the standard library, builtins, out-of-scope ``repro``
packages) open no span, so their time counts toward the layer that
called them.  A layer's self time is the time of its spans minus the
time of their child spans; time outside every span is the benchmark's
own, reported as unattributed.

The hook also counts calls to a fixed set of named entry points
(``Iotlb.lookup``, ``IovaRbTree.insert``, ...) and sums their inclusive
time, which gives the per-call ``_ns`` figures.

Spans stay in memory until :meth:`LayerTracer.write` stores them as
``<prefix>.json`` (layer names, totals, probe counts) plus
``<prefix>.spans`` (four packed arrays of ``count`` entries each, in
the host's byte order: float64 start seconds, float64 end seconds,
int64 parent span index or -1, uint8 layer index).
"""

from __future__ import annotations

import json
import sys
import time
from array import array

__all__ = ["LAYERS", "PROBES", "LayerTracer"]

LAYERS = (
    "sim",
    "host",
    "nic",
    "pcie",
    "iommu",
    "iova",
    "protection",
    "net",
    "mem",
    "apps",
    "analysis",
    "obs",
    "experiments",
    "parallel",
)

# Named entry points: probe key -> (layer, qualified name).  A name of
# the form ``*.method`` matches that method on any class of the layer.
PROBES = {
    "iommu.translate": ("iommu", "Iommu.translate"),
    "iommu.iotlb_lookup": ("iommu", "Iotlb.lookup"),
    "iommu.ptcache_probe": ("iommu", "PtCacheHierarchy.probe"),
    "iommu.walk": ("iommu", "IOPageTable.walk"),
    "iommu.inv_submit": ("iommu", "InvalidationQueue.submit_invalidation"),
    "iova.alloc": ("iova", "CachingIovaAllocator.alloc"),
    "iova.free": ("iova", "CachingIovaAllocator.free"),
    "iova.rbtree_insert": ("iova", "IovaRbTree.insert"),
    "iova.rbtree_delete": ("iova", "IovaRbTree.delete"),
    "host.age_allocator": ("host", "Host._age_allocator"),
    "host.testbed_init": ("host", "Testbed.__init__"),
    "mem.physmem_init": ("mem", "PhysicalMemory.__init__"),
    "protection.make_rx_descriptor": ("protection", "*.make_rx_descriptor"),
    "protection.map_tx_page": ("protection", "*.map_tx_page"),
    "protection.retire_rx_descriptor": (
        "protection",
        "*.retire_rx_descriptor",
    ),
    "sim.schedule_at": ("sim", "Simulator.schedule_at"),
    "sim.call_at": ("sim", "Simulator.call_at"),
    "parallel.run_points": ("parallel", "run_points"),
    "obs.evaluate_figure": ("obs", "evaluate_figure"),
    "obs.collect_sections": ("obs", "collect_sections"),
    "obs.run_reproduce": ("obs", "run_reproduce"),
}


class LayerTracer:
    """Per-layer spans and entry-point counts from one profile hook."""

    def __init__(self) -> None:
        self.layer_index = {name: index for index, name in enumerate(LAYERS)}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.layers = array("B")
        self.self_s = [0.0] * len(LAYERS)
        self.top_level_s = 0.0
        self.wall_s = 0.0
        self.probe_calls = dict.fromkeys(PROBES, 0)
        self.probe_s = dict.fromkeys(PROBES, 0.0)
        exact = {}
        by_method = {}
        for key, (layer, name) in PROBES.items():
            if name.startswith("*."):
                by_method[(layer, name[2:])] = key
            else:
                exact[(layer, name)] = key
        self._exact = exact
        self._by_method = by_method

    # ------------------------------------------------------------------
    def _classify(self, code, module: str) -> tuple:
        """``(layer index or -1, probe key or None)`` for a code object."""
        parts = module.split(".", 2)
        if parts[0] != "repro" or len(parts) < 2:
            return (-1, None)
        layer = parts[1]
        index = self.layer_index.get(layer, -1)
        qualname = code.co_qualname
        key = self._exact.get((layer, qualname))
        if key is None and "." in qualname:
            key = self._by_method.get((layer, code.co_name))
        return (index, key)

    def _hook(self):
        clock = time.perf_counter
        classify = self._classify
        info_of: dict = {}
        spans: list = []  # [frame, outer layer, start, child time, index]
        probes: list = []  # (frame, key, start)
        starts_append = self.starts.append
        ends_append = self.ends.append
        parents_append = self.parents.append
        layers_append = self.layers.append
        ends = self.ends
        self_s = self.self_s
        calls = self.probe_calls
        probe_s = self.probe_s
        current = [-1]  # innermost open span's layer; -1: benchmark code
        tracer = self

        def hook(frame, event, arg):
            if event == "call":
                code = frame.f_code
                info = info_of.get(code)
                if info is None:
                    info = classify(code, frame.f_globals.get("__name__", ""))
                    info_of[code] = info
                layer, key = info
                if key is not None:
                    calls[key] += 1
                    probes.append((frame, key, clock()))
                if layer >= 0 and layer != current[0]:
                    now = clock()
                    index = len(ends)
                    starts_append(now)
                    ends_append(now)
                    parents_append(spans[-1][4] if spans else -1)
                    layers_append(layer)
                    spans.append([frame, current[0], now, 0.0, index])
                    current[0] = layer
            elif event == "return":
                if spans and spans[-1][0] is frame:
                    now = clock()
                    _frame, outer, start, child, index = spans.pop()
                    ends[index] = now
                    elapsed = now - start
                    self_s[current[0]] += elapsed - child
                    if spans:
                        spans[-1][3] += elapsed
                    else:
                        tracer.top_level_s += elapsed
                    current[0] = outer
                if probes and probes[-1][0] is frame:
                    _frame, key, start = probes.pop()
                    probe_s[key] += clock() - start

        return hook

    def run(self, body):
        """Call ``body()`` under the hook; returns its result."""
        hook = self._hook()
        start = time.perf_counter()
        sys.setprofile(hook)
        try:
            return body()
        finally:
            sys.setprofile(None)
            self.wall_s += time.perf_counter() - start

    # ------------------------------------------------------------------
    @property
    def span_count(self) -> int:
        return len(self.ends)

    def layer_self_s(self) -> dict:
        return dict(zip(LAYERS, self.self_s))

    @property
    def unattributed_s(self) -> float:
        """Traced wall time spent outside every layer span."""
        return self.wall_s - self.top_level_s

    def write(self, prefix: str) -> None:
        """Store the spans and totals (see the module docstring)."""
        with open(prefix + ".spans", "wb") as handle:
            for column in (self.starts, self.ends, self.parents, self.layers):
                column.tofile(handle)
        header = {
            "layers": list(LAYERS),
            "count": self.span_count,
            "byteorder": sys.byteorder,
            "columns": [
                ["start_s", "float64"],
                ["end_s", "float64"],
                ["parent", "int64"],
                ["layer", "uint8"],
            ],
            "wall_s": self.wall_s,
            "unattributed_s": self.unattributed_s,
            "self_s": self.layer_self_s(),
            "probe_calls": self.probe_calls,
            "probe_s": self.probe_s,
        }
        with open(prefix + ".json", "w") as handle:
            json.dump(header, handle, indent=1)
            handle.write("\n")
