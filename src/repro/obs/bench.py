"""Wall-clock benchmark emitter: how fast does the simulator simulate?

``repro bench`` runs a fixed set of small iperf points, times them with
the host's real clock and writes ``BENCH_sim.json`` — the one place in
the library where wall-clock time is allowed (the lint rule REPRO001 is
silenced explicitly).  The emitted document is schema-checked so CI can
fail on malformed output rather than archiving junk.

This module deliberately lives outside ``repro.obs.__init__``: it pulls
in the whole host stack (apps → testbed → IOMMU), which would create an
import cycle if executed while ``repro.obs`` itself is being imported
by an instrumented module.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional

from ..host.config import HostConfig
from ..host.testbed import Testbed

__all__ = [
    "BenchPoint",
    "bench_points",
    "run_bench",
    "check_schema",
    "write_bench",
    "history_row",
    "append_history",
    "load_history",
]

SCHEMA = "repro.bench/1"
HISTORY_SCHEMA = "repro.bench-history/1"
DEFAULT_HISTORY_PATH = "bench_history.jsonl"


@dataclass(frozen=True)
class BenchPoint:
    """One benchmark configuration: a small, deterministic iperf run."""

    name: str
    mode: str
    flows: int
    warmup_ns: float
    measure_ns: float


def bench_points(full: bool = False) -> list[BenchPoint]:
    """The default benchmark set: one point per protection mode.

    The measure windows are long on purpose: the iperf rows run with
    the epoch fast-forward, which makes simulated time nearly free once
    the workload goes steady, and a longer window shows that off.
    """
    warmup = 2_000_000.0 if not full else 4_000_000.0
    measure = 15_000_000.0 if not full else 60_000_000.0
    return [
        BenchPoint("iperf_off", "off", 2, warmup, measure),
        BenchPoint("iperf_strict", "strict", 2, warmup, measure),
        BenchPoint("iperf_fns", "fns", 2, warmup, measure),
    ]


def _run_point(point: BenchPoint) -> dict:
    config = HostConfig.cascade_lake(mode=point.mode)
    testbed = Testbed(config)
    testbed.add_rx_flows(point.flows)
    # Wall-clock by design: this module measures the simulator itself.
    start = time.perf_counter()  # noqa: REPRO001
    result = testbed.run(
        warmup_ns=point.warmup_ns,
        measure_ns=point.measure_ns,
        fast_forward=True,
    )
    wall_s = time.perf_counter() - start  # noqa: REPRO001
    sim_ns = point.warmup_ns + point.measure_ns
    # Credited events (stepped + extrapolated) — deterministic, so the
    # bench diff can still require them to match exactly.
    events = testbed.sim.executed_events + testbed.sim.fast_forwarded_events
    return {
        "name": point.name,
        "mode": point.mode,
        "flows": point.flows,
        "wall_s": wall_s,
        "sim_ns": sim_ns,
        "events": events,
        "fast_forwarded_events": testbed.sim.fast_forwarded_events,
        "events_per_wall_s": events / wall_s if wall_s > 0 else 0.0,
        "sim_ns_per_wall_s": sim_ns / wall_s if wall_s > 0 else 0.0,
        "rx_goodput_gbps": result.rx_goodput_gbps,
    }


def _sweep_specs(full: bool) -> list:
    """A small mode × flows grid for the pool benchmark."""
    from ..parallel import PointSpec, derive_seed

    flows = (2, 3) if not full else (2, 5)
    return [
        PointSpec(
            figure="bench-sweep",
            runner="iperf_flows",
            mode=mode,
            x=x,
            label=f"bench-sweep {mode} flows={x}",
            seed=derive_seed(1, "bench-sweep", mode, x),
        )
        for mode in ("off", "strict", "fns")
        for x in flows
    ]


def _run_sweep(
    name: str,
    jobs: Optional[int],
    full: bool,
    chunk: Optional[int] = None,
) -> dict:
    """Time the whole sweep suite through ``run_points``.

    Emitted with the same per-point schema: ``events`` and ``sim_ns``
    aggregate over the sweep's testbeds (exact, load-independent);
    ``flows`` reports the number of sweep points.
    """
    from ..experiments.settings import FULL, QUICK
    from ..parallel import run_points

    scale = FULL if full else QUICK
    specs = _sweep_specs(full)
    start = time.perf_counter()  # noqa: REPRO001
    results = run_points(specs, scale, jobs=jobs, chunk=chunk)
    wall_s = time.perf_counter() - start  # noqa: REPRO001
    events = sum(r.extras["executed_events"] for r in results)
    sim_ns = len(specs) * (scale.warmup_ns + scale.measure_ns)
    return {
        "name": name,
        "mode": "sweep",
        "flows": len(specs),
        "wall_s": wall_s,
        "sim_ns": sim_ns,
        "events": events,
        "events_per_wall_s": events / wall_s if wall_s > 0 else 0.0,
        "sim_ns_per_wall_s": sim_ns / wall_s if wall_s > 0 else 0.0,
    }


def _run_cache_sweep(full: bool) -> list[dict]:
    """Time the sweep suite cold and warm through the result cache.

    ``reproduce_cold`` runs the sweep against a fresh (empty) store in
    a temporary directory — every cell computes and streams into the
    cache — and ``reproduce_warm`` immediately reruns the identical
    sweep so every cell is served from the store.  The events counters
    are identical by construction (warm cells return the stored
    values), which lets the bench diff require them to match exactly
    while gating on the wall-clock ratio.
    """
    import tempfile

    from ..cache.hooks import result_cached
    from ..cache.store import ResultCache
    from ..experiments.settings import FULL, QUICK
    from ..parallel import run_points

    scale = FULL if full else QUICK
    specs = _sweep_specs(full)
    sim_ns = len(specs) * (scale.warmup_ns + scale.measure_ns)
    rows: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cache = ResultCache(tmp)
        with result_cached(cache):
            for name in ("reproduce_cold", "reproduce_warm"):
                start = time.perf_counter()  # noqa: REPRO001
                results = run_points(specs, scale)
                wall_s = time.perf_counter() - start  # noqa: REPRO001
                events = sum(
                    r.extras["executed_events"] for r in results
                )
                rows.append({
                    "name": name,
                    "mode": "sweep",
                    "flows": len(specs),
                    "wall_s": wall_s,
                    "sim_ns": sim_ns,
                    "events": events,
                    "events_per_wall_s": (
                        events / wall_s if wall_s > 0 else 0.0
                    ),
                    "sim_ns_per_wall_s": (
                        sim_ns / wall_s if wall_s > 0 else 0.0
                    ),
                })
    return rows


def run_bench(
    full: bool = False,
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
) -> dict:
    """Run every benchmark point and return the ``BENCH_sim.json`` doc.

    Always includes the ``reproduce_cold``/``reproduce_warm`` pair —
    the sweep suite through an empty result cache and again fully warm
    — so the committed document records (and ``repro diff`` gates) the
    cache's wall-clock win alongside raw simulator speed.

    With ``jobs > 1`` the sweep suite is timed three ways — serially,
    through the ``--jobs`` pool with the auto chunk size, and with an
    explicit small chunk — so the document records the multi-job
    wall-clock win alongside the serial iperf points.

    Ordering matters for the warm pool: the serial sweep runs first
    (paying the one-time process-level warmup — imports, specialized
    bytecode), then the pool is forked, so workers inherit that warm
    state via copy-on-write and the parallel sweeps measure dispatch,
    not re-warming.  The pool fork itself is a
    per-invocation cost and is deliberately not billed to any row.
    """
    benchmarks: list[dict] = []
    if jobs is not None and jobs > 1:
        from ..parallel import warm_pool

        benchmarks.append(_run_sweep("sweep_serial", None, full))
        warm_pool(jobs)
        benchmarks.append(
            _run_sweep(f"sweep_jobs{jobs}", jobs, full, chunk=chunk)
        )
        benchmarks.append(
            _run_sweep(f"sweep_jobs{jobs}_chunked", jobs, full, chunk=3)
        )
    benchmarks.extend(_run_cache_sweep(full))
    benchmarks.extend(_run_point(point) for point in bench_points(full))
    return {
        "schema": SCHEMA,
        "provenance": _provenance(full),
        "benchmarks": benchmarks,
        "total_wall_s": sum(b["wall_s"] for b in benchmarks),
    }


def _provenance(full: bool) -> dict:
    """Who/when/what for a bench run: git sha, UTC time, run scale.

    ``report.json`` has carried this since PR 4; stamping the bench
    document the same way lets ``repro diff`` name the shas it is
    comparing and gives every ``bench_history.jsonl`` row an anchor.
    Wall-clock time is by design here (same as the timings themselves).
    """
    from .expect.reproduce import _git_dirty, _git_sha

    stamp = datetime.now(timezone.utc)  # noqa: REPRO001
    return {
        "git_sha": _git_sha(),
        "git_dirty": _git_dirty(),
        "utc": stamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
        "scale": "full" if full else "quick",
    }


_REQUIRED_POINT_KEYS = {
    "name": str,
    "mode": str,
    "flows": int,
    "wall_s": (int, float),
    "sim_ns": (int, float),
    "events": int,
    "events_per_wall_s": (int, float),
    "sim_ns_per_wall_s": (int, float),
}


def check_schema(doc: object) -> list[str]:
    """Validate a ``BENCH_sim.json`` document; returns problem strings."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"document must be an object, got {type(doc).__name__}"]
    if doc.get("schema") != SCHEMA:
        problems.append(
            f"schema must be {SCHEMA!r}, got {doc.get('schema')!r}"
        )
    benchmarks = doc.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        problems.append("benchmarks must be a non-empty list")
        benchmarks = []
    for i, bench in enumerate(benchmarks):
        if not isinstance(bench, dict):
            problems.append(f"benchmarks[{i}] must be an object")
            continue
        for key, kinds in _REQUIRED_POINT_KEYS.items():
            value = bench.get(key)
            if not isinstance(value, kinds) or isinstance(value, bool):
                problems.append(
                    f"benchmarks[{i}].{key} missing or wrong type"
                )
        wall = bench.get("wall_s")
        if isinstance(wall, (int, float)) and wall <= 0:
            problems.append(f"benchmarks[{i}].wall_s must be positive")
    total = doc.get("total_wall_s")
    if not isinstance(total, (int, float)):
        problems.append("total_wall_s missing or wrong type")
    provenance = doc.get("provenance")
    if provenance is not None:  # legacy documents predate the stamp
        if not isinstance(provenance, dict):
            problems.append("provenance must be an object")
        else:
            for key in ("git_sha", "utc", "scale"):
                if not isinstance(provenance.get(key), str):
                    problems.append(
                        f"provenance.{key} missing or wrong type"
                    )
    return problems


# ----------------------------------------------------------------------
# bench_history.jsonl — the committed wall-clock trend
# ----------------------------------------------------------------------
def history_row(doc: dict) -> dict:
    """Distill a bench document into one ``bench_history.jsonl`` row.

    Keeps the provenance anchor plus, per benchmark, the trend metric
    (``events_per_wall_s``) and the deterministic work counter
    (``events``) that lets a reader tell a faster simulator from a
    smaller workload.
    """
    provenance = doc.get("provenance") or {}
    return {
        "schema": HISTORY_SCHEMA,
        "git_sha": provenance.get("git_sha", "unknown"),
        "git_dirty": provenance.get("git_dirty"),
        "utc": provenance.get("utc", "unknown"),
        "scale": provenance.get("scale", "unknown"),
        "benchmarks": {
            bench["name"]: {
                "events_per_wall_s": bench.get("events_per_wall_s"),
                "events": bench.get("events"),
                "wall_s": bench.get("wall_s"),
            }
            for bench in doc.get("benchmarks", [])
            if isinstance(bench, dict) and "name" in bench
        },
        "total_wall_s": doc.get("total_wall_s"),
    }


def _same_trend_row(row: dict, last: dict) -> bool:
    """Would appending ``row`` after ``last`` add any information?

    True when the sha (plus dirty state) and every benchmark number
    are identical — i.e. the exact same bench document appended twice
    (a re-run CI job, a retried publish step).  The ``utc`` stamp is
    deliberately ignored: it differs on every invocation and is the
    only thing a duplicate row would contribute.
    """
    ignored = {"utc"}
    keys = (set(row) | set(last)) - ignored
    return all(row.get(key) == last.get(key) for key in keys)


def append_history(doc: dict, path: str) -> Optional[dict]:
    """Append one history row for ``doc``; returns the row.

    Returns ``None`` without writing when the row would duplicate the
    last valid line of the file (same sha, same benchmark numbers) —
    the committed trend stays one row per distinct bench result.
    """
    row = history_row(doc)
    previous = load_history(path)
    if previous and _same_trend_row(row, previous[-1]):
        return None
    with open(path, "a") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")
    return row


def load_history(path: str) -> list[dict]:
    """Read ``bench_history.jsonl`` rows, skipping malformed lines."""
    rows: list[dict] = []
    try:
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except ValueError:
                    continue
                if (
                    isinstance(row, dict)
                    and row.get("schema") == HISTORY_SCHEMA
                ):
                    rows.append(row)
    except OSError:
        return []
    return rows


def write_bench(
    path: str,
    full: bool = False,
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
    history_path: Optional[str] = DEFAULT_HISTORY_PATH,
) -> dict:
    """Run the benchmarks, write the document, append the trend row.

    ``history_path=None`` skips the append (used by ``--no-history``
    and by tests that only care about the document).
    """
    doc = run_bench(full=full, jobs=jobs, chunk=chunk)
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
    if history_path is not None:
        append_history(doc, history_path)
    return doc
