"""One timed pass of one benchmark workload, in a fresh interpreter.

Usage (from the repository root; ``perfbench/run.py`` drives this)::

    PYTHONPATH=src python3 perfbench/workload.py --workload rx_strict \
        --seed 42 --root . --workdir .perfbench_work [--trace PREFIX]

Runs the workload body through the entry points ``repro reproduce``
uses — ``repro.apps.run_iperf``/``run_redis`` under an installed
``MetricsRegistry`` for the serial workloads, and a cold
``run_reproduce(["fig2"], jobs=2, cache=None)`` for ``reproduce_fig2``
— and prints one JSON line: wall, set-up, CPU and memory figures,
per-cell output digests and reference checks, and the model's counters.
With ``--trace`` the body runs under :class:`layertrace.LayerTracer`
and the line also carries per-layer self times and entry-point counts.

Imports are excluded from every timing.  Nothing under ``src/`` is
modified: the pass observes the program by wrapping
``Testbed.__init__`` in the serial workloads (to time and capture each
testbed), ``run_points`` in ``reproduce_fig2``'s parent process (to
digest the full-precision points) and ``evaluate_figure`` (to read the
figure's metric phases), and it turns
any call of the engine's analytic fast-forward into an error, so only
stepped events are ever counted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time

FLOWS = (5, 10, 20, 40)
REDIS_VALUE_BYTES = 8192
# HostConfig.aging_seed's default: the committed report.json rows were
# produced with it, so reference checks apply at this seed.
DEFAULT_SEED = 42
WORKLOADS = ("rx_off", "rx_strict", "redis_fns", "reproduce_fig2")
# Workloads whose simulated work no --seed can change: rx_off has no
# IOVA allocator to age, and reproduce_fig2's point runners ignore
# PointSpec.seed.  Their reference checks apply at every seed.
SEED_INVARIANT = ("rx_off", "reproduce_fig2")
POOL_JOBS = 2
POOL_STARTS = 9  # pool starts per untraced reproduce_fig2 pass


def cpu_seconds() -> float:
    """User+sys CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def children_cpu_seconds() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def summed_counters(metrics: dict) -> dict:
    """Every phase's final counters, summed by instance-free name.

    ``switch.port#2.drops`` counts as ``switch.port.drops`` and
    ``dctcp.flow7.segments_sent`` as ``dctcp.segments_sent``.
    """
    totals: dict = {}
    for phase in metrics.get("phases", []):
        for name, value in (phase.get("final") or {}).items():
            if not isinstance(value, (int, float)):
                continue
            parts = [part.split("#", 1)[0] for part in name.split(".")]
            if parts[0] == "dctcp":
                parts = [parts[0], parts[-1]]
            key = ".".join(parts)
            totals[key] = totals.get(key, 0) + value
    totals["obs.samples"] = sum(
        len((phase.get("samples") or {}).get("t_ns") or [])
        for phase in metrics.get("phases", [])
    )
    return totals


class Probe:
    """What the pass observes of the program from outside it."""

    def __init__(self) -> None:
        self.testbeds: list = []
        self.build_s: list[float] = []
        self.metrics: list[dict] = []
        self.points: list = []

    def install(self, pooled: bool) -> None:
        """Wrap the program's entry points for one pass.

        A serial pass wraps ``Testbed.__init__`` to time and capture each
        testbed.  A pooled pass leaves it alone, since forked workers
        would inherit the wrapper and keep every testbed they build;
        instead it captures the points ``run_points`` returns in this
        process.
        """
        from repro.experiments import figures
        from repro.host import testbed as testbed_module
        from repro.obs.expect import reproduce as reproduce_module
        from repro.sim import engine

        if pooled:
            original_run_points = figures.run_points

            def capturing_run_points(specs, *args, **kwargs):
                points = original_run_points(specs, *args, **kwargs)
                self.points.extend(points)
                return points

            figures.run_points = capturing_run_points
        else:
            testbed_class = testbed_module.Testbed
            original_init = testbed_class.__init__

            def timed_init(testbed, *args, **kwargs):
                start = time.perf_counter()
                original_init(testbed, *args, **kwargs)
                self.build_s.append(time.perf_counter() - start)
                self.testbeds.append(testbed)

            testbed_class.__init__ = timed_init

        if hasattr(engine.Simulator, "fast_forward_to"):

            def no_credited_events(sim, *args, **kwargs):
                raise RuntimeError(
                    "the benchmark counts stepped events only; "
                    "Simulator.fast_forward_to was called"
                )

            engine.Simulator.fast_forward_to = no_credited_events

        original_evaluate = reproduce_module.evaluate_figure

        def capturing_evaluate(*args, **kwargs):
            self.metrics.append(kwargs.get("metrics") or {})
            return original_evaluate(*args, **kwargs)

        reproduce_module.evaluate_figure = capturing_evaluate

    def take_testbed(self):
        """The testbed the last cell built (dropped from the probe)."""
        return self.testbeds.pop() if self.testbeds else None


def aged_states() -> int:
    """Process-level aged-allocator states present right now."""
    from repro.host import server

    return len(getattr(server, "_AGED_ALLOCATOR_STATES", {}))


def fig12_row(result) -> list:
    """The Fig 12 table row of one Redis result, as the figure builds it.

    ``fig12_ablation`` formats its rows inline, so it is called with
    ``run_points`` standing in to return the already measured result.
    """
    from repro.experiments import figures

    original = figures.run_points
    figures.run_points = lambda specs, *args, **kwargs: [result]
    try:
        table = figures.fig12_ablation(
            modes=("fns",), value_bytes=REDIS_VALUE_BYTES
        )
    finally:
        figures.run_points = original
    return table.rows[0]


def committed_report(root: str) -> dict:
    with open(os.path.join(root, "report.json")) as handle:
        return json.load(handle)


def committed_figure(root: str, key: str) -> dict:
    for figure in committed_report(root)["figures"]:
        if figure["figure"] == key:
            return figure
    raise KeyError(f"report.json has no {key} section")


def paper_point(figure: str, mode: str, x) -> float | None:
    from repro.obs.expectations import reference_curves

    for point_x, value in reference_curves(figure).get("gbps", {}).get(
        mode, []
    ):
        if point_x == x:
            return value
    return None


def cell_record(label: str, result, row, reference, testbed, aged) -> dict:
    """Digest, reference check and engine counters of one cell."""
    record = {
        "label": label,
        "digest": digest(repr(result)),
        "row": row,
        "aged_states_before": aged,
        "events": 0,
        "fast_forwarded_events": 0,
        "sim_ns": 0.0,
        "failure": None,
    }
    if testbed is not None:
        sim = testbed.sim
        record["events"] = sim.executed_events
        record["fast_forwarded_events"] = getattr(
            sim, "fast_forwarded_events", 0
        )
        record["sim_ns"] = sim.now
        chunks = getattr(getattr(testbed.host.driver, "chunks", None),
                         "chunks_allocated", 0)
        record["iova_chunks"] = chunks
    if record["fast_forwarded_events"]:
        record["failure"] = "credited (fast-forwarded) events"
    elif testbed is None:
        record["failure"] = "no testbed was built"
    elif reference is not None and row != reference:
        record["failure"] = f"row {row} != committed {reference}"
    return record


# ----------------------------------------------------------------------
# Workload bodies
# ----------------------------------------------------------------------
def run_rx(mode: str, seed: int, root: str, probe: Probe) -> dict:
    from repro.apps import run_iperf
    from repro.experiments.figures import _iperf_row
    from repro.experiments.settings import QUICK
    from repro.obs.hooks import observed
    from repro.obs.registry import MetricsRegistry

    check = seed == DEFAULT_SEED or f"rx_{mode}" in SEED_INVARIANT
    references = {}
    if check:
        for row in committed_figure(root, "fig2")["rows"]:
            references[(row[0], row[1])] = row
    registry = MetricsRegistry()
    cells = []
    gaps = []
    with observed(registry):
        for flows in FLOWS:
            label = f"Fig 2 {mode} flows={flows}"
            registry.begin_phase(label)
            aged = aged_states()
            result = run_iperf(
                mode,
                flows=flows,
                warmup_ns=QUICK.warmup_ns,
                measure_ns=QUICK.measure_ns,
                aging_seed=seed,
            )
            testbed = probe.take_testbed()
            row = _iperf_row(mode, flows, result)
            cells.append(
                cell_record(
                    label, result, row,
                    references.get((mode, flows)) if check else None,
                    testbed, aged,
                )
            )
            del testbed
            paper = paper_point("fig2", mode, flows)
            if paper is not None:
                gaps.append(abs(result.rx_goodput_gbps - paper))
    return {
        "cells": cells,
        "claims": None,
        "paper_gaps": gaps,
        "metrics": registry.report(),
        "requests": 0,
    }


def run_redis_cell(seed: int, root: str, probe: Probe) -> dict:
    from repro.apps import run_redis
    from repro.experiments.settings import QUICK
    from repro.obs.hooks import observed
    from repro.obs.registry import MetricsRegistry

    reference = None
    if seed == DEFAULT_SEED:
        for row in committed_figure(root, "fig12")["rows"]:
            if row[0] == "fns":
                reference = row
    registry = MetricsRegistry()
    label = "Fig 12 fns"
    registry.begin_phase(label)
    aged = aged_states()
    with observed(registry):
        result = run_redis(
            "fns",
            REDIS_VALUE_BYTES,
            warmup_ns=QUICK.warmup_ns,
            measure_ns=QUICK.measure_ns,
            aging_seed=seed,
        )
    testbed = probe.take_testbed()
    row = fig12_row(result)
    cell = cell_record(label, result, row, reference, testbed, aged)
    paper = paper_point("fig12", "fns", REDIS_VALUE_BYTES)
    return {
        "cells": [cell],
        "claims": None,
        "paper_gaps": (
            [] if paper is None else [abs(result.goodput_gbps - paper)]
        ),
        "metrics": registry.report(),
        "requests": round(
            result.requests_per_second * QUICK.measure_ns / 1e9
        ),
    }


def start_pool() -> float:
    """Fork the warm pool and wait until every worker has answered."""
    from repro.parallel import pool

    start = time.perf_counter()
    pool.warm_pool(POOL_JOBS)
    executor = getattr(pool, "_POOL", None)
    if executor is not None:
        futures = [executor.submit(os.getpid) for _ in range(POOL_JOBS)]
        for future in futures:
            future.result()
    return time.perf_counter() - start


def run_fig2(root: str, workdir: str, probe: Probe) -> dict:
    """A cold ``run_reproduce`` of fig2 on the already started pool."""
    from repro.experiments.settings import QUICK
    from repro.obs.expect.reproduce import run_reproduce
    from repro.parallel.pool import shutdown_pool

    committed = committed_figure(root, "fig2")
    seed = committed_report(root)["provenance"]["seed"]
    reports = tempfile.mkdtemp(prefix="reproduce-", dir=workdir)
    try:
        status = run_reproduce(
            ["fig2"],
            scale=QUICK,
            seed=seed,
            jobs=POOL_JOBS,
            cache=None,
            report_path=os.path.join(reports, "REPORT.md"),
            json_path=os.path.join(reports, "report.json"),
            echo=lambda line: None,
        )
        with open(os.path.join(reports, "report.json")) as handle:
            report = json.load(handle)
    finally:
        shutdown_pool()
        shutil.rmtree(reports, ignore_errors=True)
    section = report["figures"][0]
    summary = report["summary"]
    cells = []
    gaps = []
    committed_rows = committed["rows"]
    # Each row's cell digest is taken over the full-precision point that
    # run_points returned to this process, not over the rounded row.
    points = probe.points
    for index, row in enumerate(section["rows"]):
        reference = (
            committed_rows[index] if index < len(committed_rows) else None
        )
        failure = None
        if row != reference:
            failure = f"row {row} != committed {reference}"
        elif len(points) != len(section["rows"]):
            failure = f"run_points returned {len(points)} points"
        cells.append(
            {
                "label": f"Fig 2 {row[0]} flows={row[1]}",
                "digest": digest(repr(points[index]))
                if index < len(points) else None,
                "row": row,
                "failure": failure,
            }
        )
        paper = paper_point("fig2", row[0], row[1])
        if paper is not None:
            gaps.append(abs(row[2] - paper))
    text = json.dumps(section, sort_keys=True)
    section_ok = text == json.dumps(committed, sort_keys=True)
    cells.append(
        {
            "label": "fig2 section",
            "digest": digest(text),
            "row": None,
            "failure": None
            if section_ok and status == 0 and len(cells) == len(committed_rows)
            else "fig2 section differs from the committed report.json",
        }
    )
    return {
        "cells": cells,
        "claims": {
            "claims": summary["claims"],
            "passed": summary["passed"],
            "failed": summary["claims"] - summary["passed"],
        },
        "paper_gaps": gaps,
        "metrics": probe.metrics[-1] if probe.metrics else {},
        "requests": 0,
    }


def run_pass(args) -> dict:
    """Run the workload once; returns the pass record."""
    probe = Probe()
    probe.install(pooled=args.workload == "reproduce_fig2")
    from repro.experiments.settings import QUICK

    pool_start_s: list[float] = []
    if args.workload == "reproduce_fig2" and not args.trace:
        # Set-up repeats: all but the last pool start are discarded
        # pools, started and stopped before the CPU baseline is read.
        from repro.parallel.pool import shutdown_pool

        for _ in range(POOL_STARTS - 1):
            pool_start_s.append(start_pool())
            shutdown_pool()

    def body():
        if args.workload == "rx_off":
            return run_rx("off", args.seed, args.root, probe)
        if args.workload == "rx_strict":
            return run_rx("strict", args.seed, args.root, probe)
        if args.workload == "redis_fns":
            return run_redis_cell(args.seed, args.root, probe)
        return run_fig2(args.root, args.workdir, probe)

    tracer = None
    cpu_before = cpu_seconds()
    children_before = children_cpu_seconds()
    start = time.perf_counter()
    if args.workload == "reproduce_fig2":
        # Started before the tracer is installed: a worker forked under
        # the profile hook would inherit it.
        pool_start_s.append(start_pool())
    body_start = time.perf_counter()
    if args.trace:
        from layertrace import LayerTracer

        tracer = LayerTracer()
        outcome = tracer.run(body)
    else:
        outcome = body()
    end = time.perf_counter()
    cpu_s = cpu_seconds() - cpu_before
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "wall_s": end - start,
        "body_s": end - body_start,
        "cpu_s": cpu_s,
        "worker_cpu_s": children_cpu_seconds() - children_before,
        "peak_rss_mb": peak_rss_mb(),
        "testbed_build_s": probe.build_s,
        "pool_start_s": pool_start_s,
        "requests": outcome["requests"],
        "cells": outcome["cells"],
        "claims": outcome["claims"],
        "paper_gaps": outcome["paper_gaps"],
        "counts": summed_counters(outcome["metrics"]),
    }
    if args.workload == "reproduce_fig2":
        record["setup_s"] = pool_start_s[-1]
        # Cells run in the workers; each steps the full QUICK window.
        record["sim_ns"] = (QUICK.warmup_ns + QUICK.measure_ns) * (
            len(outcome["cells"]) - 1
        )
    else:
        record["setup_s"] = sum(probe.build_s)
        record["sim_ns"] = sum(cell["sim_ns"] for cell in outcome["cells"])
    if tracer is not None:
        tracer.write(args.trace)
        record["trace"] = {
            "wall_s": tracer.wall_s,
            "self_s": tracer.layer_self_s(),
            "unattributed_s": tracer.unattributed_s,
            "spans": tracer.span_count,
            "probe_calls": tracer.probe_calls,
            "probe_s": tracer.probe_s,
        }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", default=None, metavar="PREFIX")
    args = parser.parse_args(argv)
    record = run_pass(args)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
