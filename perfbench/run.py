"""The simulator's end-to-end and per-layer performance benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload rx_strict --seed 42 \
        --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):
``rx_off``, ``rx_strict``, ``redis_fns`` and ``reproduce_fig2``.  Every
timed pass runs in a fresh interpreter (``perfbench/workload.py``), so
process-level caches — the aged-allocator states, the warm pool, the
code-fingerprint memo — start empty each time.

``--trace 0`` repeats passes for about ``--seconds`` seconds (at least
two) and reports the medians of the end-to-end metrics.  ``--trace 1``
runs one untraced pass and one pass under the layer tracer
(``perfbench/layertrace.py``) and reports the per-layer metrics; the
traced spans are written to ``.perfbench_work/spans-<workload>.*``.

Every pass checks its outputs: rows against the committed
``report.json`` (at the default seed, or at any seed for a workload the
seed cannot change), claim verdicts, the absence of credited
fast-forward events, and a full-precision digest of every cell that
must not differ between passes, traced or not.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from layertrace import LAYERS
from workload import DEFAULT_SEED, FLOWS, POOL_JOBS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench_work")
MIN_PASSES = 2
# Hard wall-clock budget for one invocation: passes stop being added
# once another one could overrun it.
BUDGET_S = 150.0
PASS_TIMEOUT_S = 170.0
# Operations one pass attempts: a cell each, plus each of fig2's 11
# claims and the byte-identical fig2 section check.
EXPECTED_OPS = {
    "rx_off": len(FLOWS),
    "rx_strict": len(FLOWS),
    "redis_fns": 1,
    "reproduce_fig2": 2 * len(FLOWS) + 11 + 1,
}


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: host speed context only."""
    start = time.perf_counter()
    total = 0
    for index in range(2_000_000):
        total += index * index % 7
    elapsed = time.perf_counter() - start
    if total != 3_999_997:
        raise RuntimeError("calibration loop miscomputed")
    return elapsed


def child_env(python_hash_seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # A different string-hash seed in every pass, so the cross-pass
    # digest check also catches output that depends on set or dict
    # ordering of hashed keys.
    env["PYTHONHASHSEED"] = str(python_hash_seed)
    # Cold runs only: no result cache, whatever the caller's shell says.
    env.pop("REPRO_CACHE_DIR", None)
    # Provenance stamping runs git as `repro reproduce` does; git may
    # look for a repository in the checkout but not above it.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    return env


def hash_seed(seed: int, pass_index: int) -> int:
    """The pass's ``PYTHONHASHSEED``: distinct per pass and per seed."""
    return (seed * 101 + pass_index) % 4294967296


def run_pass(workload: str, seed: int, trace: bool, timeout: float,
             pass_index: int):
    """One pass in a fresh interpreter; ``(record, error)``."""
    command = [
        sys.executable,
        os.path.join(HERE, "workload.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--root", ROOT,
        "--workdir", WORKDIR,
    ]
    if trace:
        command += ["--trace", os.path.join(WORKDIR, f"spans-{workload}")]
    # A session of its own, so a timeout also stops the pass's pool
    # workers.
    with subprocess.Popen(
        command,
        cwd=ROOT,
        env=child_env(hash_seed(seed, pass_index)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as child:
        try:
            stdout, stderr = child.communicate(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            return None, f"pass timed out after {timeout:.0f}s"
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-5:]
        return None, f"pass exited {child.returncode}: " + " | ".join(tail)
    return json.loads(lines[-1]), None


class Ledger:
    """Operation outcomes and cell digests across the passes of a run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.digests: dict = {}
        self.problems: list[str] = []

    def lost_pass(self, error: str) -> None:
        self.attempted += EXPECTED_OPS[self.workload]
        self.failed += EXPECTED_OPS[self.workload]
        self.problems.append(error)

    def add(self, record: dict) -> None:
        for cell in record["cells"]:
            self.attempted += 1
            failure = cell["failure"]
            first = self.digests.setdefault(cell["label"], cell["digest"])
            if failure is None and first != cell["digest"]:
                failure = "cell digest differs from an earlier pass"
            if failure is not None:
                self.failed += 1
                self.problems.append(f"{cell['label']}: {failure}")
        claims = record["claims"]
        if claims is not None:
            self.attempted += claims["claims"]
            self.failed += claims["failed"]
            if claims["failed"]:
                self.problems.append(f"{claims['failed']} claims failed")

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def end_to_end(records: list[dict]) -> tuple[dict, dict]:
    """Per-pass samples of each end-to-end metric, and their medians."""
    samples = {
        name: []
        for name in ("wall_s", "sim_ms_per_s", "setup_s", "cpu_s",
                     "peak_rss_mb", "paper_gap_gbps")
    }
    for record in records:
        stepping = record["wall_s"] - record["setup_s"]
        samples["wall_s"].append(record["wall_s"])
        samples["sim_ms_per_s"].append(record["sim_ns"] / 1e6 / stepping)
        samples["cpu_s"].append(record["cpu_s"])
        samples["peak_rss_mb"].append(record["peak_rss_mb"])
        gaps = record["paper_gaps"]
        samples["paper_gap_gbps"].append(sum(gaps) / len(gaps))
        if record["workload"] == "reproduce_fig2":
            samples["setup_s"].extend(record["pool_start_s"])
        else:
            samples["setup_s"].append(record["setup_s"])
    return samples, {
        name: statistics.median(values) for name, values in samples.items()
    }


def per_layer(traced: dict, plain: dict) -> dict:
    """The per-layer metrics of one traced pass (see README.md)."""
    trace = traced["trace"]
    counts = traced["counts"]
    calls = trace["probe_calls"]
    probe_s = trace["probe_s"]

    def count(*names):
        return sum(counts.get(name, 0) for name in names)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    def ns_per_call(*keys):
        return ratio(sum(probe_s[k] for k in keys),
                     sum(calls[k] for k in keys)) * 1e9

    cells = traced["cells"]
    events = sum(cell.get("events", 0) for cell in cells)
    metrics = {f"{layer}.self_s": trace["self_s"][layer] for layer in LAYERS}
    run_points_s = probe_s["parallel.run_points"]
    metrics.update({
        "iommu.translate_ns": ns_per_call("iommu.translate"),
        "iommu.iotlb_lookup_ns": ns_per_call("iommu.iotlb_lookup"),
        "iommu.ptcache_probe_ns": ns_per_call("iommu.ptcache_probe"),
        "iommu.walk_ns": ns_per_call("iommu.walk"),
        "iommu.inv_submit_ns": ns_per_call("iommu.inv_submit"),
        "iommu.translations": count("iommu.translations"),
        "iommu.iotlb_hit_ratio": ratio(count("iommu.iotlb_hits"),
                                       count("iommu.translations")),
        "iommu.walks": count("iommu.walks"),
        "iommu.ptcache_l1_misses": count("ptcache.l1.misses"),
        "iommu.ptcache_l2_misses": count("ptcache.l2.misses"),
        "iommu.ptcache_l3_misses": count("ptcache.l3.misses"),
        "iommu.invalidations": count("iommu.invalidation_requests"),
        "iova.alloc_ns": ns_per_call("iova.alloc"),
        "iova.free_ns": ns_per_call("iova.free"),
        "iova.rbtree_ops": calls["iova.rbtree_insert"]
        + calls["iova.rbtree_delete"],
        "iova.rcache_hit_ratio": ratio(
            count("iova.rcache.cache_hits"),
            count("iova.rcache.cache_hits", "iova.rcache.cache_misses"),
        ),
        "iova.allocs": count("iova.rcache.allocs"),
        "iova.frees": count("iova.rcache.frees"),
        "iova.chunks": sum(cell.get("iova_chunks", 0) for cell in cells),
        "iova.aging_s": probe_s["host.age_allocator"],
        "protection.rx_descriptors": calls["protection.make_rx_descriptor"],
        "protection.tx_maps": calls["protection.map_tx_page"],
        "protection.retire_ns": ns_per_call(
            "protection.retire_rx_descriptor"
        ),
        "host.rx_pages": count("host.rx_data_pages"),
        "host.testbed_build_s": probe_s["host.testbed_init"],
        "mem.physmem_build_s": probe_s["mem.physmem_init"],
        "sim.events": events,
        "sim.schedules": calls["sim.schedule_at"] + calls["sim.call_at"],
        "sim.ns_per_event": ratio(trace["self_s"]["sim"], events) * 1e9,
        "nic.dma_packets": count("nic.dma_packets"),
        "nic.drops": count("nic.buffer_drops", "nic.ring_drops"),
        "pcie.dmas": count("pcie.rx.dmas", "pcie.tx.dmas"),
        "pcie.busy_frac": ratio(count("pcie.rx.busy_ns"), traced["sim_ns"]),
        "net.segments_sent": count("dctcp.segments_sent"),
        "net.retransmissions": count("dctcp.retransmissions"),
        "net.switch_drops": count("switch.port.drops"),
        "apps.requests": traced["requests"],
        "obs.samples": count("obs.samples"),
        "obs.expect_s": probe_s["obs.evaluate_figure"],
        "obs.report_s": probe_s["obs.run_reproduce"]
        - probe_s["obs.collect_sections"],
        "parallel.pool_start_s": sum(traced["pool_start_s"]),
        "parallel.run_points_s": run_points_s,
        "parallel.worker_cpu_s": traced["worker_cpu_s"],
        "parallel.efficiency": ratio(traced["worker_cpu_s"],
                                     POOL_JOBS * run_points_s),
        "trace.overhead_ratio": ratio(trace["wall_s"], plain["body_s"]),
        "trace.wall_s": trace["wall_s"],
        "trace.unattributed_s": trace["unattributed_s"],
        "trace.spans": trace["spans"],
    })
    return metrics


def load_declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end and per-layer simulator benchmark."
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [
        path
        for path in ("src/repro/__init__.py", "report.json", "BENCHMARK.json")
        if not os.path.isfile(os.path.join(ROOT, path))
    ]
    if missing:
        print(
            f"perfbench: not a repro checkout (missing {', '.join(missing)})",
            file=sys.stderr,
        )
        return 2
    declared = load_declared()
    os.makedirs(WORKDIR, exist_ok=True)
    started = time.perf_counter()
    host_calib_s = calibrate()
    ledger = Ledger(args.workload)

    def remaining() -> float:
        return BUDGET_S - (time.perf_counter() - started)

    records = []
    durations = []
    while True:
        began = time.perf_counter()
        record, error = run_pass(
            args.workload, args.seed, False, PASS_TIMEOUT_S - (
                time.perf_counter() - started), len(durations)
        )
        durations.append(time.perf_counter() - began)
        if record is None:
            ledger.lost_pass(error)
            break
        ledger.add(record)
        records.append(record)
        if args.trace:
            break
        elapsed = time.perf_counter() - started
        typical = statistics.median(durations)
        if len(records) >= MIN_PASSES and elapsed + typical > args.seconds:
            break
        if typical > remaining():
            break

    metrics = {}
    lines = [
        f"workload {args.workload}  seed {args.seed}  passes {len(records)}"
        f"  host_calib_s {host_calib_s:.4f} (context only, not gated)"
    ]
    if args.trace and records:
        traced, error = run_pass(
            args.workload, args.seed, True, PASS_TIMEOUT_S - (
                time.perf_counter() - started), len(durations)
        )
        if traced is None:
            ledger.lost_pass(error)
        else:
            ledger.add(traced)
            layer = per_layer(traced, records[0])
            metrics = {
                name: {"value": layer[name], "unit": unit}
                for name, unit in declared["per_layer"].items()
            }
            self_total = sum(layer[f"{name}.self_s"] for name in LAYERS)
            lines.append(
                f"traced wall {layer['trace.wall_s']:.3f}s = layer self "
                f"{self_total:.3f}s + unattributed "
                f"{layer['trace.unattributed_s']:.3f}s; "
                f"{layer['trace.spans']} spans"
            )
            for name in LAYERS:
                share = layer[f"{name}.self_s"] / layer["trace.wall_s"]
                lines.append(
                    f"  {name:<12} self {layer[f'{name}.self_s']:9.4f} s"
                    f"  {share:6.1%}"
                )
    elif records:
        samples, medians = end_to_end(records)
        metrics = {
            name: {"value": medians[name], "unit": unit}
            for name, unit in declared["end_to_end"].items()
        }
        lines.append(f"{'metric':<16} {'unit':<9} {'median':>12} "
                     f"{'q1':>12} {'q3':>12}  n")
        for name, unit in declared["end_to_end"].items():
            q1, q3 = quartiles(samples[name])
            lines.append(
                f"{name:<16} {unit:<9} {medians[name]:12.4f} {q1:12.4f} "
                f"{q3:12.4f}  {len(samples[name])}"
            )
        aged = max(
            cell.get("aged_states_before", 0)
            for record in records
            for cell in record["cells"]
        )
        lines.append(f"aged allocator states before a cell: at most {aged}")
    lines.append(
        f"fail_ratio {ledger.fail_ratio:.4f}  "
        f"({ledger.failed} failed / {ledger.attempted} attempted)"
    )
    lines.extend(f"  problem: {problem}" for problem in ledger.problems[:20])
    correct = (
        ledger.failed == 0 and bool(records) and len(metrics) == len(
            declared["per_layer"] if args.trace else declared["end_to_end"]
        )
    )
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
