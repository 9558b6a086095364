"""The warm process pool: run sweep points in parallel, assemble serially.

Execution model:

* The parent builds the full :class:`~repro.parallel.spec.PointSpec`
  list (including any per-point payloads such as fault plans), so every
  input is fixed before any process runs — scheduling order cannot leak
  into results.
* Points are dispatched to the pool in **chunks** (``chunk`` on the CLI;
  auto-sized to two chunks per worker by default), not one submit per
  point: per-point dispatch made ``--jobs 2`` sweeps *slower* than
  serial (the committed BENCH_sim.json regression this fixes) because
  every point paid a round of future bookkeeping and payload pickling.
  A chunk task runs its points exactly like a serial sweep runs them:
  reset the inherited global hooks, open one fresh registry when the
  parent is observing, ``begin_phase`` per point, run the registered
  point runner, and return ``(values, phase_payloads, error)``.
* The pool itself is **persistent and warm**: one forked
  ``ProcessPoolExecutor`` per CLI invocation (created on first parallel
  sweep, reused by every later one), with an initializer that pre-imports
  the runner registry and clears the inherited hooks.  Forking *after*
  the parent has run serial work means workers inherit every
  process-level cache the parent has paid for (imports, specialized
  bytecode) via copy-on-write — which is how a warm pool beats a
  serial sweep even on a single usable CPU.  The pool is re-forked
  only if a later sweep needs more workers or the runner registry
  changed (tests register scratch runners; forked workers must see
  them).
* The parent consumes chunk futures **in spec order** — not completion
  order — adopting worker phases into its registry as it goes, so the
  phase list, indices and ``#N`` scope names are identical to a serial
  sweep's.

Serial fallbacks (silent, by design — ``--jobs`` is best-effort):
a single point, an installed tracer (spans cannot be merged across
processes), a global invariant monitor or fault runtime (both are
process-local state the sweep's caller expects to interrogate
afterwards).  Fault *rows* still parallelize: their monitors and plans
live inside the point runner.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Optional, Sequence

from ..cache.hooks import current_result_cache
from ..faults.hooks import current_faults, set_faults
from ..obs.hooks import current_registry, observed, set_registry
from ..obs.registry import MetricsRegistry
from ..verify.hooks import current_monitor, set_monitor
from ..verify.violation import InvariantViolation
from .spec import PointSpec, RemotePointError, remote_error_payload

if TYPE_CHECKING:  # imported lazily at runtime (circular with experiments)
    from ..experiments.settings import RunScale

__all__ = [
    "run_points",
    "RemotePointError",
    "shutdown_pool",
    "warm_pool",
    "pool_forks",
]


def _runner_for(key: str):
    # Imported lazily: repro.experiments imports this package for its
    # sweep executors, so a module-level import would be circular.
    from ..experiments.points import POINT_RUNNERS

    try:
        return POINT_RUNNERS[key]
    except KeyError:
        raise KeyError(
            f"unknown point runner {key!r}; "
            f"registered: {sorted(POINT_RUNNERS)}"
        ) from None


def _run_serial(specs: Sequence[PointSpec], scale: RunScale) -> list:
    """Today's behavior, exactly: label the phase, run the point."""
    registry = current_registry()
    values = []
    for spec in specs:
        if registry is not None:
            registry.begin_phase(spec.label)
        values.append(_runner_for(spec.runner)(spec, scale))
    return values


def _usable_cpus() -> int:
    """CPUs this process may actually run on (cpuset-aware)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# The persistent warm pool (one per CLI invocation)
# ---------------------------------------------------------------------------
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0
_POOL_TOKEN: tuple = ()
_POOL_FORKS = 0


def _warm_worker() -> None:
    """Worker initializer: pre-import the runners, drop inherited hooks.

    Runs once per forked worker.  The import is effectively free (the
    parent already imported everything; fork shares the pages) but
    guarantees a worker spawned by a spawn-method interpreter would
    still find the registry.  Hooks are cleared at birth so no chunk
    ever sees the parent's registry/monitor/fault runtime.
    """
    from ..experiments import points  # noqa: F401  (registry side effect)

    set_registry(None)
    set_monitor(None)
    set_faults(None)


def _runners_token() -> tuple:
    from ..experiments.points import POINT_RUNNERS

    return tuple(sorted(POINT_RUNNERS))


def _ensure_pool(workers: int) -> ProcessPoolExecutor:
    """The shared pool, (re)forked only when it cannot serve this sweep.

    A forked worker snapshots the parent at fork time, so the pool must
    be rebuilt when the runner registry has changed since (scratch
    runners registered by tests would otherwise be unknown in the
    workers).  Needing *fewer* workers than the pool has is fine —
    excess workers idle.
    """
    global _POOL, _POOL_WORKERS, _POOL_TOKEN, _POOL_FORKS
    token = _runners_token()
    if _POOL is not None and (
        _POOL_WORKERS < workers or _POOL_TOKEN != token
    ):
        shutdown_pool()
    if _POOL is None:
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        _POOL = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_warm_worker,
        )
        _POOL_WORKERS = workers
        _POOL_TOKEN = token
        _POOL_FORKS += 1
    return _POOL


def shutdown_pool() -> None:
    """Tear down the shared pool (end of CLI invocation / tests)."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown(wait=True)
        _POOL = None


def warm_pool(jobs: Optional[int]) -> None:
    """Pre-fork the pool for ``jobs`` before any sweep is timed.

    Benchmarks call this so pool startup — a per-invocation cost, paid
    once — is not billed to whichever sweep happens to run first.
    """
    if jobs is not None and jobs > 1:
        _ensure_pool(max(1, min(jobs, _usable_cpus())))


def pool_forks() -> int:
    """How many times a pool has been forked in this process.

    Regression guard: back-to-back sweeps in one CLI invocation must
    reuse one pool, not pay fork + warmup per sweep call.
    """
    return _POOL_FORKS


# ---------------------------------------------------------------------------
# Worker-side chunk execution
# ---------------------------------------------------------------------------
def _execute_chunk(
    specs: Sequence[PointSpec],
    scale: RunScale,
    collect: bool,
    sample_interval_ns: Optional[float],
    max_samples: int,
) -> tuple:
    """One worker task; returns ``(values, phase_payloads, error)``.

    Runs its points exactly like a serial sweep: one registry for the
    whole chunk, ``begin_phase`` per point.  On an invariant violation
    the chunk stops at the offending point and ships the values and
    phases of the points it completed plus the error payload, so the
    parent can adopt the completed phases before re-raising — the same
    state a serial sweep leaves behind.

    Module-level so it pickles under any multiprocessing start method.
    """
    # A forked worker inherits whatever hooks the parent had at fork
    # time; clear them so every chunk sees exactly the environment a
    # serial point would (its own registry below, no monitor, no fault
    # runtime).  Redundant with the pool initializer, kept for workers
    # forked before a hook was installed.
    set_registry(None)
    set_monitor(None)
    set_faults(None)
    registry: Optional[MetricsRegistry] = None
    if collect:
        registry = MetricsRegistry(
            sample_interval_ns=sample_interval_ns,
            max_samples_per_phase=max_samples,
        )
    values: list = []
    error = None
    for spec in specs:
        if registry is not None:
            registry.begin_phase(spec.label)
        try:
            if registry is not None:
                with observed(registry):
                    value = _runner_for(spec.runner)(spec, scale)
            else:
                value = _runner_for(spec.runner)(spec, scale)
        except InvariantViolation as violation:
            error = remote_error_payload(spec.label, violation)
            break
        values.append(value)
    payloads: list = []
    if registry is not None:
        # Only the phases of *completed* points travel back; a phase
        # opened by the point that tripped the violation does not.
        payloads = registry.report()["phases"][: len(values)]
    return (values, payloads, error)


def _chunked(
    specs: Sequence[PointSpec], size: int
) -> list[Sequence[PointSpec]]:
    return [specs[index:index + size] for index in range(0, len(specs), size)]


# ---------------------------------------------------------------------------
# Content-addressed result cache (repro.cache) integration
# ---------------------------------------------------------------------------
def _cache_bypassed(specs: Sequence[PointSpec], registry) -> bool:
    """Sweeps the cache must not intercept.

    Payload-carrying cells (fault plans, chaos schedules) are runs whose
    *side observations* matter; a tracer's spans cannot be replayed from
    a store; a global monitor or fault runtime means the caller will
    interrogate process state the cached value does not carry.
    """
    if any(spec.payload is not None for spec in specs):
        return True
    if registry is not None and registry.tracer is not None:
        return True
    return current_monitor() is not None or current_faults() is not None


def _run_cold_serial(
    specs: Sequence[PointSpec],
    scale: RunScale,
    collect: bool,
    interval: Optional[float],
    max_samples: int,
) -> tuple:
    """Run cold cells inline, each under its own capture registry.

    Mirrors :func:`_execute_chunk`'s observable behavior (the recorded
    phase payloads are what the parent adopts and the store keeps) but
    runs in the parent process, restoring the ambient hooks afterwards.
    Returns the same ``(values_with_payloads, error)`` shape the pool
    path produces.
    """
    outputs: list = []
    for spec in specs:
        capture: Optional[MetricsRegistry] = None
        try:
            if collect:
                capture = MetricsRegistry(
                    sample_interval_ns=interval,
                    max_samples_per_phase=max_samples,
                )
                capture.begin_phase(spec.label)
                with observed(capture):
                    value = _runner_for(spec.runner)(spec, scale)
                payload = capture.report()["phases"][0]
            else:
                value = _runner_for(spec.runner)(spec, scale)
                payload = None
        except InvariantViolation as violation:
            return (outputs, remote_error_payload(spec.label, violation))
        outputs.append((value, payload))
    return (outputs, None)


def _run_cold_pooled(
    specs: Sequence[PointSpec],
    scale: RunScale,
    collect: bool,
    interval: Optional[float],
    max_samples: int,
    jobs: int,
    chunk: Optional[int],
) -> tuple:
    """Fan cold cells across the warm pool; spec-order outputs."""
    workers = max(1, min(jobs, _usable_cpus()))
    chunk_size = chunk if chunk is not None else max(
        1, -(-len(specs) // (2 * workers))
    )
    pool = _ensure_pool(workers)
    futures = [
        pool.submit(
            _execute_chunk, chunk_specs, scale, collect, interval, max_samples
        )
        for chunk_specs in _chunked(list(specs), chunk_size)
    ]
    outputs: list = []
    for future in futures:
        values, payloads, error = future.result()
        if collect:
            outputs.extend(zip(values, payloads))
        else:
            outputs.extend((value, None) for value in values)
        if error is not None:
            return (outputs, error)
    return (outputs, None)


def _stored_payload(payload: Optional[dict]) -> Optional[dict]:
    """Normalize a phase payload for the store (position-independent).

    The recorded index is chunk-relative and reassigned on adoption;
    zeroing it makes the stored entry identical whichever executor
    produced it.
    """
    if payload is None:
        return None
    normalized = dict(payload)
    normalized["index"] = 0
    return normalized


def _run_points_cached(
    cache,
    specs: Sequence[PointSpec],
    scale: RunScale,
    *,
    registry: Optional[MetricsRegistry],
    jobs: int,
    chunk: Optional[int],
) -> list:
    """The cache-aware executor: warm cells never reach the pool.

    Every cell's key is computed up front; hits are served straight
    from the store and only the misses are executed (serially or
    through the pool, matching the caller's ``jobs``).  Results and
    recorded metric phases are then merged *in spec order* — warm
    phases adopted from the store, cold phases adopted from the
    executor and written back — so the parent registry's phase list is
    identical to an uncached run's and a fully warm sweep re-creates
    the exact report bytes of a cold one.
    """
    collect = registry is not None
    interval = registry.sample_interval_ns if collect else None
    max_samples = registry.max_samples_per_phase if collect else 0
    keys = [
        cache.key_for(
            spec,
            scale,
            collect=collect,
            sample_interval_ns=interval,
            max_samples=max_samples,
        )
        for spec in specs
    ]
    loaded: dict[int, tuple] = {}
    for index, key in enumerate(keys):
        entry = cache.load(key)
        if entry is not None:
            loaded[index] = entry
    cold = [index for index in range(len(specs)) if index not in loaded]
    cold_outputs: list = []
    error = None
    if cold:
        cold_specs = [specs[index] for index in cold]
        if min(jobs, len(cold_specs)) <= 1:
            cold_outputs, error = _run_cold_serial(
                cold_specs, scale, collect, interval, max_samples
            )
        else:
            cold_outputs, error = _run_cold_pooled(
                cold_specs, scale, collect, interval, max_samples,
                jobs, chunk,
            )
    values: list = []
    completed = dict(zip(cold, cold_outputs))
    for index, spec in enumerate(specs):
        if index in loaded:
            value, payload = loaded[index]
        elif index in completed:
            value, payload = completed[index]
            cache.store(
                keys[index], value, _stored_payload(payload), spec=spec
            )
        else:
            # The executor stopped at a violating cold cell; phases of
            # everything before it are already adopted, like a serial
            # run that died mid-sweep.
            raise RemotePointError(*error)
        if collect and payload is not None:
            registry.adopt_phase(payload)
        values.append(value)
    if error is not None:
        raise RemotePointError(*error)
    return values


def run_points(
    specs: Sequence[PointSpec],
    scale: RunScale,
    *,
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
) -> list:
    """Run every spec and return their values in spec order.

    ``jobs`` of ``None``, 0 or 1 runs serially (the default path);
    higher values fan the points across the shared warm pool, capped at
    the process's usable CPU count (oversubscribing a cpuset-limited
    container buys nothing but scheduler thrash).  ``chunk`` sets how
    many consecutive points ride in one worker task; ``None`` auto-sizes
    to two chunks per worker (ceiling division, at least 1) — per-chunk
    dispatch cost (payload pickling both ways) is high enough that on
    small sweeps finer chunking measurably loses to serial, which is
    the regression this pool exists to fix.  Results — values,
    metric phases, labels — are identical for every jobs/chunk
    combination; see the module docstring for the conditions that
    silently fall back to serial.

    Raises :class:`RemotePointError` if a worker's point tripped an
    invariant violation; any other worker exception propagates as-is.
    """
    specs = list(specs)
    if jobs is not None and jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if chunk is not None and chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    requested = min(jobs or 1, len(specs))
    registry = current_registry()
    cache = current_result_cache()
    if cache is not None and not _cache_bypassed(specs, registry):
        return _run_points_cached(
            cache, specs, scale,
            registry=registry, jobs=requested, chunk=chunk,
        )
    serial = (
        requested <= 1
        or (registry is not None and registry.tracer is not None)
        or current_monitor() is not None
        or current_faults() is not None
    )
    if serial:
        return _run_serial(specs, scale)

    workers = max(1, min(requested, _usable_cpus()))
    chunk_size = chunk if chunk is not None else max(
        1, -(-len(specs) // (2 * workers))
    )
    collect = registry is not None
    interval = registry.sample_interval_ns if collect else None
    max_samples = registry.max_samples_per_phase if collect else 0
    values: list = []
    pool = _ensure_pool(workers)
    chunks = _chunked(specs, chunk_size)
    futures = [
        pool.submit(
            _execute_chunk, chunk_specs, scale, collect, interval, max_samples
        )
        for chunk_specs in chunks
    ]
    # Spec order, not completion order: phase adoption must mirror the
    # serial phase sequence exactly.
    for future in futures:
        chunk_values, payloads, error = future.result()
        if collect:
            for payload in payloads:
                registry.adopt_phase(payload)
        if error is not None:
            raise RemotePointError(*error)
        values.extend(chunk_values)
    return values
