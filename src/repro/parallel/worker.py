"""Worker-process side of the parallel proof engine.

:func:`run_work_item` is the function the pool executes: it builds (or
fetches from the per-process cache) the checker described by the item's
system spec, runs the check, and ships back a
:class:`~repro.parallel.workitem.WorkOutcome` carrying the
:class:`~repro.checking.result.CheckResult`, the worker BDD manager's
stats delta, and — when the parent is tracing — the recorded span tree
as JSONL records plus the wall-clock origin needed to rebase them.

The cache is keyed by ``(spec, engine, expand_to)``: a pool worker
builds each component expansion (a one-component
:func:`~repro.systems.symbolic.composite_view`) once and reuses the
checker for every later obligation on the same system — the process-pool
analogue of the sequential engine's per-component expansion-checker
cache — until ``_CACHE_CAP`` newer ones have evicted it.  The checker's
sub-formula memo is shared only within one scheduler batch (one rule's
obligations, or one module's specs): the first item of a new batch
resets it
(:meth:`~repro.checking.symbolic.SymbolicChecker.reset`), so a pooled
check reports the work an in-process check does, not an answer from a
memo an earlier proof left behind.
"""

from __future__ import annotations

import os
import signal
import time

from repro.obs.export import to_jsonl_records
from repro.obs.progress import PROGRESS
from repro.obs.tracer import TRACER
from repro.parallel.workitem import (
    ComposeSpec,
    ExplicitSpec,
    ParallelError,
    SmvSpec,
    SnapshotSpec,
    SystemSpec,
    WorkItem,
    WorkOutcome,
)

__all__ = ["run_work_item", "build_system", "checker_for", "clear_worker_caches"]

#: The pool's shared progress queue, inherited through the pool
#: initializer (``None`` when the parent did not create one).  Events
#: put here are drained by a parent-side thread and routed by their
#: ``key`` field (:mod:`repro.parallel.pool`).
_PROGRESS_QUEUE = None

#: Env var (seconds): when set, a progress-enabled work item sleeps
#: this long after ``obligation.start`` without emitting heartbeats —
#: a deterministic way for tests and smoke runs to trip the serve
#: layer's stall watchdog.
STALL_HOOK_ENV = "REPRO_PROGRESS_TEST_STALL"

#: Per-process cache: (spec, engine, expand_to) → ``[checker, batch]``,
#: the batch being the one whose items last used the checker.
_CHECKERS: dict = {}
#: Per-process cache: (spec, engine) → built component/composite system.
_SYSTEMS: dict = {}
#: FIFO bound on each cache: a long-lived worker serving ever-new specs
#: (a server's novel checks) would otherwise keep every manager alive.
_CACHE_CAP = 16


def _cache_put(cache: dict, key, value):
    while len(cache) >= _CACHE_CAP:
        cache.pop(next(iter(cache)))
    cache[key] = value
    return value


def clear_worker_caches() -> None:
    """Drop every cached system and checker (tests / memory pressure)."""
    _CHECKERS.clear()
    _SYSTEMS.clear()


def build_system(spec: SystemSpec, engine: str):
    """Instantiate the component a spec describes (uncached)."""
    from repro.smv.compile_explicit import to_system
    from repro.smv.compile_symbolic import to_symbolic
    from repro.smv.elaborate import SmvModel
    from repro.smv.modules import flatten
    from repro.smv.parser import parse_program
    from repro.systems.compose import composite
    from repro.systems.symbolic import SymbolicSystem
    from repro.systems.system import System

    if isinstance(spec, SmvSpec):
        # component sources are single modules under any name; full
        # programs (CLI models) flatten into `main` like load_model does
        program = parse_program(spec.source)
        if len(program) == 1 and not any(
            decl.is_instance for decl in next(iter(program.values())).variables
        ):
            model = SmvModel(next(iter(program.values())))
        else:
            model = SmvModel(flatten(program))
        if engine == "explicit":
            return to_system(model, reflexive=spec.reflexive)
        return to_symbolic(model, reflexive=spec.reflexive)
    if isinstance(spec, ExplicitSpec):
        return System(
            spec.atoms,
            [(frozenset(s), frozenset(t)) for s, t in spec.edges],
            reflexive=spec.reflexive,
        )
    if isinstance(spec, SnapshotSpec):
        from repro.bdd.manager import BDD

        # node ids are stable across snapshot/restore, so the shipped
        # transition/partition ids index straight into the new manager
        bdd = BDD.from_snapshot(spec.snapshot)
        sym = SymbolicSystem(spec.atoms, bdd=bdd)
        if spec.partitions:
            sym.groups = [(frozenset(sym.atoms), list(spec.partitions))]
            sym.stutter = spec.stutter
        else:
            sym.transition = spec.transition
        if engine == "explicit":
            return sym.to_explicit()
        return sym
    if isinstance(spec, ComposeSpec):
        return composite([_cached_system(p, engine) for p in spec.parts], engine)
    raise ParallelError(f"unknown system spec {type(spec).__name__}")


def _cached_system(spec: SystemSpec, engine: str):
    key = (spec, engine)
    system = _SYSTEMS.get(key)
    if system is None:
        system = _cache_put(_SYSTEMS, key, build_system(spec, engine))
    return system


def checker_for(
    spec: SystemSpec,
    engine: str,
    expand_to: tuple[str, ...],
    batch: int | None = None,
):
    """The (cached) checker for a spec's expansion over extra atoms.

    A cached checker keeps its memo only for further items of the
    ``batch`` that last used it; otherwise (``batch`` ``None`` included)
    it is reset first.
    """
    from repro.compositional.proof import _Backend
    from repro.systems.system import System
    from repro.systems.symbolic import SymbolicSystem

    key = (spec, engine, expand_to)
    entry = _CHECKERS.get(key)
    if entry is not None:
        checker, last_batch = entry
        if batch is None or last_batch != batch:
            checker.reset()
            entry[1] = batch
        return checker, True
    system = _cached_system(spec, engine)
    backend = _Backend(engine)  # type: ignore[arg-type]
    if expand_to:
        atoms = (
            frozenset(system.atoms)
            if isinstance(system, SymbolicSystem)
            else system.sigma
        )
        checker = backend.expansion_checker(system, atoms | set(expand_to))
    else:
        checker = backend.component_checker(system)
    assert isinstance(system, (System, SymbolicSystem))
    _cache_put(_CHECKERS, key, [checker, batch])
    return checker, False


def _progress_sink(event: dict) -> None:
    """Ship one event to the parent; progress is lossy, never blocking."""
    queue_ = _PROGRESS_QUEUE
    if queue_ is None:
        return
    try:
        queue_.put_nowait(event)
    except Exception:
        pass  # full queue / torn-down parent: drop the heartbeat


def run_work_item(item: WorkItem, batch: int | None = None) -> WorkOutcome:
    """Execute one work item in this process; never raises on a failed
    check — the verdict travels back inside the :class:`CheckResult`.

    ``batch`` identifies the scheduler batch the item belongs to (see
    :func:`checker_for`); ``None`` treats the item as a batch of its own.
    """
    record = item.record_spans
    if record:
        TRACER.reset()
        TRACER.enabled = True
    else:
        TRACER.enabled = False
    progress = bool(item.progress_key) and _PROGRESS_QUEUE is not None
    if progress:
        fields = dict(
            key=item.progress_key,
            obligation=item.progress_obligation or item.label,
            pid=os.getpid(),
        )
        if item.trace_id:
            fields["trace_id"] = item.trace_id
        PROGRESS.activate(
            _progress_sink, interval=item.progress_interval, **fields
        )
        PROGRESS.emit("obligation.start", engine=item.engine)
        stall = os.environ.get(STALL_HOOK_ENV)
        if stall:
            # heartbeat-free sleep: the watchdog must flag this item
            time.sleep(float(stall))
    try:
        root_attrs = dict(
            label=item.label, engine=item.engine, formula=str(item.formula)
        )
        if item.trace_id:
            root_attrs["trace_id"] = item.trace_id
        with TRACER.span("worker.item", category="parallel", **root_attrs) as span:
            checker, cached = checker_for(
                item.system, item.engine, item.expand_to, batch
            )
            compile_seconds = span.elapsed()
            bdd_before = (
                checker.bdd.stats.snapshot()
                if hasattr(checker, "bdd")
                else None
            )
            result = checker.holds(item.formula, item.restriction)
        # the checker took this from its own check span
        check_seconds = result.stats.user_time
        bdd = None
        if bdd_before is not None:
            delta = checker.bdd.stats.delta(bdd_before)
            bdd = {
                "mk_calls": delta.mk_calls,
                "peak_unique_nodes": delta.peak_unique_nodes,
                "ops": {
                    name: counter.as_dict()
                    for name, counter in delta.ops.items()
                    if counter.lookups or counter.inserts
                },
            }
        spans: list[dict] = []
        wall_origin = 0.0
        if record:
            spans = to_jsonl_records(TRACER)
            if item.trace_id:
                # every worker span shares the request's trace identity,
                # not just the roots — a grafted fragment filtered by
                # trace_id must keep its interior
                for span_record in spans:
                    span_record.setdefault("attrs", {})[
                        "trace_id"
                    ] = item.trace_id
            wall_origin = TRACER.epoch_wall + (
                TRACER.start_time - TRACER.epoch_perf
            )
        if progress:
            PROGRESS.emit(
                "obligation.finish",
                holds=bool(result.holds),
                cached=cached,
                seconds=round(check_seconds, 6),
            )
        return WorkOutcome(
            result=result,
            label=item.label,
            pid=os.getpid(),
            cached=cached,
            compile_seconds=compile_seconds,
            check_seconds=check_seconds,
            bdd=bdd,
            spans=spans,
            wall_origin=wall_origin,
            fingerprint=item.fingerprint,
        )
    finally:
        TRACER.enabled = False
        PROGRESS.deactivate()


def _init_worker(progress_queue=None) -> None:
    """Pool initializer: start from a quiet tracer in every worker.

    ``fork`` copies the parent's signal table, and the serve process
    installs a SIGTERM handler that drains its job queue — a worker
    running that handler survives ``pool.terminate()`` and hangs the
    join.  Workers must die on SIGTERM, so restore the default action.

    ``progress_queue`` is the pool's shared multiprocessing queue for
    live progress events; queues cannot ride on ``apply_async``
    arguments, so the initializer is the sanctioned inheritance path.
    """
    global _PROGRESS_QUEUE
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _PROGRESS_QUEUE = progress_queue
    TRACER.enabled = False
    TRACER.reset()
    PROGRESS.deactivate()
