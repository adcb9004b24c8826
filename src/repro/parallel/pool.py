"""The process-pool obligation scheduler.

An :class:`ObligationScheduler` owns a pool of worker processes and runs
batches of :class:`~repro.parallel.workitem.WorkItem` through them.  The
paper's whole payoff is that compositional proofs decompose into
obligations checked on *individual components* — those obligations are
mutually independent, so the scheduler fans them out across real cores
while preserving the sequential engine's observable behavior:

* **deterministic order** — results come back in submission order no
  matter which worker finished first, so proof certificates, error
  messages and reports are byte-identical to a sequential run;
* **merged statistics** — every outcome's :class:`CheckStats` and BDD
  delta is folded into the scheduler's
  :class:`~repro.obs.metrics.MetricsRegistry`, so worker counters sum to
  the sequential baseline;
* **stitched traces** — when the parent tracer is recording, workers
  record their own span trees and the scheduler grafts them (pid-tagged,
  clock-rebased) under the parent's current span via
  :func:`repro.obs.merge.graft_records`.

Workers are long-lived and cache compiled checkers per system spec, so
the pool amortizes SMV compilation and BDD construction across every
obligation, proof, and repeated request it serves — use
:func:`shared_scheduler` to share one pool per worker count across the
whole process (workers are daemonic; they die with the parent).
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import queue as queue_module
import threading
import time
from collections.abc import Callable, Iterable, Sequence

from repro.obs.merge import graft_records
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import TRACER
from repro.parallel.workitem import ParallelError, WorkItem, WorkOutcome
from repro.parallel.worker import _init_worker, run_work_item

__all__ = ["ObligationScheduler", "shared_scheduler", "shutdown_shared", "default_jobs"]


#: Longest a batch waits for its items' ``obligation.finish`` events to
#: be routed after their results arrived (a dropped event costs this).
FINISH_ROUTE_SECONDS = 1.0


def default_jobs() -> int:
    """A sensible worker count: the cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def _make_context():
    """Prefer ``fork`` (cheap start; workers inherit the parent's imports)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


class ObligationScheduler:
    """A fixed-size process pool executing independent check work.

    Parameters
    ----------
    jobs:
        Worker process count (≥ 1).  ``jobs=1`` still runs work in a
        (single) worker process — callers wanting zero-overhead
        sequential checking should simply not use a scheduler.

    The pool starts lazily on the first :meth:`run` call.  Statistics of
    every outcome accumulate in :attr:`metrics` (prefixes
    ``parallel.check`` / ``parallel.bdd`` plus scheduler-level counters
    ``parallel.items`` / ``parallel.checker_cache_hits``).
    """

    def __init__(self, jobs: int):
        if jobs < 1:
            raise ParallelError(f"need at least one worker, got {jobs}")
        self.jobs = jobs
        self.metrics = MetricsRegistry()
        self._pool = None
        #: Batch numbers: workers share a checker's memo only between
        #: items of one :meth:`run` call (see
        #: :func:`~repro.parallel.worker.checker_for`).
        self._batches = itertools.count(1)
        self._progress_queue = None
        self._progress_thread: threading.Thread | None = None
        self._progress_listeners: dict[str, Callable[[dict], None]] = {}
        self._progress_lock = threading.Lock()
        #: ``obligation.finish`` events a :meth:`run` still waits to see
        #: routed, by ``(progress key, obligation)``.
        self._unrouted: dict[tuple[str, str], int] = {}
        self._routed = threading.Condition(self._progress_lock)

    # -- lifecycle -------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            ctx = _make_context()
            # the progress queue rides on the pool initializer — mp
            # queues are inheritance-only, they cannot travel on
            # apply_async arguments
            self._progress_queue = ctx.Queue()
            self._pool = ctx.Pool(
                processes=self.jobs,
                initializer=_init_worker,
                initargs=(self._progress_queue,),
            )
            self._progress_thread = threading.Thread(
                target=self._drain_progress,
                args=(self._progress_queue,),
                name="repro-progress-drain",
                daemon=True,
            )
            self._progress_thread.start()
        return self._pool

    def close(self) -> None:
        """Terminate the workers (idempotent)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            if self._progress_queue is not None:
                try:
                    self._progress_queue.put_nowait(None)  # drainer sentinel
                except Exception:
                    pass
            self._progress_queue = None

    # -- progress routing ------------------------------------------------
    def subscribe_progress(
        self, key: str, callback: Callable[[dict], None]
    ) -> None:
        """Deliver worker progress events tagged with ``key`` to
        ``callback`` (called on the drainer thread; must not block).

        Work items opt in by carrying ``progress_key=key`` — events from
        items with other keys (or none) never reach this callback, so
        concurrent jobs sharing the pool stay isolated.
        """
        with self._progress_lock:
            self._progress_listeners[key] = callback

    def unsubscribe_progress(self, key: str) -> None:
        """Stop delivering events for ``key`` (idempotent)."""
        with self._progress_lock:
            self._progress_listeners.pop(key, None)

    def _drain_progress(self, source) -> None:
        """Drainer thread: route worker events to their subscribers."""
        while True:
            try:
                event = source.get(timeout=0.5)
            except (queue_module.Empty, OSError, EOFError):
                if self._progress_queue is not source:
                    return  # pool torn down; a new one gets a new drainer
                continue
            if event is None:  # close() sentinel
                return
            if not isinstance(event, dict):
                continue
            with self._progress_lock:
                callback = self._progress_listeners.get(event.get("key", ""))
            if callback is not None:
                try:
                    callback(event)
                except Exception:
                    pass  # a broken consumer must not kill the drainer
            if event.get("kind") == "obligation.finish":
                route = (event.get("key", ""), event.get("obligation", ""))
                with self._routed:
                    if route in self._unrouted:
                        self._unrouted[route] -= 1
                        self._routed.notify_all()

    def _await_routed(self, routes: list[tuple[str, str]]) -> None:
        """Wait, at most :data:`FINISH_ROUTE_SECONDS`, until the drainer
        has routed the ``obligation.finish`` of every route.

        A worker's heartbeats travel on the progress queue and its
        result on the pool's result pipe, so the result can arrive
        first.  Each worker puts ``obligation.finish`` after its
        heartbeats on the same queue, so once it is routed, so are they:
        a caller that unsubscribes after :meth:`run` loses none.
        """
        with self._routed:
            self._routed.wait_for(
                lambda: all(self._unrouted[r] <= 0 for r in routes),
                timeout=FINISH_ROUTE_SECONDS,
            )

    def __enter__(self) -> "ObligationScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution -------------------------------------------------------
    def run(
        self,
        items: Sequence[WorkItem],
        timeout: float | None = None,
        tracer=None,
    ) -> list[WorkOutcome]:
        """Execute a batch; outcomes are returned in submission order.

        When the parent tracer is recording, every item is flagged to
        record worker-side spans, and the outcomes' span trees are
        grafted under the parent's current span (one ``worker.item``
        root per obligation, tagged with the worker pid and — when the
        item carries a ``trace_id`` — the submitting request's trace).

        ``tracer`` selects which tracer governs recording and receives
        the grafted worker spans; it defaults to the process-wide
        :data:`~repro.obs.tracer.TRACER` (the CLI path).  The serving
        layer passes a private per-request tracer so concurrent HTTP
        traffic never touches global tracing state.

        ``timeout`` is a deadline in seconds for the *whole batch*; when
        it passes, :class:`ParallelError` is raised.  The pool itself
        stays usable — items already dispatched run to completion in
        their workers, their results are simply discarded — which is
        what a serving layer wants: one slow job must not tear down the
        warmed-up pool behind every other job.
        """
        items = list(items)
        if not items:
            return []
        if tracer is None:
            tracer = TRACER
        record = tracer.enabled
        if record:
            items = [
                item if item.record_spans else _with_spans(item)
                for item in items
            ]
        pool = self._ensure_pool()
        deadline = None if timeout is None else time.monotonic() + timeout
        routes = [
            (item.progress_key, item.progress_obligation or item.label)
            for item in items
            if item.progress_key
        ]
        with self._routed:
            for route in routes:
                self._unrouted[route] = self._unrouted.get(route, 0) + 1
        try:
            with tracer.span(
                "parallel.batch",
                category="parallel",
                jobs=self.jobs,
                items=len(items),
            ):
                # one async submission per item: results are collected in
                # submission order regardless of completion order, and a
                # long item never blocks dispatch of the ones behind it
                # (imap's chunking would).
                batch = next(self._batches)
                handles = [
                    pool.apply_async(run_work_item, (item, batch))
                    for item in items
                ]
                outcomes = []
                for handle in handles:
                    try:
                        if deadline is None:
                            outcomes.append(handle.get())
                        else:
                            remaining = max(deadline - time.monotonic(), 0.0)
                            outcomes.append(handle.get(remaining))
                    except multiprocessing.TimeoutError:
                        self.metrics.add("parallel.batch_timeouts")
                        raise ParallelError(
                            f"parallel batch timed out after {timeout:g} s "
                            f"({len(outcomes)}/{len(items)} items finished)"
                        ) from None
                self._merge(outcomes, record, tracer)
                if routes:
                    self._await_routed(routes)
        finally:
            with self._routed:
                for route in routes:
                    self._unrouted.pop(route, None)
        return outcomes

    def run_cached(
        self,
        items: Sequence[WorkItem],
        store,
        *,
        kind: str = "obligation",
        timeout: float | None = None,
        tracer=None,
        on_hit: Callable[[WorkItem, object], None] | None = None,
    ) -> list[WorkOutcome]:
        """Execute a batch through a :class:`~repro.store.ResultStore`.

        Items carrying a ``fingerprint`` are probed in ``store`` first;
        a hit replays the stored :class:`CheckResult` byte-identically
        as a synthesized outcome (``store_cached=True``) **without ever
        entering the pool** — the cost of a hit is one JSON read.  The
        replay is bound to the item: it carries the item's own formula
        and restriction, and a record whose formula or restriction text
        differs (:meth:`CheckResult.replayed`) is a miss.  Only the
        misses are submitted via :meth:`run`, and their results are
        written back under their fingerprints.  Outcomes are returned
        in submission order, hits and misses interleaved.

        ``on_hit(item, result)`` fires synchronously for every replayed
        item, in submission order — the hook the proof engine uses to
        publish ``obligation.cache_hit`` progress events.
        """
        items = list(items)
        if store is None:
            return self.run(items, timeout=timeout, tracer=tracer)
        from repro.store.store import StoreRecord

        outcomes: list[WorkOutcome | None] = [None] * len(items)
        pending: list[tuple[int, WorkItem]] = []
        for index, item in enumerate(items):
            found = (
                store.replay(
                    item.fingerprint,
                    item.formula,
                    item.restriction,
                    item.text,
                    kind=kind,
                )
                if item.fingerprint
                else None
            )
            if found is not None:
                _, result = found
                outcomes[index] = WorkOutcome(
                    result=result,
                    label=item.label,
                    pid=os.getpid(),
                    store_cached=True,
                    fingerprint=item.fingerprint,
                )
                self.metrics.add("parallel.store_hits")
                if on_hit is not None:
                    try:
                        on_hit(item, result)
                    except Exception:
                        pass  # a broken consumer must not lose the batch
            else:
                pending.append((index, item))
        if pending:
            ran = self.run(
                [item for _, item in pending], timeout=timeout, tracer=tracer
            )
            for (index, item), outcome in zip(pending, ran):
                outcomes[index] = outcome
                if item.fingerprint:
                    result = outcome.result
                    store.put(
                        item.fingerprint,
                        StoreRecord(
                            verdict=bool(result.holds),
                            result=result.to_dict(),
                            spec_text=str(item.formula),
                            kind=kind,
                        ),
                        kind=kind,
                    )
        return outcomes  # type: ignore[return-value]

    def map_results(self, items: Sequence[WorkItem]) -> list:
        """Shorthand: run a batch and return just the check results."""
        return [outcome.result for outcome in self.run(items)]

    # -- merging ---------------------------------------------------------
    def _merge(
        self, outcomes: Iterable[WorkOutcome], record: bool, tracer=None
    ) -> None:
        if tracer is None:
            tracer = TRACER
        for outcome in outcomes:
            self.metrics.add("parallel.items")
            if outcome.cached:
                self.metrics.add("parallel.checker_cache_hits")
            self.metrics.add("parallel.compile_seconds", outcome.compile_seconds)
            self.metrics.add("parallel.check_seconds", outcome.check_seconds)
            stats = getattr(outcome.result, "stats", None)
            if stats is not None:
                self.metrics.record_check_stats(stats, prefix="parallel.check")
            if outcome.bdd is not None:
                self.metrics.record_bdd_delta(outcome.bdd, prefix="parallel.bdd")
            if record and outcome.spans:
                graft_records(
                    tracer,
                    outcome.spans,
                    pid=outcome.pid,
                    wall_origin=outcome.wall_origin,
                )


def _with_spans(item: WorkItem) -> WorkItem:
    from dataclasses import replace

    return replace(item, record_spans=True)


#: Shared schedulers keyed by worker count (kept warm across proofs).
_SHARED: dict[int, ObligationScheduler] = {}


def shared_scheduler(jobs: int) -> ObligationScheduler:
    """One process-wide scheduler per worker count.

    Sharing keeps workers (and their compiled-checker caches) warm
    across successive proofs and CLI batches — the pool behaves like a
    small checking service.  All shared pools are torn down at
    interpreter exit (and their workers are daemonic regardless).
    """
    scheduler = _SHARED.get(jobs)
    if scheduler is None:
        scheduler = _SHARED[jobs] = ObligationScheduler(jobs)
    return scheduler


def shutdown_shared() -> None:
    """Close every shared scheduler (tests; also runs at exit)."""
    for scheduler in _SHARED.values():
        scheduler.close()
    _SHARED.clear()


atexit.register(shutdown_shared)
