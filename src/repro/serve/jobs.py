"""Job lifecycle for the batch checking service.

A :class:`JobManager` owns a bounded FIFO queue of check jobs and one
runner thread that executes them through the shared
:class:`~repro.parallel.pool.ObligationScheduler` worker pool (so the
service's heavy lifting happens on real cores, with warm per-worker
checker caches) and a :class:`~repro.store.store.ResultStore` (so
repeated submissions are served from disk without touching the pool).

Lifecycle::

    queued ──▶ running ──▶ done | failed | timeout
       └──▶ cancelled            (DELETE while still queued)

The queue is *bounded*: :meth:`JobManager.submit` raises
:class:`QueueFullError` when it is full, which the HTTP layer maps to
``429 Too Many Requests`` — load sheds at the edge instead of growing
an unbounded backlog.  :meth:`JobManager.drain` stops intake, waits for
the backlog to finish, and is the substrate of graceful ``SIGTERM``
shutdown.  Every transition feeds ``serve.*`` counters in the manager's
:class:`~repro.obs.metrics.MetricsRegistry`.

Observability (request-scoped, cross-process):

* every job carries a :class:`~repro.obs.tracer.TraceContext` trace id,
  minted at submission (the HTTP layer mints at ``POST /v1/check`` and
  echoes it in the response payload and ``X-Repro-Trace-Id`` header);
* while a job runs, a **private per-job tracer** records the full stage
  tree — cache probe, check, worker fan-out (worker spans are grafted
  back sharing the job's trace id), report serialization — and the
  flattened span records are kept on the job for ``GET
  /v1/jobs/<id>/trace``;
* per-stage times land in ``job.timings`` (part of the job document)
  and in latency histograms on the manager's registry
  (``request.duration_seconds`` and ``request.stage.*``), rendered as
  Prometheus histogram series at ``/metrics``; the check, serialize
  and cache-probe stages are sums over the job's spans;
* every job has a progress bus and obligation table from submission;
* lifecycle transitions emit structured events on the
  :data:`~repro.obs.log.LOG` event log (each carrying the trace and job
  ids, module text redacted to digests).
"""

from __future__ import annotations

import queue
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.obs.export import (
    build_info,
    build_info_text,
    to_jsonl_records,
    to_prometheus_text,
)
from repro.obs.log import LOG, EventLog, source_digest
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import DEFAULT_INTERVAL, ProgressBus, ProgressConfig
from repro.obs.tracer import TraceContext, Tracer
from repro.parallel.workitem import ParallelError
from repro.serve.schema import report_payload
from repro.store.cached import cached_check
from repro.store.store import ResultStore

__all__ = [
    "Job",
    "JobManager",
    "JobRequest",
    "QueueFullError",
    "ServeError",
    "TERMINAL_STATES",
]


class QueueFullError(ReproError):
    """The job queue is at capacity; the caller should back off."""


class ServeError(ReproError):
    """A request the service answers with ``status``, a JSON body and
    optional headers (``404`` unknown job, ``409`` wrong state, ...)."""

    def __init__(
        self, status: int, payload: dict, headers: dict | None = None
    ):
        super().__init__(payload.get("error", ""))
        self.status = status
        self.payload = payload
        self.headers = headers


#: States from which a job never moves again.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled", "timeout"})

#: Terminal jobs a manager keeps answering for, newest first; an older
#: one leaves the job table (its id answers ``404``).  Queued and running
#: jobs are never shed.
FINISHED_JOBS_KEPT = 1024


@dataclass(frozen=True)
class JobRequest:
    """One check in a job: an SMV source plus engine options."""

    source: str
    engine: str = "symbolic"
    reflexive: bool = False
    label: str = ""

    @classmethod
    def from_dict(cls, data: dict) -> "JobRequest":
        if not isinstance(data, dict):
            raise ValueError("each check must be a JSON object")
        source = data.get("source")
        if not isinstance(source, str) or not source.strip():
            raise ValueError("each check needs a non-empty 'source' string")
        engine = data.get("engine", "symbolic")
        if engine not in ("symbolic", "explicit"):
            raise ValueError(f"unknown engine {engine!r}")
        return cls(
            source=source,
            engine=engine,
            reflexive=bool(data.get("reflexive", False)),
            label=str(data.get("label", "")),
        )


@dataclass
class Job:
    """One submitted batch of checks and its (eventual) reports."""

    id: str
    requests: tuple[JobRequest, ...]
    timeout: float | None = None
    state: str = "queued"
    created: float = field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    error: str | None = None
    #: One report payload (see :mod:`repro.serve.schema`) per request.
    reports: list[dict] | None = None
    #: Request trace identity (``TraceContext.trace_id``); every span
    #: recorded for this job — including worker-process spans — carries it.
    trace_id: str = ""
    #: Per-stage times (``queue_wait_seconds``, ``check_seconds``,
    #: ``cache_probe_seconds``, ``serialize_seconds``, ``total_seconds``),
    #: filled when the job finishes; the check, serialize and probe
    #: stages are summed from the job's span tree.
    timings: dict | None = None
    #: Flattened span records (the JSONL layout of
    #: :func:`repro.obs.export.to_jsonl_records`) for ``GET
    #: /v1/jobs/<id>/trace``; filled when the job finishes, empty for a
    #: job cancelled while queued.
    trace: list[dict] = field(default_factory=list)
    #: Wall-clock time (``time.time`` axis) of the trace records' zero
    #: offset — the same convention pool workers report, which lets a
    #: *router* graft this shard's span tree onto its own tracer clock
    #: (:func:`repro.obs.merge.rebase_records`).  0.0 until the trace
    #: exists.
    trace_wall_origin: float = 0.0
    #: Live progress event bus (``GET /v1/jobs/<id>/events``); created
    #: at submission, closed when the job reaches a terminal state.
    progress: ProgressBus = field(default_factory=ProgressBus, repr=False)
    #: Per-obligation state machine, keyed by obligation name
    #: (``c<check>.spec<n>``): ``state`` walks ``pending → running →
    #: done|cached|failed`` monotonically; ``stalled`` is an orthogonal
    #: flag the watchdog sets (and a fresh heartbeat clears).  An
    #: obligation checked here carries ``seconds``, its report's
    #: ``stats.user_time`` rounded to the microsecond.
    obligations: dict[str, dict] = field(default_factory=dict)
    #: Which cluster shard executed this job (``host:port``); empty for
    #: a standalone instance.  Surfaced in the job document and stamped
    #: on progress events so SSE consumers can attribute work.
    shard: str = ""

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def obligations_public(self) -> dict:
        """The obligation table without bookkeeping fields."""
        return {
            name: {
                key: value
                for key, value in entry.items()
                if not key.startswith("_")
            }
            for name, entry in self.obligations.items()
        }

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "state": self.state,
            "checks": len(self.requests),
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "reports": self.reports,
            "trace_id": self.trace_id,
            "timings": self.timings,
            "obligations": self.obligations_public(),
            "progress_events": self.progress.last_seq,
            "shard": self.shard or None,
        }


class JobManager:
    """Bounded job queue + runner thread over the shared worker pool.

    Parameters
    ----------
    jobs:
        Worker process count for the underlying scheduler.
    queue_size:
        Maximum queued (not yet running) jobs; beyond it
        :meth:`submit` raises :class:`QueueFullError`.
    store:
        Result store consulted/populated by every check (optional).
    default_timeout:
        Per-job deadline in seconds applied when a submission does not
        set its own.
    metrics:
        Registry for ``serve.*`` counters and ``request.*`` latency
        histograms (shared with the store so ``/metrics`` renders one
        coherent document).
    log:
        Structured event log for job lifecycle events; defaults to the
        process-wide :data:`~repro.obs.log.LOG` (silent until
        :func:`~repro.obs.log.configure_log` gives it a sink).
    progress_interval:
        Minimum seconds between heartbeat ticks from inside the
        engines' fixpoint loops.
    stall_deadline:
        Seconds without a heartbeat before a *running* obligation is
        flagged as stalled (event log, ``repro_stalled_obligations``
        metric, an ``obligation.stall`` event on the job's bus);
        ``None`` disables the watchdog.
    shard_id:
        This instance's cluster identity (``host:port``) when serving
        as a ring member (``repro serve --ring``); stamped on job
        documents and progress events, surfaced in ``/healthz``.
        Empty for a standalone instance.
    """

    def __init__(
        self,
        *,
        jobs: int = 2,
        queue_size: int = 16,
        store: ResultStore | None = None,
        default_timeout: float | None = 300.0,
        metrics: MetricsRegistry | None = None,
        log: EventLog | None = None,
        progress_interval: float = DEFAULT_INTERVAL,
        stall_deadline: float | None = 30.0,
        shard_id: str = "",
    ):
        self.jobs = jobs
        self.store = store
        self.shard_id = shard_id
        self.default_timeout = default_timeout
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.log = log if log is not None else LOG
        self.progress_interval = progress_interval
        self.stall_deadline = stall_deadline
        # pre-registered so /metrics always renders the gauge, stalls or not
        self.metrics.add("stalled_obligations", 0)
        self.started_wall = time.time()
        self.draining = False
        self._queue: queue.Queue[str | None] = queue.Queue(maxsize=queue_size)
        self._jobs: dict[str, Job] = {}
        #: ids of terminal jobs still in ``_jobs``, oldest first
        self._finished: deque[str] = deque()
        self._lock = threading.Lock()
        self._idle = threading.Event()
        self._idle.set()
        self._runner: threading.Thread | None = None
        self._watchdog: threading.Thread | None = None
        self._watchdog_stop = threading.Event()

    # -- scheduler -------------------------------------------------------
    def _scheduler(self):
        from repro.parallel.pool import shared_scheduler

        return shared_scheduler(self.jobs)

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "JobManager":
        """Start the runner thread (idempotent); returns ``self``."""
        if self._runner is None or not self._runner.is_alive():
            self._runner = threading.Thread(
                target=self._run_loop, name="repro-serve-runner", daemon=True
            )
            self._runner.start()
        if self.stall_deadline and (  # None or 0 both disable the watchdog
            self._watchdog is None or not self._watchdog.is_alive()
        ):
            self._watchdog_stop.clear()
            self._watchdog = threading.Thread(
                target=self._watchdog_loop,
                name="repro-serve-watchdog",
                daemon=True,
            )
            self._watchdog.start()
        return self

    def stop(self) -> None:
        """Stop the runner after the job it is on (no queue wait)."""
        self.draining = True
        self._watchdog_stop.set()
        try:
            self._queue.put_nowait(None)  # wake the runner
        except queue.Full:
            pass
        if self._runner is not None:
            self._runner.join(timeout=30)

    def drain(self, timeout: float | None = None) -> bool:
        """Stop intake and wait for queued + running jobs to finish.

        Returns True when the backlog emptied within ``timeout``
        seconds (``None`` waits indefinitely).
        """
        self.draining = True
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            backlog = self.stats()
            if (
                self._queue.empty()
                and self._idle.is_set()
                and backlog["queued"] == 0
                and backlog["running"] == 0
            ):
                self.stop()
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.02)

    # -- submission / queries --------------------------------------------
    def submit(
        self,
        requests: list[JobRequest] | tuple[JobRequest, ...],
        timeout: float | None = None,
        trace: TraceContext | None = None,
    ) -> Job:
        """Enqueue a batch; raises :class:`QueueFullError` at capacity.

        ``trace`` carries the request's trace identity from the edge
        (the HTTP layer mints one per ``POST /v1/check``); direct
        library callers may omit it and a fresh context is minted.
        """
        if self.draining:
            raise QueueFullError("server is draining; not accepting jobs")
        if not requests:
            raise ValueError("a job needs at least one check")
        ctx = trace if trace is not None else TraceContext.mint()
        job = Job(
            id=uuid.uuid4().hex[:12],
            requests=tuple(requests),
            timeout=self.default_timeout if timeout is None else timeout,
            trace_id=ctx.trace_id,
            shard=self.shard_id,
        )
        with self._lock:
            self._jobs[job.id] = job
        try:
            self._queue.put_nowait(job.id)
        except queue.Full:
            with self._lock:
                del self._jobs[job.id]
            self.metrics.add("serve.queue_full_rejections")
            self.log.warning(
                "queue.full",
                trace_id=job.trace_id,
                queue_size=self._queue.maxsize,
            )
            raise QueueFullError(
                f"job queue is full ({self._queue.maxsize} waiting)"
            ) from None
        self.metrics.add("serve.jobs_submitted")
        self.metrics.add("serve.checks_submitted", len(requests))
        self.log.event(
            "job.submitted",
            trace_id=job.trace_id,
            job_id=job.id,
            checks=len(job.requests),
            sources=[source_digest(r.source) for r in job.requests],
            timeout=job.timeout,
        )
        return job

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def cancel(self, job_id: str) -> str | None:
        """Cancel a queued job.

        Returns the job's state after the attempt (``"cancelled"`` on
        success, the current state when it already left the queue) or
        ``None`` for unknown ids.  Running jobs are not interrupted —
        obligations already execute on worker processes.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.state == "queued":
                job.state = "cancelled"
                job.finished = time.time()
                self.metrics.add("serve.jobs_cancelled")
                self.log.event(
                    "job.cancelled", trace_id=job.trace_id, job_id=job.id
                )
                self._on_progress(
                    job, {"kind": "job.state", "state": "cancelled"}
                )
                job.progress.close()
                self._retire(job)
            return job.state

    def _retire(self, job: Job) -> None:
        """Record ``job`` as terminal and shed the oldest terminal jobs
        past :data:`FINISHED_JOBS_KEPT` (caller holds ``_lock``)."""
        self._finished.append(job.id)
        while len(self._finished) > FINISHED_JOBS_KEPT:
            del self._jobs[self._finished.popleft()]

    # -- the HTTP surface (see repro.serve.http) --------------------------
    def accept(
        self,
        requests: list[JobRequest],
        timeout: float | None = None,
        trace: TraceContext | None = None,
    ) -> dict:
        """:meth:`submit`, answered with the ``202`` acceptance document."""
        job = self.submit(requests, timeout=timeout, trace=trace)
        return {
            "id": job.id,
            "state": job.state,
            "checks": len(job.requests),
            "href": f"/v1/jobs/{job.id}",
            "trace_id": job.trace_id,
        }

    def _known(self, job_id: str) -> Job:
        job = self.get(job_id)
        if job is None:
            raise ServeError(404, {"error": "no such job"})
        return job

    def job_document(self, job_id: str) -> dict:
        return self._known(job_id).to_dict()

    def job_trace(self, job_id: str) -> dict:
        """The terminal job's span records (``409`` before then)."""
        job = self._known(job_id)
        if not job.terminal:
            raise ServeError(
                409,
                {
                    "id": job.id,
                    "state": job.state,
                    "error": "trace available once the job is terminal",
                },
            )
        return {
            "id": job.id,
            "trace_id": job.trace_id,
            "spans": job.trace,
            # wall-clock time of offset zero: what a router needs to
            # rebase this tree onto its own clock
            "wall_origin": job.trace_wall_origin,
            "shard": job.shard or None,
        }

    def job_events(self, job_id: str):
        """The job's progress bus and a current-state callable."""
        job = self._known(job_id)
        return job.progress, lambda: job.state

    def cancel_job(self, job_id: str) -> dict:
        """:meth:`cancel`, with ``404``/``409`` as :class:`ServeError`."""
        state = self.cancel(job_id)
        if state is None:
            raise ServeError(404, {"error": "no such job"})
        if state != "cancelled":
            raise ServeError(
                409, {"id": job_id, "state": state, "error": "not cancellable"}
            )
        return {"id": job_id, "state": state}

    def registry(self) -> MetricsRegistry:
        """Manager, scheduler and store registries folded into one.

        Name collisions follow merge semantics (peaks take the max,
        everything else sums).  The store may share the manager's
        registry, so registries are deduplicated by identity or shared
        counters would double.
        """
        store = self.store.metrics if self.store is not None else None
        distinct = {
            id(registry): registry
            for registry in (self.metrics, self._scheduler().metrics, store)
            if registry is not None
        }
        merged = MetricsRegistry()
        for registry in distinct.values():
            merged.merge(registry)
        return merged

    def metrics_text(self) -> str:
        """The ``/metrics`` document: :meth:`registry` plus build info."""
        return to_prometheus_text(self.registry()) + build_info_text(
            build_info()
        )

    def stats(self) -> dict:
        """Queue/job counts, version, uptime and store hit rate
        (the ``/healthz`` document)."""
        from repro import __version__

        with self._lock:
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
        store_block = None
        if self.store is not None:
            hits = self.store.metrics.get("store.hits")
            misses = self.store.metrics.get("store.misses")
            lookups = hits + misses
            kinds = {}
            for kind in ("report", "spec", "obligation"):
                kind_hits = self.store.metrics.get(f"store.hits.{kind}")
                kind_misses = self.store.metrics.get(f"store.misses.{kind}")
                kind_lookups = kind_hits + kind_misses
                kinds[kind] = {
                    "hits": int(kind_hits),
                    "misses": int(kind_misses),
                    "hit_rate": (
                        round(kind_hits / kind_lookups, 4)
                        if kind_lookups
                        else 0.0
                    ),
                }
            store_block = {
                "hits": int(hits),
                "misses": int(misses),
                "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
                "kinds": kinds,
            }
            remote_hits = self.store.metrics.get("store.remote_hits")
            if remote_hits:
                store_block["remote_hits"] = int(remote_hits)
        # A peer-aware store (repro.cluster.peers.PeerAwareStore) carries
        # a PeerSet; its describe() is the cluster health block.
        peers = getattr(self.store, "peers", None)
        cluster_block = peers.describe() if peers is not None else None
        return {
            "version": __version__,
            "uptime_seconds": round(time.time() - self.started_wall, 3),
            "queued": states.get("queued", 0),
            "running": states.get("running", 0),
            "jobs_total": sum(states.values()),
            "states": states,
            "store": store_block,
            "shard": self.shard_id or None,
            "cluster": cluster_block,
            "draining": self.draining,
            "stalled_obligations": int(
                self.metrics.get("stalled_obligations")
            ),
            "config": {
                "jobs": self.jobs,
                "queue_size": self._queue.maxsize,
                "default_timeout_seconds": self.default_timeout,
                "progress_interval_seconds": self.progress_interval,
                "stall_deadline_seconds": self.stall_deadline,
            },
        }

    # -- execution -------------------------------------------------------
    def _run_loop(self) -> None:
        while True:
            try:
                job_id = self._queue.get(timeout=0.1)
            except queue.Empty:
                if self.draining:
                    return
                continue
            if job_id is None:  # stop() sentinel
                return
            job = self.get(job_id)
            if job is None or job.state != "queued":
                continue  # cancelled while queued
            self._idle.clear()
            try:
                self._execute(job)
            finally:
                self._idle.set()

    def _execute(self, job: Job) -> None:
        job.state = "running"
        job.started = time.time()
        queue_wait = max(job.started - job.created, 0.0)
        deadline = (
            None if job.timeout is None else time.monotonic() + job.timeout
        )
        # A private tracer per job: request traces must not touch the
        # process-wide TRACER (the runner thread would race CLI/library
        # tracing in the same process).  The scheduler flags worker-side
        # span recording and grafts the worker trees back under the open
        # check span, all sharing job.trace_id.
        tracer = Tracer(enabled=True)
        state = "failed"  # unless the checks below all complete
        reports: list[dict] = []
        scheduler = self._scheduler()

        def publish(event: dict) -> None:
            self._on_progress(job, event)

        publish({"kind": "job.state", "state": "running"})
        # worker heartbeats drained from the pool queue route here by job
        # id (the drainer thread calls publish directly)
        scheduler.subscribe_progress(job.id, publish)
        self.log.event(
            "job.started",
            trace_id=job.trace_id,
            job_id=job.id,
            queue_wait_seconds=round(queue_wait, 6),
            checks=len(job.requests),
        )
        try:
            with tracer.span(
                "serve.job",
                category="serve",
                trace_id=job.trace_id,
                job_id=job.id,
                checks=len(job.requests),
            ):
                for index, request in enumerate(job.requests):
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            raise ParallelError(
                                f"job deadline ({job.timeout:g} s) exceeded"
                            )
                    with tracer.span(
                        "serve.check",
                        category="serve",
                        index=index,
                        label=request.label,
                        engine=request.engine,
                        trace_id=job.trace_id,
                    ) as check_span:
                        run = cached_check(
                            request.source,
                            engine=request.engine,
                            reflexive=request.reflexive,
                            store=self.store,
                            scheduler=scheduler,
                            timeout=remaining,
                            tracer=tracer,
                            trace_id=job.trace_id,
                            progress=ProgressConfig(
                                publish=publish,
                                key=job.id,
                                prefix=f"c{index}.",
                                interval=self.progress_interval,
                            ),
                        )
                    with tracer.span(
                        "serve.serialize", category="serve", index=index
                    ):
                        payload = report_payload(
                            run, with_cache=self.store is not None
                        )
                        if request.label:
                            payload["label"] = request.label
                    reports.append(payload)
                    self.metrics.add("serve.specs_checked", len(run.results))
                    self.metrics.add("serve.spec_cache_hits", run.hits)
                    self.log.debug(
                        "job.check",
                        trace_id=job.trace_id,
                        job_id=job.id,
                        index=index,
                        label=request.label,
                        engine=request.engine,
                        specs=len(run.results),
                        cache_hits=run.hits,
                        seconds=round(check_span.duration, 6),
                    )
            job.reports = reports
            state = "done"
            self.metrics.add("serve.jobs_completed")
        except ParallelError as exc:
            job.error = str(exc)
            timed_out = "timed out" in str(exc) or "deadline" in str(exc)
            state = "timeout" if timed_out else "failed"
            self.metrics.add(
                "serve.jobs_timeout" if timed_out else "serve.jobs_failed"
            )
        except Exception as exc:  # parse/elaboration/check errors
            job.error = f"{type(exc).__name__}: {exc}"
            self.metrics.add("serve.jobs_failed")
        finally:
            job.finished = time.time()
            self.metrics.add(
                "serve.job_seconds",
                (job.finished - (job.started or job.finished)),
            )
            self._finish_observations(job, state, tracer, queue_wait)
            if self.store is not None:
                try:
                    self.store.flush_counters()
                except OSError:
                    pass  # sidecar is best-effort; never fail a job
            # published after the stamping and the counter flush, so a
            # job seen terminal already carries its timings and trace,
            # and its counters are on disk
            job.state = state
            scheduler.unsubscribe_progress(job.id)
            publish({"kind": "job.state", "state": state, "error": job.error})
            job.progress.close()
            with self._lock:
                self._retire(job)

    def _finish_observations(
        self, job: Job, state: str, tracer: Tracer, queue_wait: float
    ) -> None:
        """Stamp timings/trace on the finished job and feed histograms.

        The check, serialize and cache-probe stages are sums over the
        job's recorded spans; queue wait and total are wall stamps.  The
        histograms and the ``job.done`` line read the same ``timings``.
        """
        stages = {"serve.check": 0.0, "serve.serialize": 0.0, "store.probe": 0.0}
        for span in tracer.spans():
            if span.name in stages:
                stages[span.name] += span.duration
        job.trace = to_jsonl_records(tracer)
        # wall time of the records' zero offset, mirroring the
        # wall_origin convention worker processes report upward
        job.trace_wall_origin = tracer.epoch_wall + (
            tracer.start_time - tracer.epoch_perf
        )
        job.timings = {
            "queue_wait_seconds": round(queue_wait, 6),
            "cache_probe_seconds": round(stages["store.probe"], 6),
            "check_seconds": round(stages["serve.check"], 6),
            "serialize_seconds": round(stages["serve.serialize"], 6),
            "total_seconds": round((job.finished or 0.0) - job.created, 6),
        }
        self.metrics.observe(
            "request.duration_seconds", job.timings["total_seconds"]
        )
        for stage in ("queue_wait", "check", "serialize", "cache_probe"):
            seconds = job.timings[f"{stage}_seconds"]
            # a job that never probed the store has no probe stage
            if seconds or stage != "cache_probe":
                self.metrics.observe(f"request.stage.{stage}_seconds", seconds)
        event = {
            "done": "job.done",
            "timeout": "job.timeout",
        }.get(state, "job.failed")
        self.log.event(
            event,
            level="info" if state == "done" else "error",
            trace_id=job.trace_id,
            job_id=job.id,
            state=state,
            error=job.error,
            checks=len(job.requests),
            spans=len(job.trace),
            **job.timings,
        )

    # -- live progress ---------------------------------------------------
    #: Obligation states only ever advance along this ranking — late or
    #: re-ordered events (a worker heartbeat drained after the parent's
    #: result) can never move an obligation backwards.
    _STATE_RANK = {
        "pending": 0,
        "running": 1,
        "done": 2,
        "cached": 2,
        "failed": 2,
    }

    @classmethod
    def _advance(cls, entry: dict, state: str) -> None:
        if cls._STATE_RANK[state] >= cls._STATE_RANK[entry["state"]]:
            entry["state"] = state

    def _on_progress(self, job: Job, event: dict) -> None:
        """Fold one progress event into the job's obligation table and
        publish it on the job's bus.

        Called from the runner thread (in-process/lifecycle events) and
        from the pool's drainer thread (worker heartbeats).  The two
        channels race at the tail of an obligation: the parent publishes
        ``obligation.result`` as soon as the pool hands back the
        outcome, while that worker's last heartbeats may still sit in
        the progress queue.  Folding and publishing under the manager
        lock, and dropping non-terminal events for obligations already
        in a terminal state, keeps the published stream monotone — the
        invariant /events consumers rely on.
        """
        bus = job.progress
        if self.shard_id:
            event.setdefault("shard", self.shard_id)
        kind = str(event.get("kind", ""))
        name = event.get("obligation")
        if name:
            with self._lock:
                entry = job.obligations.get(name)
                if entry is None:
                    entry = job.obligations[name] = {
                        "state": "pending",
                        "ticks": 0,
                        "stalled": False,
                    }
                if self._STATE_RANK[entry["state"]] >= 2 and kind in (
                    "obligation.queued",
                    "obligation.start",
                    "obligation.tick",
                    "obligation.stall",
                ):
                    return  # stale heartbeat from a finished obligation
                entry["_last_heartbeat"] = time.monotonic()
                if entry["stalled"] and kind != "obligation.stall":
                    entry["stalled"] = False  # heartbeat resumed
                if kind == "obligation.queued":
                    entry["engine"] = event.get("engine")
                elif kind == "obligation.start":
                    self._advance(entry, "running")
                    if "pid" in event:
                        entry["pid"] = event["pid"]
                elif kind == "obligation.tick":
                    self._advance(entry, "running")
                    entry["ticks"] += 1
                    entry["phase"] = event.get("phase")
                    entry["iterations"] = event.get("iterations")
                    entry["size"] = event.get("size")
                elif kind == "obligation.cache_hit":
                    self._advance(entry, "cached")
                    entry["holds"] = event.get("holds")
                elif kind in ("obligation.finish", "obligation.result"):
                    self._advance(entry, "done")
                    if "holds" in event:
                        entry["holds"] = event["holds"]
                    if "seconds" in event:
                        entry["seconds"] = event["seconds"]
                bus.publish(event)
                return
        bus.publish(event)

    def _watchdog_loop(self) -> None:
        """Flag running obligations whose heartbeats went quiet.

        Only obligations in state ``running`` are examined — a queued
        obligation legitimately waits without heartbeats, and terminal
        ones are done emitting.  A stall is not terminal: the flag
        clears if heartbeats resume (e.g. a long GC pause), but the
        metric and the log line persist as evidence.
        """
        deadline = self.stall_deadline
        if not deadline:
            return
        poll = max(min(deadline / 4.0, 1.0), 0.01)
        while not self._watchdog_stop.wait(poll):
            now = time.monotonic()
            with self._lock:
                live = [
                    job
                    for job in self._jobs.values()
                    if job.state == "running" and job.obligations
                ]
            for job in live:
                stalls: list[tuple[str, float]] = []
                with self._lock:
                    for name, entry in job.obligations.items():
                        if entry.get("state") != "running":
                            continue
                        if entry.get("stalled"):
                            continue
                        idle = now - entry.get("_last_heartbeat", now)
                        if idle > deadline:
                            entry["stalled"] = True
                            stalls.append((name, idle))
                for name, idle in stalls:
                    self.metrics.add("stalled_obligations")
                    self.log.warning(
                        "obligation.stalled",
                        trace_id=job.trace_id,
                        job_id=job.id,
                        obligation=name,
                        idle_seconds=round(idle, 3),
                        deadline=deadline,
                    )
                    job.progress.publish(
                        {
                            "kind": "obligation.stall",
                            "obligation": name,
                            "idle_seconds": round(idle, 3),
                            "deadline": deadline,
                        }
                    )
