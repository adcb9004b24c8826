"""The cluster front end: one ``/v1/check`` door over N shards.

A :class:`RouterManager` accepts the service's existing batch API,
splits each submission into per-shard sub-jobs — every check routed to
the owner of its :func:`~repro.cluster.ring.request_fingerprint` — and
submits them concurrently through :mod:`repro.cluster.fanout` (the
program's one HTTP client exchange, mapped over a shared thread pool;
a dead shard fails only its own request).  ``GET /v1/jobs/<id>`` fans
the poll back out and folds the shard documents into one aggregate:
reports in the caller's original check order, worst shard state wins, a
``shards`` block attributing each slice.

Shard failures degrade, they don't fail: a shard whose submission is
refused (or whose circuit breaker is open) has its checks *failed over*
to the next member in ring preference order, and a shard that stops
answering polls eventually fails only its own slice.  ``/healthz``
(role ``router``) probes every member; ``/metrics`` renders routing
counters and per-shard submit latency histograms.

The HTTP side is the serve member's own: :func:`create_router` returns
a :class:`~repro.serve.http.ReproServer` whose manager is a
:class:`RouterManager`, plus the ``/v1/cluster/*`` routes.

The router is also the cluster's observability plane:

* it fixes the authoritative ``trace_id`` of every submission (a
  well-formed inbound one, else freshly minted) and propagates it to
  each shard via the ``X-Repro-Trace-Id`` header, so
  ``GET /v1/jobs/<id>/trace`` can fetch each shard's span tree and
  graft them — rebased onto one clock, tagged with a ``shard``
  attribute — under a single synthetic ``router.job`` root span;
* ``GET /metrics`` adds the *federated* cluster document to the
  router's own counters, with ``GET /v1/cluster/metrics`` as its JSON
  twin: every member's ``GET /v1/metrics`` registry, folded with
  :meth:`~repro.obs.metrics.MetricsRegistry.merge` and rendered once;
* ``GET /v1/jobs/<id>/events`` multiplexes every owner shard's SSE
  stream into one ordered, shard-tagged stream with ``Last-Event-ID``
  resume; shard-local stamps are kept as ``shard_seq``/``shard_ts``,
  and a reconnect surfaces as ``shard.stream_degraded``;
* a member that fails a scrape counts in
  ``repro_cluster_scrape_errors``.  ``repro cluster status --ring ...
  --watch`` shows it all live.

``repro cluster router --ring ...`` runs one of these; any
:class:`~repro.serve.client.ServeClient` pointed at it sees a normal
(if larger) checking service.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import deque
from dataclasses import asdict, dataclass
from itertools import islice

from repro.cluster.fanout import FanoutRequest, fanout
from repro.cluster.peers import CircuitBreaker, peer_metric_name
from repro.cluster.ring import RingConfig, request_fingerprint
from repro.obs.export import (
    build_info_text,
    prometheus_samples,
    to_jsonl_records,
    to_prometheus_text,
)
from repro.obs.merge import graft_records
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressBus
from repro.obs.tracer import TIMER, TraceContext, Tracer
from repro.serve.client import Reply, ServeClient, ServeClientError
from repro.serve.http import ReproServer
from repro.serve.jobs import (
    FINISHED_JOBS_KEPT,
    TERMINAL_STATES,
    JobRequest,
    QueueFullError,
    ServeError,
)

__all__ = ["Federation", "RouterManager", "create_router", "federate"]

#: Consecutive failed polls of one shard sub-job before its slice is
#: declared failed (a dead *executing* shard fails only its own checks).
POLL_FAILURE_LIMIT = 20

#: Worst state wins when folding shard sub-job states into one.
_STATE_PRECEDENCE = (
    "failed",
    "timeout",
    "cancelled",
    "running",
    "queued",
    "done",
)


class _Part:
    """One shard's slice of a routed job."""

    __slots__ = (
        "shard", "url", "indices", "checks", "job_id", "state",
        "error", "reports", "trace_id", "poll_failures",
    )

    def __init__(self, shard: str, url: str):
        self.shard = shard
        self.url = url
        self.indices: list[int] = []  # positions in the caller's batch
        self.checks: list[dict] = []
        self.job_id: str | None = None
        self.state = "queued"
        self.error: str | None = None
        self.reports: list[dict] | None = None
        self.trace_id = ""
        self.poll_failures = 0

    def describe(self) -> dict:
        return {
            "shard": self.shard,
            "job_id": self.job_id,
            "checks": len(self.indices),
            "indices": list(self.indices),
            "state": self.state,
            "error": self.error,
            "trace_id": self.trace_id,
        }


class _RoutedJob:
    """The router-side record of one accepted submission.

    ``trace_id`` is fixed here, at the edge (the inbound
    ``X-Repro-Trace-Id`` or a fresh one) — the router is the authority
    for the whole cluster trace, and every shard sub-job is submitted
    with it in ``X-Repro-Trace-Id``, so a slice that fails over to
    another member keeps the same trace identity.  ``stream``
    is the lazily-built SSE multiplexer for ``/v1/jobs/<id>/events``.
    """

    __slots__ = ("id", "created", "checks", "parts", "timeout",
                 "trace_id", "stream", "retired")

    def __init__(self, checks: int, timeout: float | None, trace_id: str):
        self.id = uuid.uuid4().hex[:12]
        self.created = time.time()
        self.checks = checks
        self.parts: list[_Part] = []
        self.timeout = timeout
        self.trace_id = trace_id or TraceContext.mint().trace_id
        self.stream: "_JobStream | None" = None
        #: seen terminal, and counted against FINISHED_JOBS_KEPT
        self.retired = False


class RouterManager:
    """Routing state + shard health for one router process."""

    store = None  # no local store: /v1/store/* answers 404

    def __init__(
        self,
        config: RingConfig,
        metrics: MetricsRegistry | None = None,
        timeout: float = 10.0,
        failure_threshold: int = 3,
        reset_seconds: float = 10.0,
        clock=time.monotonic,
    ):
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.timeout = timeout
        self.started_wall = time.time()
        self.draining = False
        self._jobs: dict[str, _RoutedJob] = {}
        #: ids of jobs last seen terminal, oldest first
        self._finished: deque[str] = deque()
        self._lock = threading.Lock()
        self._breakers = {
            shard: CircuitBreaker(
                failure_threshold=failure_threshold,
                reset_seconds=reset_seconds,
                clock=clock,
            )
            for shard in config.shard_ids
        }

    def _fan(self, urls, method: str = "GET") -> list[Reply]:
        """One fan-out of body-less requests, in ``urls`` order."""
        return fanout(
            [
                FanoutRequest(url=url, method=method, timeout=self.timeout)
                for url in urls
            ]
        )

    # -- routing ---------------------------------------------------------
    def _route(self, checks: list[dict]) -> dict[str, _Part]:
        """Group checks by owner shard, skipping open-circuit shards.

        A check whose owner's breaker is open is *failed over* to the
        next member in its ring preference order (counted per event);
        with every breaker open the owner is used anyway — the
        submission fan-out will surface the truth.
        """
        parts: dict[str, _Part] = {}
        for index, check in enumerate(checks):
            key = request_fingerprint(check)
            order = self.config.ring.preference(key)
            shard = order[0]
            for candidate in order:
                if self._breakers[candidate].allow():
                    if candidate != order[0]:
                        self.metrics.add("router.failovers")
                    shard = candidate
                    break
            part = parts.get(shard)
            if part is None:
                part = parts[shard] = _Part(
                    shard, self.config.url_of(shard)
                )
            part.indices.append(index)
            part.checks.append(check)
        return parts

    def submit(
        self, checks: list[dict], timeout: float | None, trace_id: str = ""
    ) -> _RoutedJob:
        """Split a batch, fan the sub-jobs out, record the routed job.

        ``trace_id`` is the submission's trace identity (minted when
        empty).  Raises :class:`~repro.serve.jobs.ServeError` (``502``)
        when *no* shard accepted its slice — a partial acceptance is not
        an error (the unreachable shard's slice is retried once on the
        next preference member, then surfaces as a failed slice in the
        aggregate document).
        """
        job = _RoutedJob(len(checks), timeout, trace_id)
        parts = self._route(checks)
        self._submit_parts(job, list(parts.values()), failover=True)
        accepted = [p for p in job.parts if p.job_id is not None]
        if not accepted:
            errors = "; ".join(
                f"{p.shard}: {p.error}" for p in job.parts if p.error
            )
            raise ServeError(
                502, {"error": f"no shard accepted the batch ({errors})"}
            )
        self.metrics.add("router.jobs_submitted")
        self.metrics.add("router.checks_routed", len(checks))
        with self._lock:
            self._jobs[job.id] = job
        self._shed_unpolled()
        return job

    def _shed_unpolled(self) -> None:
        """Refresh the oldest jobs past the unretired bound; retire the
        terminal ones.

        A client may submit and never poll to completion, so past
        :data:`~repro.serve.jobs.FINISHED_JOBS_KEPT` unretired jobs each
        submission polls the oldest excess in one fan-out.  A job still
        running stays (and is polled again next time), which widens the
        next probe by one, so the excess shrinks as soon as old jobs end.
        """
        with self._lock:
            excess = len(self._jobs) - len(self._finished) - FINISHED_JOBS_KEPT
            oldest = list(
                islice(
                    (job for job in self._jobs.values() if not job.retired),
                    max(excess, 0),
                )
            )
        if not oldest:
            return
        self._refresh(*oldest)
        for job in oldest:
            if self._document(job)["state"] in TERMINAL_STATES:
                self._retire(job)

    def accept(
        self,
        requests: list[JobRequest],
        timeout: float | None = None,
        trace: TraceContext | None = None,
    ) -> dict:
        """:meth:`submit` a validated batch; the ``202`` document."""
        if self.draining:
            raise QueueFullError("router is draining; not accepting jobs")
        job = self.submit(
            [asdict(request) for request in requests],
            timeout,
            trace.trace_id if trace is not None else "",
        )
        return {
            "id": job.id,
            "state": "queued",
            "checks": job.checks,
            "href": f"/v1/jobs/{job.id}",
            "trace_id": job.trace_id,
            "shards": [part.shard for part in job.parts],
        }

    def _submit_parts(
        self, job: _RoutedJob, parts: list[_Part], failover: bool
    ) -> None:
        requests = []
        for part in parts:
            payload: dict = {"checks": part.checks}
            if job.timeout is not None:
                payload["timeout"] = job.timeout
            requests.append(
                FanoutRequest(
                    url=f"{part.url}/v1/check",
                    method="POST",
                    payload=payload,
                    timeout=self.timeout,
                    # the shard honors the inbound id end-to-end, so its
                    # worker spans join the router-minted trace
                    headers={"X-Repro-Trace-Id": job.trace_id},
                )
            )
        with TIMER.span("router.submit") as span:
            responses = fanout(requests)
        self.metrics.observe("router.submit_seconds", span.duration)
        retry: list[_Part] = []
        for part, response in zip(parts, responses):
            self.metrics.observe(
                f"router.shard.{peer_metric_name(part.shard)}"
                ".submit_seconds",
                response.seconds,
            )
            accepted = response.json() if response.ok else None
            if (
                response.ok
                and response.status == 202
                and accepted is not None
            ):
                self._breakers[part.shard].record_success()
                part.job_id = str(accepted.get("id", ""))
                # the shard echoes the propagated id; fall back to the
                # router's own copy so the field is never empty
                part.trace_id = (
                    str(accepted.get("trace_id", "")) or job.trace_id
                )
                part.state = str(accepted.get("state", "queued"))
                self.metrics.add(
                    f"router.shard.{peer_metric_name(part.shard)}.checks",
                    len(part.indices),
                )
                job.parts.append(part)
                continue
            part.error = response.error or (
                (accepted or {}).get("error")
                if accepted is not None
                else f"HTTP {response.status}"
            ) or f"HTTP {response.status}"
            self.metrics.add("router.shard_errors")
            if response.error is not None:
                self._breakers[part.shard].record_failure()
            moved = self._failover_part(part) if failover else None
            if moved is not None:
                retry.append(moved)
            else:
                part.state = "failed"
                job.parts.append(part)
        if retry:
            self.metrics.add("router.failovers", len(retry))
            self._submit_parts(job, retry, failover=False)

    def _failover_part(self, part: _Part) -> _Part | None:
        """The same slice re-aimed at the next preference member."""
        key = request_fingerprint(part.checks[0])
        for shard in self.config.ring.preference(key):
            if shard == part.shard:
                continue
            if not self._breakers[shard].allow():
                continue
            moved = _Part(shard, self.config.url_of(shard))
            moved.indices = part.indices
            moved.checks = part.checks
            moved.error = None
            return moved
        return None

    # -- aggregation -----------------------------------------------------
    def _known(self, job_id: str) -> _RoutedJob:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServeError(404, {"error": "no such job"})
        return job

    def get(self, job_id: str) -> dict:
        """The aggregate job document (``404`` as ServeError)."""
        job = self._known(job_id)
        self._refresh(job)
        document = self._document(job)
        if document["state"] in TERMINAL_STATES:
            self._retire(job)
        return document

    def _retire(self, job: _RoutedJob) -> None:
        """Count a job seen terminal and shed the oldest such jobs past
        :data:`~repro.serve.jobs.FINISHED_JOBS_KEPT`.  The router learns
        a job's state only from a poll (a client's, or
        :meth:`_shed_unpolled`'s), so a job never seen terminal is never
        shed."""
        with self._lock:
            if job.retired:
                return
            job.retired = True
            self._finished.append(job.id)
            while len(self._finished) > FINISHED_JOBS_KEPT:
                del self._jobs[self._finished.popleft()]

    job_document = get

    def _refresh(self, *jobs: _RoutedJob) -> None:
        """Poll every slice of ``jobs`` whose outcome has not landed, in
        one fan-out.

        That is every non-terminal slice, and every ``done`` one still
        without reports: a shard that replays a whole slice from its
        store answers the submit with a 202 that already says ``done``
        but carries no reports.
        """
        live = [
            p
            for job in jobs
            for p in job.parts
            if p.job_id is not None
            and (
                p.state not in TERMINAL_STATES
                or (p.state == "done" and p.reports is None)
            )
        ]
        if not live:
            return
        with TIMER.span("router.poll") as span:
            responses = self._fan(f"{p.url}/v1/jobs/{p.job_id}" for p in live)
        self.metrics.observe("router.poll_seconds", span.duration)
        for part, response in zip(live, responses):
            doc = response.json() if response.ok else None
            if doc is None:
                part.poll_failures += 1
                self.metrics.add("router.poll_errors")
                if response.error is not None:
                    self._breakers[part.shard].record_failure()
                if part.poll_failures >= POLL_FAILURE_LIMIT:
                    part.state = "failed"
                    part.error = (
                        f"shard {part.shard} unreachable: "
                        f"{response.error or response.status}"
                    )
                continue
            part.poll_failures = 0
            self._breakers[part.shard].record_success()
            part.state = str(doc.get("state", part.state))
            part.error = doc.get("error")
            reports = doc.get("reports")
            if isinstance(reports, list):
                part.reports = reports

    def _document(self, job: _RoutedJob) -> dict:
        states = {part.state for part in job.parts}
        state = "done"
        for candidate in _STATE_PRECEDENCE:
            if candidate in states:
                state = candidate
                break
        reports: list[dict] | None = None
        if state == "done":
            ordered: list[dict | None] = [None] * job.checks
            complete = True
            for part in job.parts:
                if part.reports is None or len(part.reports) != len(
                    part.indices
                ):
                    complete = False
                    break
                for position, index in enumerate(part.indices):
                    ordered[index] = part.reports[position]
            if complete and all(r is not None for r in ordered):
                reports = [r for r in ordered if r is not None]
            else:
                state = "running"  # reports still landing
        errors = [
            f"{part.shard}: {part.error}" for part in job.parts if part.error
        ]
        return {
            "id": job.id,
            "state": state,
            "checks": job.checks,
            "created": job.created,
            "trace_id": job.trace_id,
            "error": "; ".join(errors) or None,
            "reports": reports,
            "shards": [part.describe() for part in job.parts],
        }

    def cancel_job(self, job_id: str) -> dict:
        """Fan ``DELETE`` to every slice; per-shard outcomes returned
        (``409`` as :class:`~repro.serve.jobs.ServeError` unless every
        slice cancelled)."""
        job = self._known(job_id)
        live = [p for p in job.parts if p.job_id is not None]
        responses = self._fan(
            (f"{p.url}/v1/jobs/{p.job_id}" for p in live), method="DELETE"
        )
        cancelled = 0
        for part, response in zip(live, responses):
            doc = response.json() if response.ok else None
            if doc is not None and doc.get("state") == "cancelled":
                part.state = "cancelled"
                cancelled += 1
        result = {
            "id": job.id,
            "state": "cancelled" if cancelled == len(live) else "mixed",
            "cancelled": cancelled,
            "shards": [part.describe() for part in job.parts],
        }
        if result["state"] != "cancelled":
            raise ServeError(409, {**result, "error": "not fully cancellable"})
        self._retire(job)
        return result

    # -- distributed traces ----------------------------------------------
    def job_trace(self, job_id: str) -> dict:
        """Stitch every shard's span tree into one router-rooted trace.

        Fetches ``/v1/jobs/<sub-id>/trace`` from each accepted slice
        and grafts the returned records under a synthetic ``router.job``
        root span — each shard's spans rebased onto this process's
        clock via the payload's ``wall_origin``, stamped with a
        ``shard`` attribute, and carrying the router-minted
        ``trace_id``.  Raises :class:`~repro.serve.jobs.ServeError`:
        404 for unknown jobs (or when no shard produced spans), 409
        while the job is still running.
        """
        job = self._known(job_id)
        document = self.get(job_id)
        if document["state"] not in TERMINAL_STATES:
            raise ServeError(
                409,
                {
                    "id": job.id,
                    "state": document["state"],
                    "error": "trace is available once the job is terminal",
                },
            )
        parts = [p for p in job.parts if p.job_id is not None]
        responses = self._fan(
            f"{p.url}/v1/jobs/{p.job_id}/trace" for p in parts
        )
        tracer = Tracer(enabled=True)
        shards: dict[str, str] = {}
        grafted = 0
        with tracer.span(
            "router.job",
            category="router",
            trace_id=job.trace_id,
            job_id=job.id,
            checks=job.checks,
            shards=len(parts),
        ) as root:
            for part, response in zip(parts, responses):
                payload = response.json() if response.ok else None
                spans = (
                    payload.get("spans") if payload is not None else None
                )
                if response.status != 200 or not isinstance(spans, list):
                    shards[part.shard] = (
                        response.error
                        or (payload or {}).get("error")
                        or f"HTTP {response.status}"
                    )
                    continue
                graft_records(
                    tracer,
                    spans,
                    wall_origin=float(payload.get("wall_origin") or 0.0),
                    trace_id=job.trace_id,
                    attrs={"shard": part.shard},
                )
                shards[part.shard] = "ok"
                grafted += 1
        if not grafted:
            self.metrics.add("router.trace_failures")
            raise ServeError(
                404,
                {
                    "id": job.id,
                    "trace_id": job.trace_id,
                    "error": "no shard produced a trace",
                    "shards": shards,
                },
            )
        # the synthetic root opened "now", but the grafted spans happened
        # in the past — stretch the root to cover its children so every
        # exported offset is non-negative and the root spans the whole
        # cluster job window
        children = [s for s in root.walk() if s is not root]
        root.start = min([root.start] + [c.start for c in children])
        root.end = max(
            [root.end] + [c.end if c.end is not None else c.start
                          for c in children]
        )
        self.metrics.add("router.traces_stitched")
        return {
            "id": job.id,
            "trace_id": job.trace_id,
            "spans": to_jsonl_records(tracer),
            "wall_origin": tracer.epoch_wall
            + (tracer.start_time - tracer.epoch_perf),
            "shards": shards,
        }

    # -- metrics federation ----------------------------------------------
    def scrape_members(self) -> "Federation":
        """Fetch every member's ``GET /v1/metrics`` registry and
        :func:`federate` them — a scrape never raises."""
        responses = self._fan(f"{url}/v1/metrics" for url in self.config.urls)
        documents: dict[str, dict | None] = {}
        errors: dict[str, str] = {}
        for shard, response in zip(self.config.shard_ids, responses):
            documents[shard] = (
                response.json() if response.status == 200 else None
            )
            if documents[shard] is None:
                errors[shard] = response.error or f"HTTP {response.status}"
        federation = federate(documents, errors)
        self.metrics.add("router.metric_scrapes")
        if federation.errors:
            self.metrics.add(
                "router.metric_scrape_errors", len(federation.errors)
            )
        return federation

    def cluster_metrics(self) -> dict:
        """The JSON twin of the federated ``/metrics`` document."""
        federation = self.scrape_members()
        members = federation.members
        return {
            "role": "router",
            "members": list(self.config.shard_ids),
            "scraped": federation.scraped,
            "errors": federation.errors,
            "aggregates": prometheus_samples(
                federation.aggregate, "repro_cluster"
            ),
            "shards": {
                shard: prometheus_samples(members[shard])
                if shard in members
                else {}
                for shard in self.config.shard_ids
            },
        }

    def cluster_status(self, metrics: bool = True) -> dict:
        """Everything ``repro cluster status`` renders, in one document.

        Per member: reachability, serving status, queue depth, running
        jobs, store hit rate, stalled obligations, the router-side
        breaker state, the member's *own* view of its peers' breakers,
        and its exact share of the ring keyspace.  With ``metrics=True``
        a federation scrape adds cluster-wide totals.
        """
        responses = self._fan(f"{url}/healthz" for url in self.config.urls)
        shares = self.config.ring.shares()
        members: dict[str, dict] = {}
        for shard, response in zip(self.config.shard_ids, responses):
            doc = response.json() if response.ok else None
            entry: dict = {
                "reachable": doc is not None,
                "status": (doc or {}).get(
                    "status", response.error or "unreachable"
                ),
                "breaker": self._breakers[shard].state,
                "ring_share": round(shares.get(shard, 0.0), 4),
            }
            if doc is not None:
                store = doc.get("store") or {}
                cluster = doc.get("cluster") or {}
                peer_states = {
                    peer: (info or {}).get("state", "?")
                    for peer, info in (cluster.get("peers") or {}).items()
                }
                entry.update(
                    {
                        "version": doc.get("version"),
                        "uptime_seconds": doc.get("uptime_seconds"),
                        "queued": doc.get("queued", 0),
                        "running": doc.get("running", 0),
                        "jobs_total": doc.get("jobs_total", 0),
                        "hit_rate": store.get("hit_rate"),
                        "stalled_obligations": doc.get(
                            "stalled_obligations", 0
                        ),
                        "peer_breakers": peer_states,
                        "open_breakers": sum(
                            1
                            for state in peer_states.values()
                            if state != "closed"
                        ),
                    }
                )
            members[shard] = entry
        document = {
            "role": "router",
            "ring": {
                "members": list(self.config.shard_ids),
                "vnodes": self.config.vnodes,
            },
            "members": members,
        }
        if metrics:
            federation = self.scrape_members()
            document["scrape_errors"] = federation.errors
            totals: dict[str, float] = {}
            for name in (
                "serve_jobs_submitted",
                "serve_jobs_completed",
                "serve_checks_submitted",
                "store_hits",
                "store_misses",
                "stalled_obligations",
            ):
                value = federation.value(f"repro_cluster_{name}")
                if value is not None:
                    totals[name] = value
            document["totals"] = totals
        return document

    # -- progress streaming ----------------------------------------------
    def job_events(self, job_id: str):
        """The job's merged progress bus (starting the mux on first
        use) and a current-state callable."""
        job = self._known(job_id)
        with self._lock:
            if job.stream is None:
                job.stream = _JobStream(job, self.timeout)
        return job.stream.bus, lambda: self.get(job_id)["state"]

    # -- health ----------------------------------------------------------
    def stats(self) -> dict:
        """The router's ``/healthz`` document: :meth:`cluster_status`'s
        member probes (no metrics scrape) plus the router's identity."""
        from repro import __version__

        status = self.cluster_status(metrics=False)
        with self._lock:
            jobs_total = len(self._jobs)
        return {
            "status": "ok",
            "role": "router",
            "version": __version__,
            "uptime_seconds": round(time.time() - self.started_wall, 3),
            "jobs_total": jobs_total,
            "ring": status["ring"],
            "shards": status["members"],
        }

    def registry(self) -> MetricsRegistry:
        """The router's own counters (``GET /v1/metrics``)."""
        return self.metrics

    def metrics_text(self) -> str:
        """Router counters and the federated document, rendered as one."""
        return self.scrape_members().render(self.metrics)

    # -- lifecycle (serve_forever compatibility) -------------------------
    def drain(self, timeout: float | None = None) -> bool:
        """Routers hold no queue; draining just stops intake."""
        self.draining = True
        return True


def federate(
    documents: dict[str, dict | None], errors: dict[str, str] | None = None
) -> "Federation":
    """Fold members' ``GET /v1/metrics`` documents (``None`` for a
    failed scrape, ``errors`` saying why) into one :class:`Federation`.

    A failed scrape, a document that is not a registry, or a histogram
    whose bounds disagree with earlier members' (that family only stays
    out) lands in ``errors``; nothing raises.
    """
    federation = Federation(MetricsRegistry(), {}, {}, dict(errors or {}))
    for shard, doc in documents.items():
        if doc is None:
            federation.errors.setdefault(shard, "scrape failed")
            continue
        try:
            member = MetricsRegistry.from_dict(doc)
            scoped = MetricsRegistry.from_dict(_cluster_scoped(doc))
            identity = dict(doc.get("build_info") or {})
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            federation.errors[shard] = f"bad metrics document: {exc!r}"
            continue
        conflicts: list[str] = []
        federation.aggregate.merge(scoped, conflicts)
        if conflicts:
            federation.errors[shard] = (
                f"histogram {conflicts[0]} bucket bounds disagree with "
                f"the other members"
            )
        federation.members[shard] = member
        federation.identities[shard] = identity
    federation.aggregate.add("members", len(documents))
    federation.aggregate.add("scraped", federation.scraped)
    federation.aggregate.add("scrape_errors", len(federation.errors))
    return federation


def _cluster_scoped(doc: dict) -> dict:
    """A member's ``/v1/metrics`` document named for the aggregate: its
    ``cluster.*`` series are cluster-scoped already, so they render as
    ``repro_cluster_*`` rather than ``repro_cluster_cluster_*``."""
    return {
        key: {
            name.removeprefix("cluster."): value
            for name, value in doc[key].items()
        }
        for key in ("values", "histograms")
    }


@dataclass
class Federation:
    """The cluster-wide fold of every member's registry.

    ``aggregate`` (rendered ``repro_cluster_*``) sums counters and
    histogram buckets and maxes peaks, plus the ``members``/``scraped``/
    ``scrape_errors`` gauges.  ``members`` and ``identities`` keep each
    member's registry and build-info labels, re-served with a ``shard``
    label; ``errors`` maps shard id → what went wrong.
    """

    aggregate: MetricsRegistry
    members: dict[str, MetricsRegistry]
    identities: dict[str, dict]
    errors: dict[str, str]

    @property
    def scraped(self) -> int:
        return len(self.members)

    def render(self, *own: MetricsRegistry) -> str:
        """Prometheus text, one ``# TYPE`` line per family; ``own``
        registries render unlabelled next to the member series."""
        shards = sorted(self.members)
        return to_prometheus_text(
            self.aggregate,
            prefix="repro_cluster",
            labelled=[
                *(("repro", {}, registry) for registry in own),
                *(
                    ("repro", {"shard": shard}, self.members[shard])
                    for shard in shards
                ),
            ],
        ) + build_info_text(
            *({**self.identities[shard], "shard": shard} for shard in shards)
        )

    def value(self, name: str, shard: str | None = None) -> float | None:
        """One unlabelled sample by rendered name: an aggregate, or one
        shard's own series."""
        if shard is None:
            samples = prometheus_samples(self.aggregate, "repro_cluster")
        elif shard in self.members:
            samples = prometheus_samples(self.members[shard])
        else:
            return None
        return samples.get(name)


class _JobStream:
    """The router-side merge of every shard's SSE stream for one job.

    One daemon consumer per accepted slice runs
    :meth:`~repro.serve.client.ServeClient.iter_events` against the
    owner shard and republishes each event on a single
    :class:`~repro.obs.progress.ProgressBus`.  The merged bus stamps
    its own ``seq``/``ts`` (giving subscribers one total order and
    ``Last-Event-ID`` resume across all shards); each event's
    shard-local stamps are preserved as ``shard_seq``/``shard_ts`` and
    a ``shard`` tag attributes its origin.  Reconnect attempts surface
    as ``shard.stream_degraded`` events, a stream that gives up becomes
    ``shard.stream_failed``, and the bus closes once every shard stream
    has ended — late subscribers still replay the retained history.
    """

    def __init__(self, job: _RoutedJob, timeout: float):
        self.bus = ProgressBus(maxlen=8192)
        parts = [p for p in job.parts if p.job_id is not None]
        self._remaining = len(parts)
        self._lock = threading.Lock()
        self.bus.publish(
            {
                "kind": "job.routed",
                "job_id": job.id,
                "trace_id": job.trace_id,
                "shards": [p.shard for p in parts],
            }
        )
        if not parts:
            self.bus.close()
            return
        for part in parts:
            threading.Thread(
                target=self._consume,
                # the socket timeout must outlast the shard's 15 s SSE
                # keep-alive interval or idle streams read as drops
                args=(part, max(timeout, 30.0)),
                name=f"repro-router-sse-{part.shard}",
                daemon=True,
            ).start()

    def _consume(self, part: _Part, timeout: float) -> None:
        client = ServeClient(part.url, timeout=timeout, retries=0)

        def degraded(info: dict) -> None:
            self.bus.publish(
                {
                    "kind": "shard.stream_degraded",
                    "shard": part.shard,
                    "attempt": info.get("attempt"),
                    "delay": info.get("delay"),
                    "error": info.get("error"),
                }
            )

        try:
            assert part.job_id is not None
            for event in client.iter_events(
                part.job_id, on_reconnect=degraded
            ):
                event = dict(event)
                # the merged bus stamps its own seq/ts, and publish()
                # lets event keys override the stamp — re-scope the
                # shard-local ones first
                if "seq" in event:
                    event["shard_seq"] = event.pop("seq")
                if "ts" in event:
                    event["shard_ts"] = event.pop("ts")
                event.setdefault("shard", part.shard)
                self.bus.publish(event)
        except ServeClientError as exc:
            self.bus.publish(
                {
                    "kind": "shard.stream_failed",
                    "shard": part.shard,
                    "error": str(exc),
                }
            )
        finally:
            with self._lock:
                self._remaining -= 1
                last = self._remaining <= 0
            if last:
                self.bus.close()


def create_router(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    config: RingConfig,
    manager: RouterManager | None = None,
    **manager_kwargs,
) -> ReproServer:
    """A ready-to-run router (``port=0`` binds an ephemeral port).

    Run it with :func:`repro.serve.http.serve_forever` — the router's
    ``drain`` is trivial (no local queue) so the same SIGTERM handling
    applies.
    """
    if manager is None:
        manager = RouterManager(config, **manager_kwargs)
    routes = {
        "/v1/cluster/metrics": manager.cluster_metrics,
        "/v1/cluster/status": manager.cluster_status,
    }
    return ReproServer((host, port), manager, routes)
