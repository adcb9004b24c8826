"""The cluster front end: one ``/v1/check`` door over N shards.

A :class:`RouterManager` accepts the service's existing batch API,
splits each submission into per-shard sub-jobs — every check routed to
the owner of its :func:`~repro.cluster.ring.request_fingerprint` — and
submits them concurrently through the bounded selector fan-out of
:mod:`repro.cluster.fanout` (one thread, ``max_parallel`` sockets; a
slow shard never pins a thread).  ``GET /v1/jobs/<id>`` fans the poll
back out and folds the shard documents into one aggregate: reports in
the caller's original check order, worst shard state wins, a ``shards``
block attributing each slice.

Shard failures degrade, they don't fail: a shard whose submission is
refused (or whose circuit breaker is open) has its checks *failed over*
to the next member in ring preference order, and a shard that stops
answering polls eventually fails only its own slice.  ``/healthz``
(role ``router``) probes every member; ``/metrics`` renders routing
counters and per-shard submit latency histograms.

The router is also the cluster's observability plane:

* it mints the authoritative ``trace_id`` for every submission and
  propagates it to each shard via the ``X-Repro-Trace-Id`` header, so
  ``GET /v1/jobs/<id>/trace`` can fetch each shard's span tree and
  graft them — rebased onto one clock, tagged with a ``shard``
  attribute — under a single synthetic ``router.job`` root span;
* ``GET /metrics`` appends the *federated* cluster document (scrape
  every member, sum counters and histogram buckets, max peaks) to the
  router's own counters, with ``GET /v1/cluster/metrics`` as its JSON
  twin;
* ``GET /v1/jobs/<id>/events`` multiplexes every owner shard's SSE
  stream into one ordered, shard-tagged stream with ``Last-Event-ID``
  resume.

``repro cluster router --ring ...`` runs one of these; any
:class:`~repro.serve.client.ServeClient` pointed at it sees a normal
(if larger) checking service.
"""

from __future__ import annotations

import json
import re
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.cluster.fanout import FanoutRequest, FanoutResponse, fanout
from repro.cluster.peers import CircuitBreaker, peer_metric_name
from repro.cluster.ring import RingConfig, request_fingerprint
from repro.obs.export import to_jsonl_records, to_prometheus_text
from repro.obs.merge import graft_records
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressBus
from repro.obs.promtext import Federation, federate_scrapes
from repro.obs.tracer import TraceContext, Tracer
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.http import serve_progress_stream
from repro.serve.jobs import JobRequest, TERMINAL_STATES

__all__ = ["RouterManager", "RouterServer", "create_router"]

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

_JOB_ID_RE = re.compile(r"^[0-9a-f]{8,32}$")


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

    ``trace_id`` is minted here, at the edge — the router is the
    authority for the whole cluster trace, and every shard sub-job is
    submitted with it in ``X-Repro-Trace-Id``, so a slice that fails
    over to another member keeps the same trace identity.  ``stream``
    is the lazily-built SSE multiplexer for ``/v1/jobs/<id>/events``.
    """

    __slots__ = ("id", "created", "checks", "parts", "timeout",
                 "trace_id", "stream")

    def __init__(self, checks: int, timeout: float | None):
        self.id = uuid.uuid4().hex[:12]
        self.created = time.time()
        self.checks = checks
        self.parts: list[_Part] = []
        self.timeout = timeout
        self.trace_id = TraceContext.mint().trace_id
        self.stream: "_JobStream | None" = None


class RouterManager:
    """Routing state + shard health for one router process."""

    def __init__(
        self,
        config: RingConfig,
        metrics: MetricsRegistry | None = None,
        timeout: float = 10.0,
        max_parallel: int = 16,
        failure_threshold: int = 3,
        reset_seconds: float = 10.0,
        clock=time.monotonic,
    ):
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.timeout = timeout
        self.max_parallel = max_parallel
        self.started_wall = time.time()
        self.draining = False
        self._jobs: dict[str, _RoutedJob] = {}
        self._lock = threading.Lock()
        self._breakers = {
            shard: CircuitBreaker(
                failure_threshold=failure_threshold,
                reset_seconds=reset_seconds,
                clock=clock,
            )
            for shard in config.shard_ids
        }

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

    def submit(self, checks: list[dict], timeout: float | None) -> _RoutedJob:
        """Split a batch, fan the sub-jobs out, record the routed job.

        Raises ``ValueError`` when *no* shard accepted its slice — a
        partial acceptance is not an error (the unreachable shard's
        slice is retried once on the next preference member, then
        surfaces as a failed slice in the aggregate document).
        """
        job = _RoutedJob(len(checks), timeout)
        parts = self._route(checks)
        self._submit_parts(job, list(parts.values()), failover=True)
        accepted = [p for p in job.parts if p.job_id is not None]
        if not accepted:
            errors = "; ".join(
                f"{p.shard}: {p.error}" for p in job.parts if p.error
            )
            raise ValueError(f"no shard accepted the batch ({errors})")
        self.metrics.add("router.jobs_submitted")
        self.metrics.add("router.checks_routed", len(checks))
        with self._lock:
            self._jobs[job.id] = job
        return job

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
        started = time.perf_counter()
        responses = fanout(requests, max_parallel=self.max_parallel)
        self.metrics.observe(
            "router.submit_seconds", time.perf_counter() - started
        )
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
    def get(self, job_id: str) -> dict | None:
        """The aggregate job document, or ``None`` for unknown ids."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            return None
        self._refresh(job)
        return self._document(job)

    def _refresh(self, job: _RoutedJob) -> None:
        """Poll every slice whose outcome has not landed, concurrently.

        That is every non-terminal slice, and every ``done`` one still
        without reports: a shard that replays a whole slice from its
        store answers the submit with a 202 that already says ``done``
        but carries no reports.
        """
        live = [
            p
            for p in job.parts
            if p.job_id is not None
            and (
                p.state not in TERMINAL_STATES
                or (p.state == "done" and p.reports is None)
            )
        ]
        if not live:
            return
        started = time.perf_counter()
        responses = fanout(
            [
                FanoutRequest(
                    url=f"{p.url}/v1/jobs/{p.job_id}",
                    timeout=self.timeout,
                )
                for p in live
            ],
            max_parallel=self.max_parallel,
        )
        self.metrics.observe(
            "router.poll_seconds", time.perf_counter() - started
        )
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

    def cancel(self, job_id: str) -> dict | None:
        """Fan ``DELETE`` to every slice; per-shard outcomes returned."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            return None
        live = [p for p in job.parts if p.job_id is not None]
        responses = fanout(
            [
                FanoutRequest(
                    url=f"{p.url}/v1/jobs/{p.job_id}",
                    method="DELETE",
                    timeout=self.timeout,
                )
                for p in live
            ],
            max_parallel=self.max_parallel,
        )
        cancelled = 0
        for part, response in zip(live, responses):
            doc = response.json() if response.ok else None
            if doc is not None and doc.get("state") == "cancelled":
                part.state = "cancelled"
                cancelled += 1
        return {
            "id": job.id,
            "state": "cancelled" if cancelled == len(live) else "mixed",
            "cancelled": cancelled,
            "shards": [part.describe() for part in job.parts],
        }

    # -- distributed traces ----------------------------------------------
    def trace(self, job_id: str) -> tuple[int, dict]:
        """Stitch every shard's span tree into one router-rooted trace.

        Fetches ``/v1/jobs/<sub-id>/trace`` from each accepted slice
        and grafts the returned records under a synthetic ``router.job``
        root span — each shard's spans rebased onto this process's
        clock via the payload's ``wall_origin``, stamped with a
        ``shard`` attribute, and carrying the router-minted
        ``trace_id``.  Returns ``(http_status, payload)``: 404 for
        unknown jobs (or when no shard produced spans), 409 while the
        job is still running, 200 with the stitched tree otherwise.
        """
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            return 404, {"error": "no such job"}
        document = self.get(job_id)
        assert document is not None
        if document["state"] not in TERMINAL_STATES:
            return 409, {
                "id": job.id,
                "state": document["state"],
                "error": "trace is available once the job is terminal",
            }
        parts = [p for p in job.parts if p.job_id is not None]
        responses = fanout(
            [
                FanoutRequest(
                    url=f"{p.url}/v1/jobs/{p.job_id}/trace",
                    timeout=self.timeout,
                )
                for p in parts
            ],
            max_parallel=self.max_parallel,
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
            return 404, {
                "id": job.id,
                "trace_id": job.trace_id,
                "error": "no shard produced a trace",
                "shards": shards,
            }
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
        return 200, {
            "id": job.id,
            "trace_id": job.trace_id,
            "spans": to_jsonl_records(tracer),
            "wall_origin": tracer.epoch_wall
            + (tracer.start_time - tracer.epoch_perf),
            "shards": shards,
        }

    # -- metrics federation ----------------------------------------------
    def scrape_members(self) -> Federation:
        """Scrape every member's ``/metrics`` and fold them into one.

        Counters and histogram buckets sum across shards, peak gauges
        take the max, and every member's own series re-appear labelled
        ``{shard="host:port"}``.  Unreachable members surface in the
        federation's ``errors`` (and as the rendered
        ``repro_cluster_scrape_errors`` gauge) — a scrape never raises.
        """
        responses = fanout(
            [
                FanoutRequest(
                    url=f"{url}/metrics",
                    timeout=self.timeout,
                    headers={"Accept": "text/plain"},
                )
                for url in self.config.urls
            ],
            max_parallel=self.max_parallel,
        )
        scrapes: dict[str, str | None] = {}
        errors: dict[str, str] = {}
        for shard, response in zip(self.config.shard_ids, responses):
            if response.ok and response.status == 200:
                scrapes[shard] = response.text
            else:
                scrapes[shard] = None
                errors[shard] = response.error or f"HTTP {response.status}"
        self.metrics.add("router.metric_scrapes")
        federation = federate_scrapes(scrapes, errors=errors)
        if federation.errors:
            self.metrics.add(
                "router.metric_scrape_errors", len(federation.errors)
            )
        return federation

    def cluster_metrics(self) -> dict:
        """The JSON twin of the federated ``/metrics`` document."""
        federation = self.scrape_members()
        aggregates: dict[str, float] = {}
        shards: dict[str, dict[str, float]] = {
            shard: {} for shard in self.config.shard_ids
        }
        for family in federation.families:
            for sample in family.samples:
                shard = sample.label("shard")
                if shard is None and not sample.labels:
                    aggregates[sample.name] = sample.value
                elif shard is not None and len(sample.labels) == 1:
                    shards.setdefault(shard, {})[sample.name] = sample.value
        return {
            "role": "router",
            "members": list(self.config.shard_ids),
            "scraped": federation.scraped,
            "errors": federation.errors,
            "aggregates": aggregates,
            "shards": shards,
        }

    def cluster_status(self, metrics: bool = True) -> dict:
        """Everything ``repro cluster status`` renders, in one document.

        Per member: reachability, serving status, queue depth, running
        jobs, store hit rate, stalled obligations, the router-side
        breaker state, the member's *own* view of its peers' breakers,
        and its exact share of the ring keyspace.  With ``metrics=True``
        a federation scrape adds cluster-wide totals.
        """
        responses = fanout(
            [
                FanoutRequest(url=f"{url}/healthz", timeout=self.timeout)
                for url in self.config.urls
            ],
            max_parallel=self.max_parallel,
        )
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
    def events_bus(self, job_id: str) -> ProgressBus | None:
        """The job's merged progress bus, starting the mux on first use."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.stream is None:
                job.stream = _JobStream(job, self.timeout)
            return job.stream.bus

    # -- health ----------------------------------------------------------
    def healthz(self) -> dict:
        """Probe every member; the router's ``/healthz`` document."""
        from repro import __version__

        responses = fanout(
            [
                FanoutRequest(url=f"{url}/healthz", timeout=self.timeout)
                for url in self.config.urls
            ],
            max_parallel=self.max_parallel,
        )
        shards = {}
        for shard, response in zip(self.config.shard_ids, responses):
            doc = response.json() if response.ok else None
            shards[shard] = {
                "reachable": doc is not None,
                "status": (doc or {}).get(
                    "status", response.error or "unreachable"
                ),
                "breaker": self._breakers[shard].state,
            }
        with self._lock:
            jobs_total = len(self._jobs)
        return {
            "status": "ok",
            "role": "router",
            "version": __version__,
            "uptime_seconds": round(time.time() - self.started_wall, 3),
            "jobs_total": jobs_total,
            "ring": {
                "members": list(self.config.shard_ids),
                "vnodes": self.config.vnodes,
            },
            "shards": shards,
        }

    def metrics_text(self) -> str:
        """Router counters followed by the federated cluster document.

        The router's own series use ``router.*`` names while the
        federation emits ``repro_cluster_*`` aggregates and
        ``{shard=...}``-labelled member series, so the two sections
        never collide in one scrape.
        """
        return to_prometheus_text(self.metrics) + self.scrape_members().render()

    # -- lifecycle (serve_forever compatibility) -------------------------
    def drain(self, timeout: float | None = None) -> bool:
        """Routers hold no queue; draining just stops intake."""
        self.draining = True
        return True


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


class RouterServer(ThreadingHTTPServer):
    """HTTP shell around a :class:`RouterManager`."""

    daemon_threads = True

    def __init__(self, address, handler_class, manager: RouterManager):
        super().__init__(address, handler_class)
        self.manager = manager

    @property
    def port(self) -> int:
        return self.server_address[1]


class _RouterHandler(BaseHTTPRequestHandler):
    server: RouterServer
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _send_json(
        self, status: int, payload: dict, headers: dict | None = None
    ) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        manager = self.server.manager
        parsed = urlsplit(self.path)
        path = parsed.path
        query = parse_qs(parsed.query)
        if path == "/healthz":
            doc = manager.healthz()
            if manager.draining:
                doc["status"] = "draining"
            self._send_json(200 if not manager.draining else 503, doc)
        elif path == "/metrics":
            body = manager.metrics_text().encode()
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif path == "/v1/cluster/metrics":
            self._send_json(200, manager.cluster_metrics())
        elif path == "/v1/cluster/status":
            self._send_json(200, manager.cluster_status())
        elif path.startswith("/v1/jobs/") and path.endswith("/trace"):
            job_id = path[len("/v1/jobs/") : -len("/trace")]
            if not _JOB_ID_RE.fullmatch(job_id):
                self._send_json(404, {"error": "no such job"})
                return
            status, payload = manager.trace(job_id)
            self._send_json(status, payload)
        elif path.startswith("/v1/jobs/") and path.endswith("/events"):
            job_id = path[len("/v1/jobs/") : -len("/events")]
            if not _JOB_ID_RE.fullmatch(job_id):
                self._send_json(404, {"error": "no such job"})
                return
            bus = manager.events_bus(job_id)
            if bus is None:
                self._send_json(404, {"error": "no such job"})
                return
            serve_progress_stream(
                self,
                bus,
                query,
                doc_id=job_id,
                state_of=lambda: (manager.get(job_id) or {}).get(
                    "state", "?"
                ),
            )
        elif path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/") :]
            if not _JOB_ID_RE.fullmatch(job_id):
                self._send_json(404, {"error": "no such job"})
                return
            doc = manager.get(job_id)
            if doc is None:
                self._send_json(404, {"error": "no such job"})
            else:
                self._send_json(200, doc)
        else:
            self._send_json(404, {"error": f"no route {path}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        manager = self.server.manager
        if self.path != "/v1/check":
            self._send_json(404, {"error": f"no route {self.path}"})
            return
        if manager.draining:
            self._send_json(
                503,
                {"error": "router is draining; not accepting jobs"},
                headers={"Retry-After": "1"},
            )
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > 4 * 1024 * 1024:
            self._send_json(400, {"error": "bad or oversized body"})
            return
        body = self.rfile.read(length)
        try:
            data = json.loads(body or b"{}")
            if not isinstance(data, dict):
                raise ValueError("payload must be a JSON object")
            if "checks" in data:
                raw = data["checks"]
                if not isinstance(raw, list):
                    raise ValueError("'checks' must be a list")
                checks = [dict(entry) for entry in raw]
            else:
                checks = [
                    {
                        k: v
                        for k, v in data.items()
                        if k in ("source", "engine", "reflexive", "label")
                    }
                ]
            for check in checks:  # validate at the edge: 400 here, not
                JobRequest.from_dict(check)  # a failed shard sub-job
            timeout = data.get("timeout")
            if timeout is not None:
                timeout = float(timeout)
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            self._send_json(400, {"error": str(exc)})
            return
        try:
            job = manager.submit(checks, timeout)
        except ValueError as exc:
            self._send_json(502, {"error": str(exc)})
            return
        self._send_json(
            202,
            {
                "id": job.id,
                "state": "queued",
                "checks": job.checks,
                "href": f"/v1/jobs/{job.id}",
                "trace_id": job.trace_id,
                "shards": [part.shard for part in job.parts],
            },
            headers={"X-Repro-Trace-Id": job.trace_id},
        )

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        if not self.path.startswith("/v1/jobs/"):
            self._send_json(404, {"error": f"no route {self.path}"})
            return
        result = self.server.manager.cancel(
            self.path[len("/v1/jobs/") :]
        )
        if result is None:
            self._send_json(404, {"error": "no such job"})
        elif result["state"] == "cancelled":
            self._send_json(200, result)
        else:
            self._send_json(409, {**result, "error": "not fully cancellable"})


def create_router(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    config: RingConfig,
    manager: RouterManager | None = None,
    **manager_kwargs,
) -> RouterServer:
    """A ready-to-run router (``port=0`` binds an ephemeral port).

    Run it with :func:`repro.serve.http.serve_forever` — the router's
    ``drain`` is trivial (no local queue) so the same SIGTERM handling
    applies.
    """
    if manager is None:
        manager = RouterManager(config, **manager_kwargs)
    return RouterServer((host, port), _RouterHandler, manager)
