"""The zero-dependency HTTP front end of the checking service.

Built on the stdlib :class:`~http.server.ThreadingHTTPServer` — no web
framework, no third-party dependency, same spirit as the rest of the
repo.  Endpoints:

==============================  ==============================================
``POST /v1/check``              Submit a job: ``{"source": "MODULE main
                                ..."}`` for a single check, or ``{"checks":
                                [{...}, ...]}`` for a batch.  Returns ``202``
                                with the job id and the freshly minted
                                ``trace_id`` (also sent as the
                                ``X-Repro-Trace-Id`` header), ``400`` on
                                malformed payloads, ``429`` when the bounded
                                queue is full, ``503`` while draining.
``GET /v1/jobs/<id>``           Job state, per-stage ``timings`` and the
                                report payloads once ``done``.
``GET /v1/jobs/<id>/trace``     The job's merged span trace (JSONL record
                                layout), including worker-process spans
                                grafted under the request — every span
                                carries the job's ``trace_id``.  ``409``
                                until the job is terminal; a job cancelled
                                while queued has no spans.
``GET /v1/jobs/<id>/events``    Live progress stream.  By default a
                                ``text/event-stream`` SSE response: one
                                frame per progress event (``id:`` is the
                                bus sequence number, ``event:`` the kind,
                                ``data:`` the JSON event), comment
                                keep-alives while idle, a final ``end``
                                frame when the job is terminal and the
                                stream drained.  Resume after a drop with
                                the ``Last-Event-ID`` header (or
                                ``?since=<seq>``).  ``?poll=<seconds>``
                                selects the long-poll fallback: one JSON
                                document with the events past ``since``
                                (blocking up to the given seconds) — for
                                clients that cannot hold a stream open.
``DELETE /v1/jobs/<id>``        Cancel — only jobs still queued (``409``
                                otherwise).
``GET /v1/store/<fp>``          This shard's *local* store record for a
                                SHA-256 fingerprint — the cluster peer
                                fetch endpoint (``404`` on miss, never
                                probing further peers).
``PUT /v1/store/<fp>``          Accept a replicated record
                                (``{"record": {...}, "kind": "..."}``)
                                — the cluster push-to-owner endpoint.
``GET /healthz``                Liveness: version, uptime, queue depth,
                                store hit rate, stalled-obligation count
                                and the progress/watchdog config (JSON).
``GET /metrics``                Prometheus text: job, scheduler and store
                                counters, request latency histograms, the
                                ``repro_stalled_obligations`` gauge and a
                                ``repro_build_info`` gauge carrying
                                version/python labels.
``GET /v1/metrics``             The same registry fold as JSON
                                (``MetricsRegistry.to_dict()`` plus the
                                ``build_info`` labels) — what the
                                cluster router federates.
==============================  ==============================================

Malformed ``POST`` bodies answer ``400`` (``413`` above
:data:`MAX_BODY_BYTES`) before any manager sees them.

:func:`create_server` wires a :class:`JobManager` to a
:class:`ReproServer`; :func:`serve_forever` adds the ``SIGTERM``/
``SIGINT`` handler that drains the queue before exiting, which is what
``repro serve`` runs.  The cluster router is the same server and
handler over a :class:`~repro.cluster.router.RouterManager`.
"""

from __future__ import annotations

import json
import re
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.obs.export import build_info
from repro.obs.tracer import TIMER, TraceContext
from repro.serve.jobs import (
    JobManager,
    JobRequest,
    QueueFullError,
    ServeError,
)
from repro.store.store import StoreRecord

__all__ = [
    "ReproServer",
    "create_server",
    "serve_forever",
    "serve_progress_stream",
]

#: Largest accepted request body (a megabyte of SMV is a big model).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Store fingerprints are SHA-256 hex — anything else is rejected before
#: it can reach the filesystem layer.
_FINGERPRINT_RE = re.compile(r"^[0-9a-f]{64}$")

#: Acceptable inbound ``X-Repro-Trace-Id`` values: lowercase hex, wide
#: enough for W3C-sized 32-char ids with slack either way.  Anything
#: else is ignored (a fresh id is minted) — a malformed header must
#: never fail a submission.
_TRACE_ID_RE = re.compile(r"^[0-9a-f]{16,64}$")


def _inbound_trace(header: str | None) -> TraceContext:
    """The request's trace identity: honor a well-formed inbound
    ``X-Repro-Trace-Id`` (the router mints one per routed job and fans
    it to every owner shard, so all shards' spans share it), mint a
    fresh one otherwise."""
    if header:
        candidate = header.strip().lower()
        if _TRACE_ID_RE.fullmatch(candidate):
            return TraceContext(trace_id=candidate)
    return TraceContext.mint()


class ReproServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` carrying the service's state:
    the ``manager`` behind the shared routes, and ``routes`` mapping
    extra ``GET`` paths to JSON-document callables."""

    daemon_threads = True

    def __init__(self, address, manager, routes: dict | None = None):
        super().__init__(address, _Handler)
        self.manager = manager
        self.routes = routes or {}

    @property
    def port(self) -> int:
        return self.server_address[1]


def _parse_checks(body: bytes) -> tuple[list[JobRequest], float | None]:
    """A ``POST /v1/check`` payload as validated requests + timeout.

    Raises ``ValueError``/``TypeError`` (answered ``400``) on anything
    malformed, so both roles reject bad checks at the edge.
    """
    data = json.loads(body or b"{}")
    if not isinstance(data, dict):
        raise ValueError("payload must be a JSON object")
    raw = data["checks"] if "checks" in data else [data]
    if not isinstance(raw, list):
        raise ValueError("'checks' must be a list")
    if not raw:
        raise ValueError("a job needs at least one check")
    timeout = data.get("timeout")
    return (
        [JobRequest.from_dict(entry) for entry in raw],
        None if timeout is None else float(timeout),
    )


class _Handler(BaseHTTPRequestHandler):
    server: ReproServer
    protocol_version = "HTTP/1.1"

    # -- plumbing --------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # quiet by default; metrics are the observability surface

    def _send_text(
        self,
        status: int,
        text: str,
        content_type: str,
        headers: dict | None = None,
    ) -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(
        self, status: int, payload: dict, headers: dict | None = None
    ) -> None:
        self._send_text(
            status, json.dumps(payload), "application/json", headers
        )

    def _read_body(self) -> bytes:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            raise ServeError(
                413 if length > MAX_BODY_BYTES else 400,
                {"error": "bad or oversized Content-Length"},
            )
        return self.rfile.read(length)

    def _answer(self, route) -> None:
        """Run one route; a :class:`ServeError` becomes its response."""
        try:
            route()
        except ServeError as exc:
            self._send_json(exc.status, exc.payload, exc.headers)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._answer(self._get)

    def do_PUT(self) -> None:  # noqa: N802 - stdlib naming
        self._answer(self._put)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._answer(self._post)

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        self._answer(self._delete)

    # -- routes ----------------------------------------------------------
    def _get(self) -> None:
        manager = self.server.manager
        parsed = urlsplit(self.path)
        path = parsed.path
        job_id, _, view = path.removeprefix("/v1/jobs/").partition("/")
        if path == "/healthz":
            stats = manager.stats()
            stats["status"] = "draining" if manager.draining else "ok"
            self._send_json(200 if not manager.draining else 503, stats)
        elif path == "/metrics":
            self._send_text(
                200, manager.metrics_text(), "text/plain; version=0.0.4"
            )
        elif path == "/v1/metrics":
            document = manager.registry().to_dict()
            self._send_json(200, {**document, "build_info": build_info()})
        elif path in self.server.routes:
            self._send_json(200, self.server.routes[path]())
        elif path.startswith("/v1/store/"):
            self._serve_store_get(path[len("/v1/store/") :])
        elif not path.startswith("/v1/jobs/"):
            raise ServeError(404, {"error": f"no route {path}"})
        elif view == "events":
            bus, state_of = manager.job_events(job_id)
            serve_progress_stream(
                self,
                bus,
                parse_qs(parsed.query),
                doc_id=job_id,
                state_of=state_of,
            )
        elif view == "trace":
            self._send_json(200, manager.job_trace(job_id))
        elif not view:
            self._send_json(200, manager.job_document(job_id))
        else:
            raise ServeError(404, {"error": f"no route {path}"})

    # -- peer store fetch -------------------------------------------------
    def _store(self, fingerprint: str):
        """The local store, once ``fingerprint`` is a SHA-256 hex."""
        if self.server.manager.store is None:
            raise ServeError(404, {"error": "no store on this server"})
        if not _FINGERPRINT_RE.fullmatch(fingerprint):
            raise ServeError(400, {"error": "bad fingerprint"})
        return self.server.manager.store

    def _serve_store_get(self, fingerprint: str) -> None:
        """``GET /v1/store/<fingerprint>``: this shard's local record.

        Strictly local (:meth:`~repro.store.store.ResultStore.peek_local`)
        so peer probes never cascade through the cluster, and counted
        separately (``serve.store_get*``) so served probes don't distort
        this instance's own hit-rate math.
        """
        store = self._store(fingerprint)
        metrics = self.server.manager.metrics
        metrics.add("serve.store_get")
        record = store.peek_local(fingerprint)
        if record is None:
            raise ServeError(404, {"error": "no such record"})
        metrics.add("serve.store_get_hits")
        self._send_json(
            200, {"fingerprint": fingerprint, "record": record.to_dict()}
        )

    def _put(self) -> None:
        """``PUT /v1/store/<fingerprint>``: accept a replicated record.

        The cluster's push-to-owner path: a shard that computed a record
        whose ring owner is *this* instance lands it here.  Stored via
        ``local_record`` — atomic write, size cap enforced, no write
        counters, and (on a peer-aware store) no re-push echo.
        """
        if not self.path.startswith("/v1/store/"):
            raise ServeError(404, {"error": f"no route {self.path}"})
        fingerprint = urlsplit(self.path).path[len("/v1/store/") :]
        store = self._store(fingerprint)
        body = self._read_body()
        try:
            data = json.loads(body or b"{}")
            if not isinstance(data, dict) or not isinstance(
                data.get("record"), dict
            ):
                raise ValueError("payload must be {'record': {...}}")
            record = StoreRecord.from_dict(data["record"])
        except (ValueError, TypeError, KeyError) as exc:
            raise ServeError(400, {"error": str(exc)}) from None
        kind = str(data.get("kind", "")) or None
        try:
            store.local_record(fingerprint, record, kind=kind)
        except OSError as exc:
            raise ServeError(
                500, {"error": f"store write failed: {exc}"}
            ) from None
        self.server.manager.metrics.add("serve.store_put")
        self._send_json(200, {"fingerprint": fingerprint, "stored": True})

    def _post(self) -> None:
        if self.path != "/v1/check":
            raise ServeError(404, {"error": f"no route {self.path}"})
        with TIMER.span("serve.accept") as accept:
            accepted = self._accept()
        self.server.manager.metrics.observe(
            "request.stage.accept_seconds", accept.duration
        )
        self._send_json(
            202, accepted, headers={"X-Repro-Trace-Id": accepted["trace_id"]}
        )

    def _accept(self) -> dict:
        """Parse the ``POST /v1/check`` body and submit it to the manager."""
        body = self._read_body()
        manager = self.server.manager
        try:
            requests, timeout = _parse_checks(body)
            # The trace identity lives at the edge — before the queue —
            # so a rejected submission still has an id to log against.
            # A router fronting this shard sends the authoritative id in
            # the X-Repro-Trace-Id header; standalone submissions mint.
            return manager.accept(
                requests,
                timeout=timeout,
                trace=_inbound_trace(self.headers.get("X-Repro-Trace-Id")),
            )
        except QueueFullError as exc:
            # Retry-After lets well-behaved clients (ServeClient) back
            # off instead of surfacing transient backpressure as failure.
            raise ServeError(
                503 if manager.draining else 429,
                {"error": str(exc)},
                headers={"Retry-After": "1"},
            ) from None
        except (ValueError, TypeError, KeyError) as exc:
            raise ServeError(400, {"error": str(exc)}) from None

    def _delete(self) -> None:
        if not self.path.startswith("/v1/jobs/"):
            raise ServeError(404, {"error": f"no route {self.path}"})
        job_id = self.path[len("/v1/jobs/") :]
        self._send_json(200, self.server.manager.cancel_job(job_id))


def serve_progress_stream(
    handler: BaseHTTPRequestHandler,
    bus,
    query: dict,
    *,
    doc_id: str,
    state_of,
) -> None:
    """Serve one :class:`~repro.obs.progress.ProgressBus` over HTTP.

    The SSE / long-poll loop behind ``GET /v1/jobs/<id>/events`` — one
    loop for a member's job bus and the router's merged, shard-tagged
    bus alike, so the two tiers speak byte-identical streams: ``id:``
    frames carry the bus sequence number, ``Last-Event-ID``/``?since=``
    resume from the retained window, ``?poll=<seconds>`` selects the
    JSON long-poll fallback, and a final ``end`` frame marks a cleanly
    finished stream.

    ``handler`` must be mid-``do_GET`` (headers not yet sent; a bad
    ``since``/``poll`` raises :class:`~repro.serve.jobs.ServeError`
    ``400``); ``state_of`` is called per long-poll response for the
    current job state string.
    """
    since = 0
    try:
        if "since" in query:
            since = int(query["since"][0])
        elif handler.headers.get("Last-Event-ID"):
            since = int(handler.headers["Last-Event-ID"])
    except (ValueError, IndexError):
        raise ServeError(400, {"error": "bad since / Last-Event-ID"}) from None
    if "poll" in query:
        try:
            poll = float(query["poll"][0] or 30.0)
        except ValueError:
            raise ServeError(400, {"error": "bad poll seconds"}) from None
        events = bus.wait(since, timeout=max(min(poll, 60.0), 0.0))
        handler._send_json(
            200,
            {
                "id": doc_id,
                "state": state_of(),
                "closed": bus.closed
                and not bus.events_since(
                    events[-1]["seq"] if events else since
                ),
                "events": events,
                "next": events[-1]["seq"] if events else since,
            },
        )
        return
    # SSE: chunk-less HTTP/1.1 stream — no Content-Length, so the
    # connection closes when the stream ends (clients resume via
    # Last-Event-ID).
    handler.close_connection = True
    handler.send_response(200)
    handler.send_header("Content-Type", "text/event-stream")
    handler.send_header("Cache-Control", "no-cache")
    handler.send_header("Connection", "close")
    handler.end_headers()
    try:
        while True:
            events = bus.wait(since, timeout=15.0)
            for event in events:
                since = event["seq"]
                frame = (
                    f"id: {event['seq']}\n"
                    f"event: {event.get('kind', 'message')}\n"
                    f"data: {json.dumps(event)}\n\n"
                )
                handler.wfile.write(frame.encode())
            if not events:
                if bus.closed:
                    break
                handler.wfile.write(b": keep-alive\n\n")  # hold NATs open
            handler.wfile.flush()
            if bus.closed and not bus.events_since(since):
                break
        handler.wfile.write(b"event: end\ndata: {}\n\n")
        handler.wfile.flush()
    except (BrokenPipeError, ConnectionResetError):
        pass  # client went away; it can resume with Last-Event-ID


def create_server(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    manager: JobManager | None = None,
    **manager_kwargs,
) -> ReproServer:
    """Build a ready-to-run server (``port=0`` binds an ephemeral port).

    Extra keyword arguments construct the :class:`JobManager` when one
    is not supplied.  The manager's runner thread is started; call
    ``server.serve_forever()`` (or :func:`serve_forever` for signal
    handling) to accept requests.
    """
    if manager is None:
        manager = JobManager(**manager_kwargs)
    manager.start()
    return ReproServer((host, port), manager)


def serve_forever(server: ReproServer, drain_timeout: float = 60.0) -> None:
    """Run until ``SIGTERM``/``SIGINT``, then drain the queue and exit.

    The signal handler hands shutdown to a helper thread:
    ``server.shutdown()`` deadlocks when called from the thread running
    ``serve_forever``, and draining inside a signal frame would block
    delivery of further signals.
    """

    def _shutdown(signum, frame):
        def worker():
            server.manager.drain(timeout=drain_timeout)
            server.shutdown()

        threading.Thread(target=worker, daemon=True).start()

    previous = {
        sig: signal.signal(sig, _shutdown)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        server.server_close()
