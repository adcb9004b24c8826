"""The program's one HTTP client, and the checking service's client.

:func:`exchange` makes every outbound request the program sends: the
router's fan-out, the peer store's probes and pushes, and
:class:`ServeClient` (what ``repro submit`` uses, and what tests drive
the server with).  It runs on :class:`http.client.HTTPConnection`,
which connects straight to the URL's host and never reads
``http_proxy`` from the environment, so a proxy set for the outside
world cannot capture loopback or ring traffic.  A transport failure
never raises out of :func:`exchange`: it lands in :attr:`Reply.error`.

:class:`ServeClient` speaks the service's JSON protocol over it.  Its
errors come back as :class:`ServeClientError` carrying the HTTP status
and the server's ``error`` message.
"""

from __future__ import annotations

import http.client
import json
import time
from collections.abc import Callable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from urllib.parse import urlsplit

from repro.errors import ReproError
from repro.obs.tracer import TIMER

__all__ = ["Reply", "ServeClient", "ServeClientError", "exchange"]


@dataclass
class Reply:
    """The outcome of one :func:`exchange`: a status and body, or an error."""

    status: int | None = None
    headers: Mapping[str, str] = field(default_factory=dict)
    body: bytes = b""
    error: str | None = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None and self.status is not None

    def json(self) -> dict | None:
        """The body decoded as a JSON object, or ``None`` when it is not one."""
        try:
            data = json.loads(self.body.decode())
        except (ValueError, UnicodeDecodeError):
            return None
        return data if isinstance(data, dict) else None


@contextmanager
def _open(
    url: str,
    method: str = "GET",
    payload: dict | None = None,
    headers: dict | None = None,
    timeout: float = 5.0,
) -> Iterator[http.client.HTTPResponse]:
    """Send one request on a fresh connection; yield its response.

    ``timeout`` bounds the connect and every socket read.  The
    connection is closed when the block exits.
    """
    parts = urlsplit(url)
    target = parts.path or "/"
    if parts.query:
        target = f"{target}?{parts.query}"
    body = None if payload is None else json.dumps(payload).encode()
    sent = {"Connection": "close", "Accept": "application/json"}
    if body is not None:
        sent["Content-Type"] = "application/json"
    sent.update(headers or {})
    connection = http.client.HTTPConnection(
        parts.hostname, parts.port, timeout=timeout
    )
    try:
        connection.request(method, target, body=body, headers=sent)
        yield connection.getresponse()
    finally:
        connection.close()


def exchange(
    url: str,
    method: str = "GET",
    payload: dict | None = None,
    headers: dict | None = None,
    timeout: float = 5.0,
) -> Reply:
    """One HTTP request to an absolute ``http://`` URL; never raises.

    ``payload`` is sent JSON-encoded.  A refused connection, a reset or
    a timeout becomes :attr:`Reply.error` (``"timed out after ..."`` for
    a timeout); any status, 4xx and 5xx included, is a reply.
    """
    reply = Reply()
    with TIMER.span("http.exchange") as span:
        try:
            with _open(url, method, payload, headers, timeout) as response:
                reply.status = response.status
                reply.headers = response.headers
                reply.body = response.read()
        except TimeoutError:
            reply.error = f"timed out after {timeout:g} s"
        except (OSError, http.client.HTTPException, ValueError) as exc:
            reply.error = f"{type(exc).__name__}: {exc}"
    reply.seconds = span.duration
    return reply


def _error_message(body: bytes) -> str:
    """The ``error`` field of a JSON error body, else the body itself."""
    text = body.decode("utf-8", "replace")
    try:
        return str(json.loads(text).get("error", text))
    except (ValueError, AttributeError):
        return text


class ServeClientError(ReproError):
    """An HTTP error from the service, with its status code.

    ``retry_after`` carries the server's ``Retry-After`` seconds when
    the response named one (429 backpressure, 503 draining).
    """

    def __init__(
        self, status: int, message: str, retry_after: float | None = None
    ):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.retry_after = retry_after


#: Cap on any single client-side retry sleep, whatever the server says.
MAX_BACKOFF_SECONDS = 5.0


class ServeClient:
    """Client for one service instance at ``url`` (e.g. ``http://host:8123``).

    Transient failures are retried up to ``retries`` extra times with
    capped backoff: a 429 honors the server's ``Retry-After`` (safe for
    any method — a 429'd submission was rejected, not enqueued), and a
    connection reset mid-request retries idempotent ``GET``s only (a
    reset ``POST`` may have been accepted server-side; replaying it
    would double-submit).  ``retries=0`` restores fail-fast behavior.
    """

    def __init__(
        self,
        url: str,
        timeout: float = 30.0,
        retries: int = 2,
        backoff: float = 0.25,
    ):
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.retries = max(int(retries), 0)
        self.backoff = backoff

    # -- plumbing --------------------------------------------------------
    def _request_once(
        self,
        method: str,
        path: str,
        payload: dict | None,
        timeout: float | None,
    ) -> dict | str:
        reply = exchange(
            f"{self.url}{path}",
            method,
            payload,
            timeout=self.timeout if timeout is None else timeout,
        )
        if reply.error is not None:
            raise ServeClientError(0, f"cannot reach {self.url}: {reply.error}")
        if not 200 <= reply.status < 300:
            try:
                retry_after = float(reply.headers.get("Retry-After", ""))
            except (TypeError, ValueError):
                retry_after = None
            raise ServeClientError(
                reply.status, _error_message(reply.body), retry_after
            )
        body = reply.body.decode()
        if reply.headers.get("Content-Type", "").startswith("application/json"):
            return json.loads(body)
        return body

    def _request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        timeout: float | None = None,
    ) -> dict | str:
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, payload, timeout)
            except ServeClientError as exc:
                retriable = exc.status == 429 or (
                    # transport failure (reset, refused, timeout): replay
                    # only requests that are safe to repeat
                    exc.status == 0
                    and method == "GET"
                )
                if not retriable or attempt >= self.retries:
                    raise
                delay = self.backoff * (2**attempt)
                if exc.status == 429 and exc.retry_after is not None:
                    delay = exc.retry_after
                time.sleep(min(delay, MAX_BACKOFF_SECONDS))
            attempt += 1

    # -- API -------------------------------------------------------------
    def submit(
        self,
        checks: list[dict] | dict | str,
        timeout: float | None = None,
        request_timeout: float | None = None,
    ) -> dict:
        """``POST /v1/check``; returns the acceptance payload (``id`` ...).

        ``checks`` may be an SMV source string, one check dict, or a
        list of check dicts (a batch).  ``timeout`` is the *job's*
        server-side deadline; ``request_timeout`` overrides the
        client's per-request socket timeout for this call only.
        """
        if isinstance(checks, str):
            payload: dict = {"source": checks}
        elif isinstance(checks, dict):
            payload = dict(checks)
        else:
            payload = {"checks": list(checks)}
        if timeout is not None:
            payload["timeout"] = timeout
        result = self._request(
            "POST", "/v1/check", payload, timeout=request_timeout
        )
        assert isinstance(result, dict)
        return result

    def job(self, job_id: str, request_timeout: float | None = None) -> dict:
        """``GET /v1/jobs/<id>``: the job's state (and reports when done)."""
        result = self._request(
            "GET", f"/v1/jobs/{job_id}", timeout=request_timeout
        )
        assert isinstance(result, dict)
        return result

    def job_trace(self, job_id: str) -> dict:
        """``GET /v1/jobs/<id>/trace``: the finished job's span trace.

        The payload is ``{"id", "trace_id", "spans"}`` where ``spans``
        uses the JSONL record layout of
        :func:`repro.obs.export.to_jsonl_records` — worker-process spans
        included, every one carrying the job's ``trace_id`` attribute.
        Raises :class:`ServeClientError` with status 409 while the job
        is still running, 404 for an unknown job.
        """
        result = self._request("GET", f"/v1/jobs/{job_id}/trace")
        assert isinstance(result, dict)
        return result

    def wait(
        self, job_id: str, timeout: float = 120.0, poll: float = 0.05
    ) -> dict:
        """Poll until the job reaches a terminal state; returns it.

        Raises :class:`ServeClientError` (status 0) on client-side
        timeout — the job keeps running server-side.
        """
        from repro.serve.jobs import TERMINAL_STATES

        deadline = time.monotonic() + timeout
        while True:
            job = self.job(job_id)
            if job.get("state") in TERMINAL_STATES:
                return job
            if time.monotonic() >= deadline:
                raise ServeClientError(
                    0, f"job {job_id} not finished after {timeout:g} s"
                )
            time.sleep(poll)

    def check(
        self,
        checks: list[dict] | dict | str,
        timeout: float | None = None,
        wait_timeout: float = 120.0,
    ) -> dict:
        """Submit and wait: returns the finished job document."""
        accepted = self.submit(checks, timeout=timeout)
        return self.wait(accepted["id"], timeout=wait_timeout)

    def cancel(self, job_id: str, request_timeout: float | None = None) -> dict:
        """``DELETE /v1/jobs/<id>``; raises on 404/409."""
        result = self._request(
            "DELETE", f"/v1/jobs/{job_id}", timeout=request_timeout
        )
        assert isinstance(result, dict)
        return result

    def healthz(self, request_timeout: float | None = None) -> dict:
        result = self._request("GET", "/healthz", timeout=request_timeout)
        assert isinstance(result, dict)
        return result

    def metrics_text(self, request_timeout: float | None = None) -> str:
        """The raw Prometheus text from ``/metrics``."""
        result = self._request("GET", "/metrics", timeout=request_timeout)
        assert isinstance(result, str)
        return result

    # -- live progress ---------------------------------------------------
    def iter_events(
        self,
        job_id: str,
        since: int = 0,
        reconnect: bool = True,
        max_reconnects: int = 20,
        on_reconnect: Callable[[dict], None] | None = None,
    ) -> Iterator[dict]:
        """Consume ``GET /v1/jobs/<id>/events`` as a stream of events.

        Yields each progress event as a dict (``seq``/``ts`` stamped by
        the server) until the server sends its terminal ``end`` frame.
        A dropped or idle-timed-out connection is transparently
        reconnected with ``Last-Event-ID`` set to the last delivered
        sequence number, so no retained event is lost or repeated
        (``reconnect=False`` stops at the first drop instead).  Raises
        :class:`ServeClientError` on HTTP errors (404: unknown job or
        progress disabled).

        ``on_reconnect`` makes the backoff *observable* instead of a
        silent sleep: it is called once per reconnect attempt, before
        the sleep, with ``{"attempt": n, "since": last_seq, "delay":
        seconds, "error": message}`` — the hook the cluster router uses
        to publish ``shard.stream_degraded`` events on its merged
        stream while a member flaps.  A connect failure *after* the
        stream was first established counts as a drop (and reconnects);
        only the initial connection failing raises immediately.
        """
        drops = 0
        connected = False
        while True:
            clean_end = False
            error = "stream closed before its end frame"
            try:
                with _open(
                    f"{self.url}/v1/jobs/{job_id}/events",
                    headers={
                        "Accept": "text/event-stream",
                        "Last-Event-ID": str(since),
                    },
                    timeout=self.timeout,
                ) as response:
                    if response.status != 200:
                        raise ServeClientError(
                            response.status, _error_message(response.read())
                        )
                    connected = True
                    for frame in _iter_sse_frames(response):
                        if frame.get("event") == "end":
                            clean_end = True
                            break
                        try:
                            event = json.loads(frame.get("data", ""))
                        except ValueError:
                            continue
                        if isinstance(event.get("seq"), int):
                            since = max(since, event["seq"])
                        yield event
            except (OSError, http.client.HTTPException) as exc:
                if not connected:
                    raise ServeClientError(
                        0, f"cannot reach {self.url}: {exc}"
                    ) from None
                # dropped mid-stream, or the reconnect failed
                error = f"{type(exc).__name__}: {exc}"
            if clean_end:
                return
            if not reconnect:
                return
            drops += 1
            if drops > max_reconnects:
                raise ServeClientError(
                    0, f"event stream for {job_id} dropped {drops} times"
                )
            delay = min(0.05 * drops, 1.0)
            if on_reconnect is not None:
                on_reconnect(
                    {
                        "attempt": drops,
                        "since": since,
                        "delay": delay,
                        "error": error,
                    }
                )
            time.sleep(delay)


def _iter_sse_frames(response) -> Iterator[dict]:
    """Parse ``text/event-stream`` framing into ``{event, data, id}``."""
    frame: dict = {}
    data_lines: list[str] = []
    for raw in response:
        line = raw.decode("utf-8", "replace").rstrip("\r\n")
        if not line:  # blank line: dispatch the accumulated frame
            if frame or data_lines:
                frame["data"] = "\n".join(data_lines)
                yield frame
                frame, data_lines = {}, []
            continue
        if line.startswith(":"):  # keep-alive comment
            continue
        field_name, _, value = line.partition(":")
        value = value.removeprefix(" ")
        if field_name == "data":
            data_lines.append(value)
        elif field_name in ("event", "id"):
            frame[field_name] = value
