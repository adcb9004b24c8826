"""A thin ``urllib`` client for the checking service.

:class:`ServeClient` speaks the service's JSON protocol with nothing
beyond the standard library — it is what ``repro submit`` uses, and
what tests drive the server with.  Errors come back as
:class:`ServeClientError` carrying the HTTP status and the server's
``error`` message.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request
from collections.abc import Callable, Iterator

from repro.errors import ReproError

__all__ = ["ServeClient", "ServeClientError", "open_url"]

#: Service and peer traffic goes straight to its host, like the
#: router's fan-out sockets: an ``http_proxy`` set for the outside
#: world must not capture loopback or ring requests.
_OPENER = urllib.request.build_opener(urllib.request.ProxyHandler({}))


def open_url(request: urllib.request.Request, timeout: float):
    """``urllib.request.urlopen`` that ignores proxy environment variables."""
    return _OPENER.open(request, timeout=timeout)


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
        data = None
        headers = {}
        if payload is not None:
            data = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            f"{self.url}{path}", data=data, headers=headers, method=method
        )
        effective = self.timeout if timeout is None else timeout
        try:
            with open_url(request, timeout=effective) as resp:
                body = resp.read().decode()
                content_type = resp.headers.get("Content-Type", "")
        except urllib.error.HTTPError as exc:
            body = exc.read().decode()
            try:
                message = json.loads(body).get("error", body)
            except ValueError:
                message = body
            try:
                retry_after = float(exc.headers.get("Retry-After", ""))
            except (TypeError, ValueError):
                retry_after = None
            raise ServeClientError(
                exc.code, message, retry_after=retry_after
            ) from None
        except urllib.error.URLError as exc:
            raise ServeClientError(0, f"cannot reach {self.url}: {exc.reason}") from None
        if content_type.startswith("application/json"):
            return json.loads(body)
        return body

    def _request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        timeout: float | None = None,
    ) -> dict | str:
        last: ServeClientError | None = None
        for attempt in range(self.retries + 1):
            try:
                return self._request_once(method, path, payload, timeout)
            except ServeClientError as exc:
                last = exc
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
            except (OSError, http.client.HTTPException) as exc:
                # raw socket errors surfacing outside urllib's wrapper
                last = ServeClientError(0, f"{type(exc).__name__}: {exc}")
                if method != "GET" or attempt >= self.retries:
                    raise last from None
                time.sleep(
                    min(self.backoff * (2**attempt), MAX_BACKOFF_SECONDS)
                )
        raise last if last is not None else AssertionError("unreachable")

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
        is still running, 404 when tracing is disabled server-side.
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
            request = urllib.request.Request(
                f"{self.url}/v1/jobs/{job_id}/events",
                headers={
                    "Accept": "text/event-stream",
                    "Last-Event-ID": str(since),
                },
            )
            response = None
            error: str | None = None
            try:
                response = open_url(request, timeout=self.timeout)
            except urllib.error.HTTPError as exc:
                body = exc.read().decode()
                try:
                    message = json.loads(body).get("error", body)
                except ValueError:
                    message = body
                raise ServeClientError(exc.code, message) from None
            except urllib.error.URLError as exc:
                error = f"cannot reach {self.url}: {exc.reason}"
                if not connected:
                    raise ServeClientError(0, error) from None
            if response is not None:
                connected = True
                clean_end = False
                error = "stream closed before its end frame"
                try:
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
                except (
                    TimeoutError,
                    OSError,
                    http.client.HTTPException,
                ) as exc:
                    # dropped mid-stream; reconnect below
                    error = f"{type(exc).__name__}: {exc}"
                finally:
                    response.close()
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
