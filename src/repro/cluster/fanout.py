"""Bounded selector-loop HTTP fan-out: many peers, one thread.

The router talks to every shard of a batch concurrently, and a slow or
dead peer must not pin a thread per connection — :func:`fanout` drives
up to ``max_parallel`` non-blocking sockets through one
:mod:`selectors` loop (connect → write request → read response), each
with its own deadline, and returns one :class:`FanoutResponse` per
request in input order.  Requests beyond the parallelism bound queue
and start as slots free up, so a 100-shard fan-out still uses one
thread and at most ``max_parallel`` sockets.

The client speaks just enough HTTP/1.1 for the repro service: requests
carry ``Connection: close`` and a ``Content-Length`` body, responses
are read to the header-declared ``Content-Length`` (or to EOF when a
server omits it).  Chunked encoding is not needed — every JSON endpoint
in :mod:`repro.serve.http` sets ``Content-Length``.

Errors never raise out of the loop: a refused connection, a reset, or a
deadline miss becomes ``response.error`` on that one request, leaving
the other requests to complete — the property the router's
degrade-not-fail behavior is built on.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from dataclasses import dataclass, field
from urllib.parse import urlsplit

__all__ = ["FanoutRequest", "FanoutResponse", "fanout"]

#: Sockets driven concurrently; beyond this, requests queue.
DEFAULT_MAX_PARALLEL = 16

_RECV_CHUNK = 65536


@dataclass
class FanoutRequest:
    """One HTTP exchange to run inside the loop."""

    url: str  # absolute: http://host:port/path
    method: str = "GET"
    payload: dict | None = None  # JSON-encoded as the request body
    timeout: float = 5.0
    headers: dict = field(default_factory=dict)


@dataclass
class FanoutResponse:
    """The outcome of one exchange: a status + body, or an error."""

    url: str
    status: int | None = None
    body: bytes = b""
    error: str | None = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None and self.status is not None

    def json(self) -> dict | None:
        """The body decoded as JSON, or ``None`` when that fails."""
        try:
            data = json.loads(self.body.decode())
        except (ValueError, UnicodeDecodeError):
            return None
        return data if isinstance(data, dict) else None


class _Exchange:
    """State machine for one request: CONNECT → WRITE → READ → done."""

    __slots__ = (
        "index", "request", "response", "sock", "outbox", "inbox",
        "deadline", "started", "content_length", "header_end",
    )

    def __init__(self, index: int, request: FanoutRequest):
        self.index = index
        self.request = request
        self.response = FanoutResponse(url=request.url)
        self.sock: socket.socket | None = None
        self.outbox = b""
        self.inbox = b""
        self.started = time.perf_counter()
        self.deadline = self.started + max(request.timeout, 0.001)
        self.content_length: int | None = None
        self.header_end: int | None = None

    # -- setup -----------------------------------------------------------
    def start(self) -> bool:
        """Begin the non-blocking connect; False on immediate failure."""
        parts = urlsplit(self.request.url)
        host = parts.hostname or ""
        port = parts.port or 80
        path = parts.path or "/"
        if parts.query:
            path = f"{path}?{parts.query}"
        body = b""
        if self.request.payload is not None:
            body = json.dumps(self.request.payload).encode()
        headers = {
            "Host": f"{host}:{port}",
            "Connection": "close",
            "Accept": "application/json",
            **self.request.headers,
        }
        if body or self.request.method in ("POST", "PUT"):
            headers.setdefault("Content-Type", "application/json")
            headers["Content-Length"] = str(len(body))
        head = "".join(
            f"{name}: {value}\r\n" for name, value in headers.items()
        )
        self.outbox = (
            f"{self.request.method} {path} HTTP/1.1\r\n{head}\r\n"
        ).encode() + body
        try:
            self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self.sock.setblocking(False)
            code = self.sock.connect_ex((host, port))
            if code not in (0, 115, 36, 10035):  # EINPROGRESS/EWOULDBLOCK
                self.fail(f"connect failed (errno {code})")
                return False
        except OSError as exc:
            self.fail(f"connect failed: {exc}")
            return False
        return True

    # -- completion ------------------------------------------------------
    def fail(self, message: str) -> None:
        self.response.error = message
        self.finish()

    def finish(self) -> None:
        self.response.seconds = time.perf_counter() - self.started
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
            self.sock = None

    def _parse(self, eof: bool) -> bool:
        """True once the full response is buffered (and parsed)."""
        if self.header_end is None:
            end = self.inbox.find(b"\r\n\r\n")
            if end < 0:
                if eof:
                    self.response.error = "connection closed mid-headers"
                return eof
            self.header_end = end + 4
            head = self.inbox[:end].decode("latin-1", "replace")
            lines = head.split("\r\n")
            try:
                self.response.status = int(lines[0].split(" ")[1])
            except (IndexError, ValueError):
                self.response.error = f"bad status line: {lines[0]!r}"
                return True
            for line in lines[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    try:
                        self.content_length = int(value.strip())
                    except ValueError:
                        pass
        have = len(self.inbox) - self.header_end
        if self.content_length is not None and have >= self.content_length:
            self.response.body = self.inbox[
                self.header_end : self.header_end + self.content_length
            ]
            return True
        if eof:  # no Content-Length: body is everything to EOF
            self.response.body = self.inbox[self.header_end :]
            return True
        return False


def fanout(
    requests: list[FanoutRequest],
    max_parallel: int = DEFAULT_MAX_PARALLEL,
) -> list[FanoutResponse]:
    """Run every request concurrently; responses in input order.

    Network failures and timeouts land in ``response.error`` — the call
    itself never raises for a peer problem.
    """
    responses: list[FanoutResponse | None] = [None] * len(requests)
    pending = list(enumerate(requests))
    selector = selectors.DefaultSelector()
    active: dict[socket.socket, _Exchange] = {}

    def launch() -> None:
        while pending and len(active) < max(max_parallel, 1):
            index, request = pending.pop(0)
            exchange = _Exchange(index, request)
            if not exchange.start():
                responses[index] = exchange.response
                continue
            assert exchange.sock is not None
            active[exchange.sock] = exchange
            selector.register(exchange.sock, selectors.EVENT_WRITE, exchange)

    def retire(exchange: _Exchange) -> None:
        if exchange.sock is not None and exchange.sock in active:
            selector.unregister(exchange.sock)
            del active[exchange.sock]
        exchange.finish()
        responses[exchange.index] = exchange.response

    try:
        launch()
        while active or pending:
            if not active:
                launch()
                continue
            now = time.perf_counter()
            timeout = max(
                min(x.deadline for x in active.values()) - now, 0.0
            )
            events = selector.select(timeout=min(timeout, 0.5))
            for key, _ in events:
                exchange: _Exchange = key.data
                sock = exchange.sock
                assert sock is not None
                if exchange.outbox:
                    try:
                        error = sock.getsockopt(
                            socket.SOL_SOCKET, socket.SO_ERROR
                        )
                        if error:
                            exchange.response.error = (
                                f"connect failed (errno {error})"
                            )
                            retire(exchange)
                            continue
                        sent = sock.send(exchange.outbox)
                    except (BlockingIOError, InterruptedError):
                        continue
                    except OSError as exc:
                        exchange.response.error = f"send failed: {exc}"
                        retire(exchange)
                        continue
                    exchange.outbox = exchange.outbox[sent:]
                    if not exchange.outbox:
                        selector.modify(sock, selectors.EVENT_READ, exchange)
                    continue
                try:
                    chunk = sock.recv(_RECV_CHUNK)
                except (BlockingIOError, InterruptedError):
                    continue
                except OSError as exc:
                    exchange.response.error = f"recv failed: {exc}"
                    retire(exchange)
                    continue
                if chunk:
                    exchange.inbox += chunk
                if exchange._parse(eof=not chunk):
                    retire(exchange)
            now = time.perf_counter()
            for exchange in [
                x for x in active.values() if now >= x.deadline
            ]:
                exchange.response.error = (
                    f"timed out after {exchange.request.timeout:g} s"
                )
                retire(exchange)
            launch()
    finally:
        for exchange in list(active.values()):
            exchange.response.error = exchange.response.error or "aborted"
            retire(exchange)
        selector.close()
    return [r for r in responses if r is not None] and [
        r if r is not None else FanoutResponse(url="", error="lost")
        for r in responses
    ] or []
