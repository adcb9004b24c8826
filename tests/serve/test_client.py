"""``ServeClient``, ``PeerClient`` and ``fanout`` transport rules against a
stub server.

The stub answers each request with the next scripted action for its
method and counts the requests it saw, so retry rules are pinned by
request counts alone, never by timing.
"""

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.cluster.fanout import FanoutRequest, fanout
from repro.cluster.peers import PeerClient
from repro.serve.client import ServeClient, ServeClientError

#: a scripted action: ``(status, headers, body)``, or ``DROP`` to close
#: the connection without a response
DROP = "drop"


class StubServer:
    """A loopback HTTP server replaying a per-method script of actions;
    once a script runs out it answers 200 with a JSON ``{"ok": true}``."""

    def __init__(self, script: dict[str, list] | None = None):
        self.script = {m: list(a) for m, a in (script or {}).items()}
        self.requests: list[tuple[str, str]] = []
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def _answer(self):
                length = int(self.headers.get("Content-Length") or 0)
                self.rfile.read(length)
                stub.requests.append((self.command, self.path))
                pending = stub.script.get(self.command) or []
                action = pending.pop(0) if pending else (200, {}, {"ok": True})
                if action == DROP:
                    self.close_connection = True
                    return
                status, headers, body = action
                data = json.dumps(body).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                for name, value in headers.items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(data)

            do_GET = do_POST = do_PUT = _answer

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.httpd.server_address[1]}"
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, daemon=True
        )
        self.thread.start()

    def count(self, method: str) -> int:
        return sum(1 for m, _ in self.requests if m == method)

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()


@pytest.fixture
def stub():
    servers = []

    def make(script=None):
        servers.append(StubServer(script))
        return servers[-1]

    yield make
    for server in servers:
        server.close()


class TestRetries:
    def test_429_then_accepted_returns_after_two_posts(self, stub):
        server = stub(
            {
                "POST": [
                    (429, {"Retry-After": "0"}, {"error": "queue full"}),
                    (202, {}, {"id": "job-1"}),
                ]
            }
        )
        client = ServeClient(server.url, backoff=0.001)
        assert client.submit("MODULE main")["id"] == "job-1"
        assert server.count("POST") == 2

    def test_dropped_post_is_not_replayed(self, stub):
        server = stub({"POST": [DROP]})
        client = ServeClient(server.url, backoff=0.001)
        with pytest.raises(ServeClientError) as exc:
            client.submit("MODULE main")
        assert exc.value.status == 0
        assert server.count("POST") == 1

    def test_dropped_get_retries_until_answered(self, stub):
        server = stub({"GET": [DROP, DROP]})
        client = ServeClient(server.url, backoff=0.001)
        assert client.healthz() == {"ok": True}
        assert server.count("GET") == 3


def _closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture
def dead_proxy(monkeypatch):
    """Proxy environment variables pointing at a closed loopback port."""
    proxy = f"http://127.0.0.1:{_closed_port()}"
    for name in ("http_proxy", "HTTP_PROXY"):
        monkeypatch.setenv(name, proxy)
    for name in ("no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)


class TestNoProxy:
    def test_serve_client_ignores_http_proxy(self, stub, dead_proxy):
        server = stub()
        assert ServeClient(server.url, retries=0).healthz() == {"ok": True}

    def test_peer_client_ignores_http_proxy(self, stub, dead_proxy):
        record = {"verdict": True}
        server = stub({"GET": [(200, {}, {"record": record})]})
        assert PeerClient(server.url, retries=0).fetch("ab" * 32) == record

    def test_fanout_ignores_http_proxy(self, stub, dead_proxy):
        server = stub()
        requests = [FanoutRequest(url=f"{server.url}/healthz")] * 2
        assert [reply.json() for reply in fanout(requests)] == [
            {"ok": True},
            {"ok": True},
        ]
