"""The thread-pool fan-out client, against stdlib servers."""

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.cluster import fanout as fanout_module
from repro.cluster.fanout import FanoutRequest, fanout


class _EchoHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _reply(self, payload: dict, status: int = 200) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path.startswith("/slow"):
            time.sleep(1.0)
        self._reply({"path": self.path})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        length = int(self.headers.get("Content-Length", "0"))
        data = json.loads(self.rfile.read(length) or b"{}")
        self._reply({"echo": data}, status=202)


@pytest.fixture
def echo_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _EchoHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def closed_port_url() -> str:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return f"http://127.0.0.1:{sock.getsockname()[1]}"


class TestFanout:
    def test_responses_in_input_order(self, echo_server, monkeypatch):
        monkeypatch.setattr(fanout_module, "POOL_WIDTH", 3)  # bounded < items
        monkeypatch.setattr(fanout_module, "_pool", None)
        requests = [
            FanoutRequest(url=f"{echo_server}/r{i}", timeout=5.0)
            for i in range(10)
        ]
        responses = fanout(requests)
        fanout_module._pool.shutdown()
        assert fanout_module._pool._max_workers == 3
        assert [r.json()["path"] for r in responses] == [
            f"/r{i}" for i in range(10)
        ]
        assert all(r.ok and r.status == 200 for r in responses)

    def test_post_body_roundtrip(self, echo_server):
        [response] = fanout(
            [
                FanoutRequest(
                    url=f"{echo_server}/v1/check",
                    method="POST",
                    payload={"checks": [{"source": "m"}]},
                    timeout=5.0,
                )
            ]
        )
        assert response.status == 202
        assert response.json() == {"echo": {"checks": [{"source": "m"}]}}

    def test_one_dead_peer_does_not_poison_the_rest(self, echo_server):
        requests = [
            FanoutRequest(url=f"{echo_server}/ok", timeout=5.0),
            FanoutRequest(url=f"{closed_port_url()}/dead", timeout=1.0),
            FanoutRequest(url=f"{echo_server}/also-ok", timeout=5.0),
        ]
        responses = fanout(requests)
        assert responses[0].ok and responses[2].ok
        assert not responses[1].ok and responses[1].error is not None

    def test_deadline_enforced_per_request(self, echo_server):
        started = time.perf_counter()
        responses = fanout(
            [
                FanoutRequest(url=f"{echo_server}/slow", timeout=0.2),
                FanoutRequest(url=f"{echo_server}/fast", timeout=5.0),
            ]
        )
        elapsed = time.perf_counter() - started
        assert responses[0].error is not None  # timed out
        assert "timed out" in responses[0].error
        assert responses[1].ok
        assert elapsed < 4.0  # the slow request did not serialize the loop

    def test_empty_input(self):
        assert fanout([]) == []
