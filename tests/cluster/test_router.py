"""The router front end over real serving instances on loopback."""

import http.client
import json
import socket
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

import pytest

from repro.cluster.ring import RingConfig, request_fingerprint
from repro.cluster.router import RouterManager, create_router
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.http import MAX_BODY_BYTES

from .conftest import serve_in_thread, start_member, stop_server

GOOD = """
MODULE main
VAR x : boolean;
ASSIGN next(x) := 1;
SPEC x -> AX x
"""

BAD = """
MODULE main
VAR x : boolean;
INIT x
ASSIGN next(x) := {0, 1};
SPEC AG x
"""


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestRouting:
    def test_batch_split_and_fanned_back_in_order(self, cluster):
        router, config, client = cluster
        checks = [
            {"source": GOOD, "label": "good-0"},
            {"source": BAD, "label": "bad-1"},
            {"source": GOOD + "-- variant\n", "label": "good-2"},
        ]
        accepted = client.submit(checks)
        assert accepted["checks"] == 3
        job = client.wait(accepted["id"], timeout=60.0)
        assert job["state"] == "done"
        labels = [report["label"] for report in job["reports"]]
        assert labels == ["good-0", "bad-1", "good-2"]  # caller's order
        assert job["reports"][0]["all_true"] is True
        assert job["reports"][1]["all_true"] is False
        # the shards block attributes every check to a ring member
        routed = {i for part in job["shards"] for i in part["indices"]}
        assert routed == {0, 1, 2}
        for part in job["shards"]:
            expected = {
                i
                for i, check in enumerate(checks)
                if config.ring.owner(request_fingerprint(check))
                == part["shard"]
            }
            assert set(part["indices"]) == expected

    def test_single_check_payload(self, cluster):
        _, _, client = cluster
        job = client.check(GOOD, wait_timeout=60.0)
        assert job["state"] == "done"
        assert job["reports"][0]["all_true"] is True

    def test_unknown_job_404(self, cluster):
        _, _, client = cluster
        with pytest.raises(ServeClientError) as exc:
            client.job("feedfeedfeed")
        assert exc.value.status == 404

    def test_bad_payload_rejected_at_edge(self, cluster):
        _, _, client = cluster
        with pytest.raises(ServeClientError) as exc:
            client.submit({"source": ""})
        assert exc.value.status == 400

    def test_healthz_and_metrics(self, cluster):
        router, config, client = cluster
        doc = client.healthz()
        assert doc["role"] == "router"
        assert doc["ring"]["members"] == list(config.shard_ids)
        assert all(s["reachable"] for s in doc["shards"].values())
        client.check([{"source": GOOD}, {"source": BAD}], wait_timeout=60.0)
        text = client.metrics_text()
        assert "repro_router_jobs_submitted" in text
        assert "repro_router_checks_routed" in text
        assert "repro_router_submit_seconds" in text


def post_raw(base: str, body: bytes, length: int | None = None):
    """``POST /v1/check`` with a raw body; ``(status, json)``."""
    parts = urlsplit(base if "//" in base else f"http://{base}")
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
    try:
        conn.putrequest("POST", "/v1/check")
        conn.putheader("Content-Type", "application/json")
        if length is None:
            length = len(body)
        conn.putheader("Content-Length", str(length))
        conn.endheaders(body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestEdgeValidation:
    """Both roles share one ``POST /v1/check`` parse: a malformed entry
    is a 400 and an oversized body a 413, never a dropped connection."""

    @pytest.mark.parametrize("role", ["member", "router"])
    @pytest.mark.parametrize(
        "body, length, status",
        [
            (b'{"checks": [3]}', None, 400),
            (b'{"checks": ["x"]}', None, 400),
            (b'{"checks": []}', None, 400),
            (b"{}", MAX_BODY_BYTES + 1, 413),
        ],
        ids=["int-entry", "str-entry", "empty-batch", "oversized"],
    )
    def test_rejected_with_status(self, cluster, role, body, length, status):
        router, config, _ = cluster
        base = config.urls[0] if role == "member" else (
            f"http://127.0.0.1:{router.port}"
        )
        got, payload = post_raw(base, body, length)
        assert got == status
        assert payload["error"]


class TestFailover:
    def test_dead_shard_fails_over_to_live_member(self, tmp_path):
        """One live shard + one corpse: every check still completes."""
        server, thread = start_member(tmp_path / "store")
        dead = f"127.0.0.1:{free_port()}"
        config = RingConfig.parse(f"127.0.0.1:{server.port},{dead}")
        router_manager = RouterManager(config, timeout=2.0)
        router = create_router(config=config, manager=router_manager)
        router_thread = serve_in_thread(router)
        client = ServeClient(f"http://127.0.0.1:{router.port}")
        try:
            # two checks the dead member owns and two the live one owns,
            # whatever ports the ring was built from
            sources = [GOOD + f"-- v{i}\n" for i in range(64)]
            owners = [
                config.ring.owner(request_fingerprint({"source": s}))
                for s in sources
            ]
            picked = [s for s, o in zip(sources, owners) if o == dead][:2]
            picked += [s for s, o in zip(sources, owners) if o != dead][:2]
            checks = [
                {"source": source, "label": f"c{i}"}
                for i, source in enumerate(picked)
            ]
            assert any(
                config.ring.owner(request_fingerprint(c)) == dead
                for c in checks
            ), "test batch never routed to the dead shard"
            job = client.check(checks, wait_timeout=60.0)
            assert job["state"] == "done"
            assert [r["label"] for r in job["reports"]] == [
                f"c{i}" for i in range(4)
            ]
            assert router_manager.metrics.get("router.failovers") >= 1
            assert router_manager.metrics.get("router.shard_errors") >= 1
            health = client.healthz()
            assert health["shards"][dead]["reachable"] is False
        finally:
            stop_server(router, router_thread)
            stop_server(server, thread)
            server.manager.stop()


class _DoneOnSubmitShard(BaseHTTPRequestHandler):
    """A shard whose submit 202 already says ``done`` (a store replay)."""

    protocol_version = "HTTP/1.1"
    polls = 0

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _reply(self, payload: dict, status: int = 200) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        length = int(self.headers.get("Content-Length", "0"))
        self.rfile.read(length)
        self._reply(
            {"id": "0123abcd", "state": "done", "checks": 1, "trace_id": ""},
            status=202,
        )

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        type(self).polls += 1
        self._reply(
            {"id": "0123abcd", "state": "done", "reports": [{"label": "c0"}]}
        )


class TestDoneOnSubmit:
    def test_reports_of_a_done_202_are_fetched(self):
        """A slice accepted as ``done`` is polled once for its reports
        instead of leaving the routed job ``running`` for ever."""
        _DoneOnSubmitShard.polls = 0
        shard = ThreadingHTTPServer(("127.0.0.1", 0), _DoneOnSubmitShard)
        thread = serve_in_thread(shard)
        try:
            manager = RouterManager(
                RingConfig.parse(f"127.0.0.1:{shard.server_address[1]}"),
                timeout=5.0,
            )
            job = manager.submit([{"source": GOOD, "label": "c0"}], None)
            document = manager.get(job.id)
            assert document["state"] == "done"
            assert document["reports"] == [{"label": "c0"}]
            assert manager.get(job.id)["state"] == "done"
            assert _DoneOnSubmitShard.polls == 1  # landed reports stop polling
        finally:
            stop_server(shard, thread)


class TestFinishedJobHistory:
    @staticmethod
    def _router(monkeypatch, states: dict[str, str]) -> RouterManager:
        """A router keeping 2 finished jobs over a fake fan-out: each
        ``POST`` opens a ``running`` sub-job, each poll answers
        ``states``; a ``done`` sub-job carries reports."""
        from repro.cluster import router as router_module
        from repro.serve.client import Reply

        def fake_fanout(requests):
            responses = []
            for request in requests:
                if request.method == "POST":
                    sub_id = f"sub{len(states)}"
                    states[sub_id] = "running"
                    body = {"id": sub_id, "state": "running"}
                    status = 202
                else:
                    sub_id = request.url.rsplit("/", 1)[1]
                    done = states[sub_id] == "done"
                    body = {
                        "id": sub_id,
                        "state": states[sub_id],
                        "reports": [{"label": sub_id}] if done else None,
                    }
                    status = 200
                responses.append(
                    Reply(status=status, body=json.dumps(body).encode())
                )
            return responses

        monkeypatch.setattr(router_module, "fanout", fake_fanout)
        monkeypatch.setattr(router_module, "FINISHED_JOBS_KEPT", 2)
        return RouterManager(RingConfig.parse("127.0.0.1:9"))

    def test_oldest_terminal_jobs_are_shed(self, monkeypatch):
        """The router keeps the newest ``FINISHED_JOBS_KEPT`` jobs it has
        seen terminal; a shed id answers 404, a live job is never shed."""
        from repro.serve.jobs import ServeError

        states: dict[str, str] = {}
        manager = self._router(monkeypatch, states)
        live = manager.submit([{"source": GOOD}], None)
        finished = [manager.submit([{"source": GOOD}], None) for _ in range(4)]
        for job in finished:
            states[job.parts[0].job_id] = "done"
            for _ in range(3):  # repeated polls count a job once
                assert manager.get(job.id)["state"] == "done"
        for job in finished[:2]:
            with pytest.raises(ServeError) as exc:
                manager.get(job.id)
            assert exc.value.status == 404
        assert [manager.get(job.id)["state"] for job in finished[2:]] == [
            "done", "done",
        ]
        assert manager.get(live.id)["state"] == "running"

    def test_never_polled_jobs_are_shed_once_terminal(self, monkeypatch):
        """Jobs no client polls to completion still leave a bounded table:
        a submission past the unretired bound refreshes the oldest
        unretired jobs and retires the terminal ones; a running job is
        never shed."""
        from repro.serve.jobs import ServeError

        states: dict[str, str] = {}
        manager = self._router(monkeypatch, states)
        live = manager.submit([{"source": GOOD}], None)
        submitted = []
        for _ in range(12):
            job = manager.submit([{"source": GOOD}], None)
            states[job.parts[0].job_id] = "done"  # finished, never polled
            submitted.append(job)
            # at most 2 retired, 2 unretired past the bound, and live
            assert len(manager._jobs) <= 5
        with pytest.raises(ServeError) as exc:
            manager.get(submitted[0].id)
        assert exc.value.status == 404
        assert manager.get(live.id)["state"] == "running"
        assert manager.get(submitted[-1].id)["state"] == "done"
