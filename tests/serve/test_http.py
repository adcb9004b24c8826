"""The HTTP surface, driven through ServeClient on an ephemeral port."""

import threading

import pytest

from repro.serve.client import ServeClient, ServeClientError
from repro.serve.http import create_server
from repro.serve.jobs import JobManager, JobRequest
from repro.store import ResultStore

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


@pytest.fixture
def service(tmp_path):
    store = ResultStore(tmp_path)
    manager = JobManager(
        jobs=1, queue_size=4, store=store, metrics=store.metrics
    )
    server = create_server(manager=manager)  # port 0: ephemeral
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(f"http://127.0.0.1:{server.port}")
    yield server, manager, client
    server.shutdown()
    server.server_close()
    manager.stop()
    thread.join(timeout=10)


class TestCheckEndpoint:
    def test_single_check(self, service):
        _, _, client = service
        accepted = client.submit(GOOD)
        assert accepted["state"] == "queued" and accepted["checks"] == 1
        job = client.wait(accepted["id"])
        assert job["state"] == "done"
        assert job["reports"][0]["all_true"] is True

    def test_batch(self, service):
        _, _, client = service
        job = client.check([{"source": GOOD}, {"source": BAD}])
        assert job["state"] == "done" and len(job["reports"]) == 2
        assert job["reports"][0]["all_true"] is True
        assert job["reports"][1]["all_true"] is False

    def test_second_batch_served_from_cache(self, service):
        _, _, client = service
        client.check(GOOD)
        job = client.check(GOOD)
        assert job["reports"][0]["cache"] == {"hits": 1, "misses": 0}

    def test_malformed_payloads(self, service):
        _, _, client = service
        for payload in ({"source": ""}, {"checks": "x"}, {"nope": 1}):
            with pytest.raises(ServeClientError) as exc:
                client.submit(payload)
            assert exc.value.status == 400

    def test_unknown_route_404(self, service):
        _, _, client = service
        with pytest.raises(ServeClientError) as exc:
            client._request("POST", "/v2/check", {})
        assert exc.value.status == 404

    def test_queue_full_429(self, tmp_path):
        import time

        release = threading.Event()
        manager = JobManager(jobs=1, queue_size=1)
        # park the runner on its first job so the queue stays occupied
        manager._execute = lambda job: release.wait(30)
        server = create_server(manager=manager)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        # retries=0: this test asserts the raw 429 (the default client
        # would honor Retry-After and re-submit)
        client = ServeClient(f"http://127.0.0.1:{server.port}", retries=0)
        try:
            client.submit(GOOD)
            deadline = time.monotonic() + 10
            while manager._idle.is_set() and time.monotonic() < deadline:
                time.sleep(0.01)  # wait for the runner to pick the job up
            client.submit(GOOD)  # fills the single queue slot
            with pytest.raises(ServeClientError) as exc:
                client.submit(GOOD)
            assert exc.value.status == 429
            assert exc.value.retry_after == 1.0  # Retry-After surfaced
        finally:
            release.set()
            server.shutdown()
            server.server_close()
            manager.stop()

    def test_draining_503(self, service):
        _, manager, client = service
        manager.draining = True
        with pytest.raises(ServeClientError) as exc:
            client.submit(GOOD)
        assert exc.value.status == 503


class TestJobEndpoints:
    def test_get_unknown_job(self, service):
        _, _, client = service
        with pytest.raises(ServeClientError) as exc:
            client.job("deadbeef")
        assert exc.value.status == 404

    def test_cancel_conflict_on_done(self, service):
        _, _, client = service
        job = client.check(GOOD)
        with pytest.raises(ServeClientError) as exc:
            client.cancel(job["id"])
        assert exc.value.status == 409

    def test_cancel_queued(self, tmp_path):
        import time

        release = threading.Event()
        manager = JobManager(jobs=1, queue_size=4)
        # park the runner on its first job; the second stays queued
        manager._execute = lambda job: release.wait(30)
        server = create_server(manager=manager)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServeClient(f"http://127.0.0.1:{server.port}")
        try:
            client.submit(GOOD)
            deadline = time.monotonic() + 10
            while manager._idle.is_set() and time.monotonic() < deadline:
                time.sleep(0.01)
            queued = client.submit(GOOD)
            assert client.cancel(queued["id"])["state"] == "cancelled"
        finally:
            release.set()
            server.shutdown()
            server.server_close()
            manager.stop()


class TestOperationalEndpoints:
    def test_healthz(self, service):
        _, _, client = service
        health = client.healthz()
        assert health["status"] == "ok" and health["draining"] is False

    def test_metrics_exposes_store_and_serve_counters(self, service):
        _, _, client = service
        client.check(GOOD)
        client.check(GOOD)
        text = client.metrics_text()
        assert "# TYPE repro_store_hits gauge" in text
        # warm replay touches the spec record and the report-meta record
        assert "repro_store_hits 2" in text
        assert "repro_store_misses" in text
        assert "repro_serve_jobs_completed 2" in text

    def test_drain_then_healthz_503(self, service):
        _, manager, client = service
        assert manager.drain(timeout=30)
        with pytest.raises(ServeClientError) as exc:
            client.healthz()
        assert exc.value.status == 503


class TestJobManagerScheduler:
    def test_scheduled_execution(self, tmp_path):
        # jobs=2 exercises the worker-pool path end to end
        from repro.parallel import shutdown_shared

        store = ResultStore(tmp_path)
        manager = JobManager(jobs=2, queue_size=4, store=store)
        manager.start()
        try:
            job = manager.submit(
                [JobRequest(source=GOOD), JobRequest(source=BAD)]
            )
            import time

            deadline = time.monotonic() + 120
            while not job.terminal and time.monotonic() < deadline:
                time.sleep(0.02)
            assert job.state == "done"
            assert job.reports[0]["all_true"] is True
            assert job.reports[1]["all_true"] is False
            assert job.reports[1]["specs"][0]["counterexample"]
        finally:
            manager.stop()
            shutdown_shared()


class TestObservabilityEndpoints:
    def test_acceptance_carries_trace_id_and_header(self, service):
        import json
        import urllib.request

        server, _, client = service
        accepted = client.submit(GOOD)
        assert len(accepted["trace_id"]) == 32
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/v1/check",
            data=json.dumps({"source": GOOD}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            payload = json.loads(response.read())
            header = response.headers.get("X-Repro-Trace-Id")
        assert header == payload["trace_id"]

    def test_each_request_gets_its_own_trace(self, service):
        _, _, client = service
        first = client.check(GOOD)
        second = client.check(GOOD)
        assert first["trace_id"] and second["trace_id"]
        assert first["trace_id"] != second["trace_id"]

    def _submit_with_trace_header(self, server, header_value):
        import json
        import urllib.request

        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/v1/check",
            data=json.dumps({"source": GOOD}).encode(),
            headers={
                "Content-Type": "application/json",
                "X-Repro-Trace-Id": header_value,
            },
        )
        with urllib.request.urlopen(request) as response:
            return json.loads(response.read())

    def test_inbound_trace_header_is_honored_end_to_end(self, service):
        # a router propagates its minted id; the shard must adopt it
        server, _, client = service
        minted = "ab" * 16
        payload = self._submit_with_trace_header(server, minted)
        assert payload["trace_id"] == minted
        job = client.wait(payload["id"])
        assert job["trace_id"] == minted
        trace = client.job_trace(payload["id"])
        assert trace["trace_id"] == minted
        roots = [s for s in trace["spans"] if s["parent"] is None]
        assert roots[0]["attrs"]["trace_id"] == minted

    def test_malformed_inbound_trace_header_is_replaced(self, service):
        # garbage in the header must never fail the submission — the
        # shard just mints a fresh identity instead
        server, _, _ = service
        payload = self._submit_with_trace_header(server, "not a trace!")
        assert len(payload["trace_id"]) == 32
        assert payload["trace_id"] != "not a trace!"

    def test_trace_payload_carries_wall_origin(self, service):
        # the router grafts shard traces onto its own clock via this
        _, _, client = service
        job = client.check(GOOD)
        trace = client.job_trace(job["id"])
        assert trace["wall_origin"] > 0
        assert "shard" in trace

    def test_job_document_has_timings(self, service):
        _, _, client = service
        job = client.check(GOOD)
        timings = job["timings"]
        assert set(timings) >= {
            "queue_wait_seconds",
            "cache_probe_seconds",
            "check_seconds",
            "serialize_seconds",
            "total_seconds",
        }
        assert timings["total_seconds"] >= timings["check_seconds"] >= 0
        # the trace itself is not inlined in the job document
        assert "trace" not in job

    def test_trace_endpoint_returns_spans(self, service):
        _, _, client = service
        job = client.check(GOOD)
        trace = client.job_trace(job["id"])
        assert trace["trace_id"] == job["trace_id"]
        names = {span["name"] for span in trace["spans"]}
        assert {"serve.job", "serve.check", "store.cached_check"} <= names
        roots = [s for s in trace["spans"] if s["parent"] is None]
        assert roots and roots[0]["attrs"]["trace_id"] == job["trace_id"]

    def test_trace_endpoint_conflict_while_running(self, tmp_path):
        import time

        release = threading.Event()
        manager = JobManager(jobs=1, queue_size=4)
        manager._execute = lambda job: release.wait(30)
        server = create_server(manager=manager)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServeClient(f"http://127.0.0.1:{server.port}")
        try:
            accepted = client.submit(GOOD)
            deadline = time.monotonic() + 10
            while manager._idle.is_set() and time.monotonic() < deadline:
                time.sleep(0.01)
            with pytest.raises(ServeClientError) as exc:
                client.job_trace(accepted["id"])
            assert exc.value.status == 409
        finally:
            release.set()
            server.shutdown()
            server.server_close()
            manager.stop()

    def test_trace_endpoint_unknown_job(self, service):
        _, _, client = service
        with pytest.raises(ServeClientError) as exc:
            client.job_trace("deadbeef")
        assert exc.value.status == 404

    def test_healthz_operational_fields(self, service):
        from repro import __version__

        _, _, client = service
        client.check(GOOD)
        health = client.healthz()
        assert health["version"] == __version__
        assert health["uptime_seconds"] >= 0
        assert health["jobs_total"] == 1
        assert health["queued"] == 0 and health["running"] == 0
        store = health["store"]
        assert store["hits"] + store["misses"] > 0
        assert 0.0 <= store["hit_rate"] <= 1.0

    def test_healthz_splits_store_counters_by_kind(self, service):
        _, _, client = service
        client.check(GOOD)  # cold: spec + report misses
        client.check(GOOD)  # warm: spec + report hits
        kinds = client.healthz()["store"]["kinds"]
        assert set(kinds) == {"report", "spec", "obligation"}
        assert kinds["spec"]["misses"] >= 1 and kinds["spec"]["hits"] >= 1
        assert kinds["report"]["hits"] + kinds["report"]["misses"] >= 1
        for block in kinds.values():
            assert 0.0 <= block["hit_rate"] <= 1.0
        # untouched kinds stay at zero rather than disappearing
        assert kinds["obligation"] == {
            "hits": 0,
            "misses": 0,
            "hit_rate": 0.0,
        }

    def test_metrics_exposes_per_kind_store_counters(self, service):
        _, _, client = service
        client.check(GOOD)
        text = client.metrics_text()
        assert "repro_store_misses_spec" in text

    def test_job_completion_flushes_counter_sidecar(self, service, tmp_path):
        import json

        _, _, client = service
        client.check(GOOD)
        sidecar = json.loads((tmp_path / "counters.json").read_text())
        assert sidecar.get("misses.spec", 0) >= 1

    def test_metrics_exposes_request_histograms(self, service):
        _, _, client = service
        client.check(GOOD)
        text = client.metrics_text()
        assert "# TYPE repro_request_duration_seconds histogram" in text
        assert 'repro_request_duration_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_request_duration_seconds_count 1" in text
        assert "repro_request_stage_check_seconds_count 1" in text
        assert "repro_request_stage_accept_seconds_count 1" in text
