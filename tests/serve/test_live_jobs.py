"""Live jobs: SSE streaming, the obligation state machine, the watchdog.

These tests drive real worker pools through the HTTP surface — they
assert what an operator of ``repro serve`` relies on: events stream in
order while a job runs, per-obligation states only ever advance,
dropped consumers resume without loss, and a wedged worker is flagged
by the watchdog within its deadline.
"""

import threading
import time
from contextlib import contextmanager

import pytest

from repro.serve.client import ServeClient, ServeClientError
from repro.serve.http import create_server
from repro.serve.jobs import JobManager, JobRequest
from repro.store import ResultStore

TOGGLE = """
MODULE main
VAR x : boolean;
ASSIGN next(x) := !x;
SPEC AG EF x
SPEC AG EF !x
"""

#: Progress event kind → the obligation state it drives (the serve
#: layer's state machine; ``repro.serve.jobs._on_progress``).
KIND_STATE = {
    "obligation.queued": "pending",
    "obligation.start": "running",
    "obligation.tick": "running",
    "obligation.cache_hit": "cached",
    "obligation.finish": "done",
    "obligation.result": "done",
}

RANK = {"pending": 0, "running": 1, "done": 2, "cached": 2}


@contextmanager
def service(**manager_kwargs):
    manager_kwargs.setdefault("jobs", 1)
    manager_kwargs.setdefault("queue_size", 8)
    manager_kwargs.setdefault("progress_interval", 0.0)
    manager = JobManager(**manager_kwargs)
    server = create_server(manager=manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(f"http://127.0.0.1:{server.port}")
    try:
        yield manager, client
    finally:
        server.shutdown()
        server.server_close()
        manager.stop()
        thread.join(timeout=10)


def assert_monotone_states(events):
    """Per-obligation states derived from the stream never move backwards."""
    states: dict[str, str] = {}
    for event in events:
        state = KIND_STATE.get(event.get("kind", ""))
        name = event.get("obligation")
        if state is None or not name:
            continue
        previous = states.get(name, "pending")
        assert RANK[state] >= RANK[previous], (
            f"{name} regressed {previous} -> {state}"
        )
        states[name] = state
    return states


class TestEventStream:
    def test_sse_streams_ordered_events_for_live_batch(self):
        with service(jobs=2) as (manager, client):
            accepted = client.submit(
                [{"source": TOGGLE, "label": "a"}, {"source": TOGGLE}]
            )
            events = list(client.iter_events(accepted["id"]))
            assert events, "stream delivered nothing"
            seqs = [e["seq"] for e in events]
            assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
            # heartbeats from inside the fixpoints made it across processes
            ticks = [e for e in events if e["kind"] == "obligation.tick"]
            assert ticks and all("phase" in t and "pid" in t for t in ticks)
            final = assert_monotone_states(events)
            # batch obligations are namespaced per check
            assert {"c0.spec0", "c0.spec1", "c1.spec0", "c1.spec1"} <= set(
                final
            )
            assert all(RANK[s] == 2 for s in final.values())
            terminal = [e for e in events if e["kind"] == "job.state"]
            assert terminal[-1]["state"] == "done"
            job = client.job(accepted["id"])
            assert job["state"] == "done"
            obligations = job["obligations"]
            assert all(o["state"] == "done" for o in obligations.values())
            assert all(o["stalled"] is False for o in obligations.values())
            # at least one obligation ran a live fixpoint (the others may
            # finish instantly off a worker's formula-memo cache)
            assert sum(o["ticks"] for o in obligations.values()) >= 1
            assert job["progress_events"] == seqs[-1]
            # internal bookkeeping (_last_heartbeat) never leaks
            assert not any(
                key.startswith("_")
                for o in obligations.values()
                for key in o
            )

    def test_resume_with_last_event_id_replays_exact_tail(self):
        with service() as (manager, client):
            job = client.check(TOGGLE)
            assert job["state"] == "done"
            full = list(client.iter_events(job["id"]))
            assert len(full) >= 3
            mid = full[len(full) // 2]["seq"]
            tail = list(client.iter_events(job["id"], since=mid))
            assert tail == [e for e in full if e["seq"] > mid]

    def test_long_poll_fallback_returns_json_document(self):
        with service() as (manager, client):
            job = client.check(TOGGLE)
            doc = client._request(
                "GET", f"/v1/jobs/{job['id']}/events?poll=1&since=0"
            )
            assert doc["id"] == job["id"] and doc["closed"] is True
            assert doc["events"] and doc["next"] == doc["events"][-1]["seq"]
            assert_monotone_states(doc["events"])

    def test_bad_since_rejected(self):
        with service() as (manager, client):
            job = client.check(TOGGLE)
            with pytest.raises(ServeClientError) as exc:
                client._request(
                    "GET", f"/v1/jobs/{job['id']}/events?poll=1&since=nope"
                )
            assert exc.value.status == 400

    def test_events_404_for_unknown_job(self):
        with service() as (manager, client):
            with pytest.raises(ServeClientError) as exc:
                list(client.iter_events("deadbeef"))
            assert exc.value.status == 404

    def test_cache_hits_show_as_cached_state(self, tmp_path):
        with service(store=ResultStore(tmp_path)) as (manager, client):
            client.check(TOGGLE)
            second = client.check(TOGGLE)
            obligations = second["obligations"]
            assert obligations and all(
                o["state"] == "cached" and o["holds"] is True
                for o in obligations.values()
            )


class TestLiveJobRaces:
    def test_trace_409_while_running_then_available(self, monkeypatch):
        from repro.parallel.pool import shutdown_shared

        # the worker-side stall hook holds the obligation open long
        # enough to observe the running job from outside
        monkeypatch.setenv("REPRO_PROGRESS_TEST_STALL", "0.8")
        shutdown_shared()  # a fresh pool must fork with the hook set
        try:
            with service() as (manager, client):
                accepted = client.submit(TOGGLE)
                deadline = time.monotonic() + 30
                while client.job(accepted["id"])["state"] == "queued":
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                assert client.job(accepted["id"])["state"] == "running"
                with pytest.raises(ServeClientError) as exc:
                    client.job_trace(accepted["id"])
                assert exc.value.status == 409
                job = client.wait(accepted["id"])
                assert job["state"] == "done"
                trace = client.job_trace(accepted["id"])
                assert trace["spans"]
        finally:
            shutdown_shared()  # drop the stall-hooked workers

    def test_delete_racing_job_start_is_consistent(self):
        # every race outcome is legal, but each must leave a consistent
        # job document: 200 -> cancelled with a closed stream, 409 ->
        # the job runs to a terminal state untouched
        with service(jobs=2) as (manager, client):
            for _ in range(6):
                accepted = client.submit(TOGGLE)
                try:
                    cancelled = client.cancel(accepted["id"])
                    assert cancelled["state"] == "cancelled"
                    job = client.job(accepted["id"])
                    assert job["state"] == "cancelled"
                    assert job["reports"] is None
                    # the bus closed with the terminal state on it
                    events = list(
                        client.iter_events(accepted["id"], reconnect=False)
                    )
                    assert events[-1]["kind"] == "job.state"
                    assert events[-1]["state"] == "cancelled"
                except ServeClientError as exc:
                    # lost the race: the runner picked the job up first
                    assert exc.status == 409
                    job = client.wait(accepted["id"])
                    assert job["state"] == "done"

    def test_delete_while_runner_is_busy_cancels_queued_job(self):
        # park the runner on its first job so the second stays queued:
        # the deterministic direction of the cancel race
        release = threading.Event()
        with service() as (manager, client):
            original = manager._execute

            def parked(job):
                job.state = "running"
                release.wait(30)
                job.state = "done"

            manager._execute = parked
            try:
                blocker = client.submit(TOGGLE)
                deadline = time.monotonic() + 10
                while manager._idle.is_set():
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                queued = client.submit(TOGGLE)
                cancelled = client.cancel(queued["id"])
                assert cancelled["state"] == "cancelled"
                events = list(
                    client.iter_events(queued["id"], reconnect=False)
                )
                assert events[-1]["kind"] == "job.state"
                assert events[-1]["state"] == "cancelled"
                with pytest.raises(ServeClientError) as exc:
                    client.cancel(blocker["id"])  # already running: 409
                assert exc.value.status == 409
            finally:
                manager._execute = original
                release.set()

    def test_cancelled_queued_job_closes_its_stream(self):
        # runner parked on a stalling first job keeps the second queued
        manager = JobManager(jobs=1, queue_size=8, progress_interval=0.0)
        job = manager.submit([JobRequest(source=TOGGLE)])
        assert manager.cancel(job.id) == "cancelled"
        assert job.progress.closed
        events = job.progress.events_since(0)
        assert events[-1]["kind"] == "job.state"
        assert events[-1]["state"] == "cancelled"

    def test_stale_heartbeats_after_result_are_dropped(self):
        # the parent publishes obligation.result as soon as the pool
        # returns the outcome; that worker's last heartbeats may still
        # sit in the progress queue.  Late ticks must not reach the bus
        # (the stream stays monotone) nor pad the tick counter.
        manager = JobManager(jobs=1, queue_size=8, progress_interval=0.0)
        job = manager.submit([JobRequest(source=TOGGLE)])
        manager._on_progress(
            job, {"kind": "obligation.start", "obligation": "c0.spec0"}
        )
        manager._on_progress(
            job,
            {
                "kind": "obligation.tick",
                "obligation": "c0.spec0",
                "phase": "eu",
                "iterations": 1,
                "size": 3,
            },
        )
        manager._on_progress(
            job,
            {
                "kind": "obligation.result",
                "obligation": "c0.spec0",
                "holds": True,
            },
        )
        before = job.progress.last_seq
        manager._on_progress(
            job,
            {
                "kind": "obligation.tick",
                "obligation": "c0.spec0",
                "phase": "eu",
                "iterations": 2,
                "size": 3,
            },
        )
        assert job.progress.last_seq == before  # late tick never published
        entry = job.obligations["c0.spec0"]
        assert entry["state"] == "done" and entry["ticks"] == 1
        assert_monotone_states(job.progress.events_since(0))


class TestWatchdog:
    def test_stalled_worker_is_flagged_within_deadline(self, monkeypatch):
        from repro.parallel.pool import shutdown_shared

        monkeypatch.setenv("REPRO_PROGRESS_TEST_STALL", "1.0")
        shutdown_shared()
        try:
            with service(stall_deadline=0.2) as (manager, client):
                accepted = client.submit(TOGGLE)
                events = list(client.iter_events(accepted["id"]))
                stalls = [
                    e for e in events if e["kind"] == "obligation.stall"
                ]
                assert stalls, "watchdog never flagged the wedged worker"
                assert all(
                    s["idle_seconds"] > 0.2 and s["deadline"] == 0.2
                    for s in stalls
                )
                job = client.wait(accepted["id"])
                assert job["state"] == "done"  # the sleep ends; job recovers
                # the flag cleared when heartbeats resumed, the evidence
                # stayed: gauge, healthz and the warning in the event log
                assert all(
                    o["stalled"] is False
                    for o in job["obligations"].values()
                )
                health = client.healthz()
                assert health["stalled_obligations"] >= 1
                assert "repro_stalled_obligations 0" not in (
                    client.metrics_text()
                )
        finally:
            shutdown_shared()

    def test_quiet_jobs_never_stall(self):
        with service(stall_deadline=30.0) as (manager, client):
            job = client.check(TOGGLE)
            assert job["state"] == "done"
            assert client.healthz()["stalled_obligations"] == 0
            assert "repro_stalled_obligations 0" in client.metrics_text()

    def test_zero_deadline_disables_watchdog(self):
        with service(stall_deadline=0.0) as (manager, client):
            assert manager._watchdog is None
            health = client.healthz()
            assert health["config"]["stall_deadline_seconds"] == 0.0


class TestOperationalSurface:
    def test_healthz_exposes_config_block(self):
        with service(
            jobs=2, default_timeout=45.0, stall_deadline=7.5
        ) as (manager, client):
            config = client.healthz()["config"]
            assert config == {
                "jobs": 2,
                "queue_size": 8,
                "default_timeout_seconds": 45.0,
                "progress_interval_seconds": 0.0,
                "stall_deadline_seconds": 7.5,
            }

    def test_metrics_include_build_info_gauge(self):
        from repro import __version__

        with service() as (manager, client):
            text = client.metrics_text()
            assert "# TYPE repro_build_info gauge" in text
            assert f'repro_build_info{{version="{__version__}"' in text
            assert 'python="' in text

    def test_client_per_request_timeout_overrides_default(self, monkeypatch):
        import repro.serve.client

        captured = []

        def fake_exchange(url, method="GET", payload=None, headers=None,
                          timeout=None):
            captured.append(timeout)
            return repro.serve.client.Reply(
                status=200,
                headers={"Content-Type": "application/json"},
                body=b"{}",
            )

        # every client request goes through the one client exchange
        monkeypatch.setattr(repro.serve.client, "exchange", fake_exchange)
        client = ServeClient("http://example.invalid", timeout=12.5)
        client.healthz()  # no override: the client default applies
        client.healthz(request_timeout=3.0)  # per-request override wins
        client.job("x", request_timeout=0.5)
        assert captured == [12.5, 3.0, 0.5]
