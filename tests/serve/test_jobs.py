"""JobManager lifecycle: queueing, backpressure, cancel, drain."""

import pytest

from repro.serve.jobs import Job, JobManager, JobRequest, QueueFullError
from repro.store import ResultStore

GOOD = """
MODULE main
VAR x : boolean;
ASSIGN next(x) := 1;
SPEC x -> AX x
"""

BROKEN = "MODULE main\nVAR x : nonsense_type;\n"

THREE = """
MODULE main
VAR x : boolean;
ASSIGN next(x) := !x;
SPEC AG EF x
SPEC AG EF !x
SPEC AG (x -> AX !x)
"""


@pytest.fixture
def manager(tmp_path):
    manager = JobManager(
        jobs=1, queue_size=2, store=ResultStore(tmp_path), default_timeout=60
    )
    yield manager
    manager.stop()


def _wait(manager, job, timeout=60.0):
    import time

    deadline = time.monotonic() + timeout
    while not job.terminal:
        assert time.monotonic() < deadline, f"job stuck in {job.state}"
        time.sleep(0.01)
    return job


class TestJobRequest:
    def test_from_dict_minimal(self):
        request = JobRequest.from_dict({"source": GOOD})
        assert request.engine == "symbolic" and not request.reflexive

    def test_rejects_empty_source(self):
        with pytest.raises(ValueError):
            JobRequest.from_dict({"source": "  "})
        with pytest.raises(ValueError):
            JobRequest.from_dict({})

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            JobRequest.from_dict({"source": GOOD, "engine": "quantum"})


class TestExecution:
    def test_job_runs_to_done(self, manager):
        manager.start()
        job = manager.submit([JobRequest(source=GOOD)])
        assert isinstance(job, Job) and job.state == "queued"
        _wait(manager, job)
        assert job.state == "done"
        (report,) = job.reports
        assert report["all_true"] is True
        assert report["cache"] == {"hits": 0, "misses": 1}

    def test_second_submission_hits_cache(self, manager):
        manager.start()
        first = _wait(manager, manager.submit([JobRequest(source=GOOD)]))
        second = _wait(manager, manager.submit([JobRequest(source=GOOD)]))
        assert first.reports[0]["cache"]["misses"] == 1
        assert second.reports[0]["cache"] == {"hits": 1, "misses": 0}

    def test_bad_source_fails_cleanly(self, manager):
        manager.start()
        job = _wait(manager, manager.submit([JobRequest(source=BROKEN)]))
        assert job.state == "failed"
        assert job.error and job.reports is None

    def test_label_rides_along(self, manager):
        manager.start()
        job = _wait(
            manager,
            manager.submit([JobRequest(source=GOOD, label="toggle")]),
        )
        assert job.reports[0]["label"] == "toggle"


class TestBackpressure:
    def test_queue_full_raises(self, tmp_path):
        # no runner thread: jobs stay queued, so the third submit bounces
        manager = JobManager(jobs=1, queue_size=2)
        manager.submit([JobRequest(source=GOOD)])
        manager.submit([JobRequest(source=GOOD)])
        with pytest.raises(QueueFullError):
            manager.submit([JobRequest(source=GOOD)])
        assert manager.metrics.as_dict()["serve.queue_full_rejections"] == 1

    def test_empty_batch_rejected(self, manager):
        with pytest.raises(ValueError):
            manager.submit([])

    def test_draining_rejects(self, manager):
        manager.draining = True
        with pytest.raises(QueueFullError):
            manager.submit([JobRequest(source=GOOD)])


class TestCancel:
    def test_cancel_queued(self):
        manager = JobManager(jobs=1, queue_size=4)  # runner not started
        job = manager.submit([JobRequest(source=GOOD)])
        assert manager.cancel(job.id) == "cancelled"
        assert job.state == "cancelled"

    def test_cancel_unknown(self, manager):
        assert manager.cancel("nope") is None

    def test_cancel_terminal_returns_state(self, manager):
        manager.start()
        job = _wait(manager, manager.submit([JobRequest(source=GOOD)]))
        assert manager.cancel(job.id) == "done"

    def test_cancelled_job_is_skipped(self, tmp_path):
        manager = JobManager(jobs=1, queue_size=4)
        job = manager.submit([JobRequest(source=GOOD)])
        manager.cancel(job.id)
        manager.start()
        try:
            other = _wait(
                manager, manager.submit([JobRequest(source=GOOD)])
            )
            assert other.state == "done"
            assert job.state == "cancelled" and job.reports is None
        finally:
            manager.stop()


class TestFinishedJobHistory:
    def test_oldest_terminal_jobs_are_shed(self, tmp_path, monkeypatch):
        """A manager keeps the newest ``FINISHED_JOBS_KEPT`` terminal
        jobs; a shed id answers 404, a queued job is never shed."""
        from repro.serve import jobs as jobs_module
        from repro.serve.jobs import ServeError

        monkeypatch.setattr(jobs_module, "FINISHED_JOBS_KEPT", 3)
        manager = JobManager(jobs=1, queue_size=8, store=ResultStore(tmp_path))
        cancelled = [manager.submit([JobRequest(source=GOOD)]) for _ in range(3)]
        queued = manager.submit([JobRequest(source=GOOD)])
        cancelled += [manager.submit([JobRequest(source=GOOD)]) for _ in range(2)]
        for job in cancelled:
            assert manager.cancel(job.id) == "cancelled"
        # five terminal, three kept; the older queued job stays
        assert [manager.get(job.id) for job in cancelled[:2]] == [None, None]
        assert manager.get(queued.id) is queued
        manager.start()
        assert manager.drain(timeout=60)
        assert queued.state == "done"
        kept = [job.id for job in (*cancelled, queued) if manager.get(job.id)]
        assert kept == [cancelled[3].id, cancelled[4].id, queued.id]
        assert manager.stats()["jobs_total"] == 3
        with pytest.raises(ServeError) as exc:
            manager.job_document(cancelled[2].id)
        assert exc.value.status == 404


class TestDrain:
    def test_drain_finishes_backlog(self, tmp_path):
        manager = JobManager(jobs=1, queue_size=8)
        jobs = [
            manager.submit([JobRequest(source=GOOD)]) for _ in range(3)
        ]
        manager.start()
        assert manager.drain(timeout=60)
        assert all(job.state == "done" for job in jobs)
        assert manager.draining

    def test_stats(self, manager):
        manager.submit([JobRequest(source=GOOD)])
        stats = manager.stats()
        assert stats["queued"] == 1 and stats["jobs_total"] == 1
        assert stats["draining"] is False


class TestRequestObservability:
    def test_job_records_trace_and_timings(self, manager):
        manager.start()
        job = _wait(manager, manager.submit([JobRequest(source=GOOD)]))
        assert job.state == "done"
        assert len(job.trace_id) == 32
        names = {record["name"] for record in job.trace}
        assert {"serve.job", "serve.check", "store.probe"} <= names
        assert job.timings["total_seconds"] > 0
        assert job.timings["queue_wait_seconds"] >= 0
        # the job document exposes timings but not the span dump
        doc = job.to_dict()
        assert doc["trace_id"] == job.trace_id
        assert doc["timings"] == job.timings
        assert "trace" not in doc

    def test_submitted_trace_context_is_used(self, manager):
        from repro.obs.tracer import TraceContext

        manager.start()
        ctx = TraceContext.mint()
        job = _wait(
            manager, manager.submit([JobRequest(source=GOOD)], trace=ctx)
        )
        assert job.trace_id == ctx.trace_id

    def test_histograms_observe_each_job(self, manager):
        manager.start()
        _wait(manager, manager.submit([JobRequest(source=GOOD)]))
        _wait(manager, manager.submit([JobRequest(source=GOOD)]))
        hists = manager.metrics.histograms
        assert hists["request.duration_seconds"].count == 2
        assert hists["request.stage.check_seconds"].count == 2
        assert hists["request.stage.queue_wait_seconds"].count == 2

    def test_stage_timings_are_span_sums(self, manager):
        manager.start()
        job = _wait(
            manager,
            manager.submit([JobRequest(source=GOOD), JobRequest(source=THREE)]),
        )
        assert job.state == "done"
        assert set(job.timings) == {
            "queue_wait_seconds",
            "cache_probe_seconds",
            "check_seconds",
            "serialize_seconds",
            "total_seconds",
        }
        for key, name in (
            ("check_seconds", "serve.check"),
            ("serialize_seconds", "serve.serialize"),
            ("cache_probe_seconds", "store.probe"),
        ):
            spans = [r for r in job.trace if r["name"] == name]
            assert len(spans) == 2
            # the records keep microseconds to three places; timings to six
            total = sum(r["dur_us"] for r in spans) / 1e6
            assert job.timings[key] == pytest.approx(total, abs=2e-6)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_obligation_seconds_are_report_user_time(self, tmp_path, jobs):
        """An obligation's ``seconds`` is the checker's own measurement,
        the ``user_time`` its report carries, not a second timer."""
        manager = JobManager(
            jobs=jobs, queue_size=2, store=ResultStore(tmp_path)
        )
        manager.start()
        try:
            job = _wait(
                manager,
                manager.submit(
                    [JobRequest(source=THREE), JobRequest(source=GOOD)]
                ),
            )
        finally:
            manager.stop()
        assert job.state == "done"
        checked = 0
        for index, report in enumerate(job.reports):
            for n, spec in enumerate(report["specs"]):
                assert not spec["cached"]
                entry = job.obligations[f"c{index}.spec{n}"]
                assert entry["state"] == "done"
                assert entry["seconds"] == round(spec["stats"]["user_time"], 6)
                checked += 1
        assert checked == 4

    def test_event_log_records_lifecycle(self, tmp_path):
        import io
        import json

        from repro.obs.log import EventLog

        stream = io.StringIO()
        log = EventLog(stream=stream, level="debug")
        manager = JobManager(
            jobs=1, queue_size=2, store=ResultStore(tmp_path), log=log
        )
        manager.start()
        try:
            job = _wait(manager, manager.submit([JobRequest(source=GOOD)]))
        finally:
            manager.stop()
        events = [json.loads(line) for line in stream.getvalue().splitlines()]
        names = [event["event"] for event in events]
        assert names[0] == "job.submitted"
        assert "job.started" in names and "job.done" in names
        for event in events:
            if event["event"] == "job.submitted":
                assert all(
                    digest.startswith("sha256:")
                    for digest in event["sources"]
                )
            if event["event"] in ("job.started", "job.done"):
                assert event["trace_id"] == job.trace_id
                assert event["job_id"] == job.id
        done = next(e for e in events if e["event"] == "job.done")
        assert done["state"] == "done"
        assert done["total_seconds"] >= 0

    def test_failed_job_logs_error_event(self, tmp_path):
        import io
        import json

        from repro.obs.log import EventLog

        stream = io.StringIO()
        log = EventLog(stream=stream)
        manager = JobManager(jobs=1, queue_size=2, log=log)
        manager.start()
        try:
            job = _wait(manager, manager.submit([JobRequest(source=BROKEN)]))
        finally:
            manager.stop()
        assert job.state == "failed"
        events = [json.loads(line) for line in stream.getvalue().splitlines()]
        failed = next(e for e in events if e["event"] == "job.failed")
        assert failed["level"] == "error"
        assert failed["error"]


class _StateRecordingStore(ResultStore):
    """A store whose ``flush_counters`` notes the job's state at call time."""

    job: Job | None = None

    def __init__(self, root):
        super().__init__(root)
        self.states_at_flush: list[str] = []

    def flush_counters(self):
        self.states_at_flush.append(self.job.state)
        return super().flush_counters()


class TestCounterFlushOrder:
    def test_counters_flushed_before_terminal_state(self, tmp_path):
        # a client that sees the job done may read counters.json at once
        store = _StateRecordingStore(tmp_path)
        manager = JobManager(jobs=1, queue_size=2, store=store)
        store.job = manager.submit([JobRequest(source=GOOD)])
        manager.start()  # after store.job is set: no race with the runner
        try:
            assert _wait(manager, store.job).state == "done"
            assert store.states_at_flush == ["running"]
            assert (tmp_path / "counters.json").exists()
        finally:
            manager.stop()
