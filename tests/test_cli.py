"""Tests for the command-line interface."""

import pytest

from repro.cli import main

GOOD = """
MODULE main
VAR x : boolean;
ASSIGN next(x) := 1;
SPEC x -> AX x
"""

BAD = """
MODULE main
VAR x : boolean;
ASSIGN next(x) := {0, 1};
SPEC x -> AX x
"""


@pytest.fixture
def good_file(tmp_path):
    path = tmp_path / "good.smv"
    path.write_text(GOOD)
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.smv"
    path.write_text(BAD)
    return str(path)


class TestCheck:
    def test_exit_zero_when_true(self, good_file, capsys):
        assert main(["check", good_file]) == 0
        out = capsys.readouterr().out
        assert "is true" in out and "BDD nodes allocated" in out

    def test_exit_one_when_false(self, bad_file, capsys):
        assert main(["check", bad_file]) == 1
        assert "is false" in capsys.readouterr().out

    def test_explicit_engine(self, good_file, capsys):
        assert main(["check", "--explicit", good_file]) == 0
        assert "is true" in capsys.readouterr().out

    def test_stats_flag_symbolic(self, good_file, capsys):
        assert main(["check", "--stats", good_file]) == 0
        out = capsys.readouterr().out
        assert "BDD cache:" in out and "hit rate" in out
        assert "BDD unique table: peak" in out
        assert "fixpoint iterations:" in out

    def test_stats_flag_explicit(self, good_file, capsys):
        assert main(["check", "--explicit", "--stats", good_file]) == 0
        out = capsys.readouterr().out
        assert "resources used:" in out
        assert "subformulas evaluated:" in out

    def test_no_stats_by_default(self, good_file, capsys):
        assert main(["check", good_file]) == 0
        assert "BDD cache:" not in capsys.readouterr().out

    def test_reflexive_flag_changes_semantics(self, tmp_path, capsys):
        path = tmp_path / "m.smv"
        path.write_text(
            "MODULE main\nVAR x : boolean;\nASSIGN next(x) := 1;\nSPEC !x -> AX x\n"
        )
        assert main(["check", str(path)]) == 0
        assert main(["check", "--reflexive", str(path)]) == 1


class TestCheckCache:
    def test_cold_then_warm_stdout_identical(self, good_file, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["check", good_file, "--cache", cache]) == 0
        cold = capsys.readouterr()
        assert "result store: 0 hit(s), 1 miss(es)" in cold.err
        assert main(["check", good_file, "--cache", cache]) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out  # byte-identical report
        assert "result store: 1 hit(s), 0 miss(es)" in warm.err

    def test_cache_preserves_failure_exit_code(self, bad_file, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["check", bad_file, "--cache", cache]) == 1
        cold = capsys.readouterr().out
        assert "execution sequence" in cold
        assert main(["check", bad_file, "--cache", cache]) == 1
        assert capsys.readouterr().out == cold

    def test_cache_explicit_engine(self, good_file, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["check", "--explicit", good_file, "--cache", cache]) == 0
        assert "is true" in capsys.readouterr().out
        assert main(["check", "--explicit", good_file, "--cache", cache]) == 0
        assert "result store: 1 hit(s)" in capsys.readouterr().err

    def test_cached_report_matches_plain_check(self, good_file, capsys, tmp_path):
        assert main(["check", good_file]) == 0
        plain = capsys.readouterr().out
        assert main(["check", good_file, "--cache", str(tmp_path / "c")]) == 0
        cached = capsys.readouterr().out

        def stable(text):  # wall time is the one legitimate difference
            return [
                line
                for line in text.splitlines()
                if not line.startswith("user time:")
            ]

        assert stable(cached) == stable(plain)


class TestCheckJson:
    def test_json_payload_shape(self, good_file, capsys):
        import json

        assert main(["check", good_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.check-report/1"
        assert payload["all_true"] is True
        assert payload["cache"] is None
        (spec,) = payload["specs"]
        assert spec["holds"] is True and len(spec["fingerprint"]) == 64

    def test_json_exit_code_and_counterexample(self, bad_file, capsys):
        import json

        assert main(["check", bad_file, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_true"] is False
        assert payload["specs"][0]["counterexample"]

    def test_json_with_cache_reports_hits(self, good_file, capsys, tmp_path):
        import json

        cache = str(tmp_path / "cache")
        assert main(["check", good_file, "--json", "--cache", cache]) == 0
        capsys.readouterr()
        assert main(["check", good_file, "--json", "--cache", cache]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"] == {"hits": 1, "misses": 0}
        assert payload["specs"][0]["cached"] is True


class TestServeSubmit:
    def test_round_trip_over_http(self, good_file, bad_file, capsys, tmp_path):
        import threading

        from repro.serve.http import create_server
        from repro.serve.jobs import JobManager
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "cache")
        manager = JobManager(jobs=1, store=store, metrics=store.metrics)
        server = create_server(manager=manager)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.port}"
        try:
            assert main(["submit", good_file, "--url", url]) == 0
            out = capsys.readouterr().out
            assert "is true" in out and "result store:" in out
            assert main(["submit", good_file, bad_file, "--url", url]) == 1
            out = capsys.readouterr().out
            assert "is false" in out and "==" in out  # per-file headers
        finally:
            server.shutdown()
            server.server_close()
            manager.stop()

    def test_submit_unreachable_exits_2(self, good_file, capsys):
        code = main(
            ["submit", good_file, "--url", "http://127.0.0.1:1", "--wait", "1"]
        )
        assert code == 2
        assert "repro:" in capsys.readouterr().err


class TestSimulate:
    def test_prints_states(self, good_file, capsys):
        assert main(["simulate", good_file, "-n", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "-> State 0 <-" in out and "-> State 3 <-" in out


class TestGraph:
    def test_dot_output(self, good_file, capsys):
        assert main(["graph", good_file]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_decoded_output(self, good_file, capsys):
        assert main(["graph", "--decoded", good_file]) == 0
        assert "x=" in capsys.readouterr().out


class TestReachable:
    def test_stats(self, good_file, capsys):
        assert main(["reachable", good_file]) == 0
        out = capsys.readouterr().out
        assert "reachable states" in out
        assert "diameter" in out


class TestObservability:
    def test_trace_writes_chrome_events(self, good_file, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        assert main(["check", good_file, "--trace", str(out)]) == 0
        document = json.loads(out.read_text())
        events = document["traceEvents"]
        assert any(e["ph"] == "X" for e in events)
        names = {e["name"] for e in events}
        assert {"smv.parse", "smv.check_model", "check.symbolic"} <= names
        assert "trace written to" in capsys.readouterr().err

    def test_trace_format_jsonl(self, good_file, tmp_path):
        import json

        out = tmp_path / "trace.jsonl"
        code = main(
            ["check", good_file, "--trace", str(out), "--trace-format", "jsonl"]
        )
        assert code == 0
        records = [
            json.loads(line) for line in out.read_text().splitlines() if line
        ]
        assert records and records[0]["id"] == 0
        assert {"smv.parse", "check.symbolic"} <= {r["name"] for r in records}

    def test_profile_prints_span_tree_and_table(self, good_file, capsys):
        assert main(["check", good_file, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "span tree (inclusive wall time):" in out
        assert "by span name (sorted by inclusive time):" in out
        assert "smv.check_model" in out

    def test_trace_preserves_exit_code(self, bad_file, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["check", bad_file, "--trace", str(out)]) == 1
        assert out.exists()

    def test_no_trace_flags_leave_tracer_disabled(self, good_file):
        from repro.obs.tracer import TRACER

        TRACER.reset()
        assert main(["check", good_file]) == 0
        assert list(TRACER.spans()) == []

    def test_demo_supports_profile(self, capsys):
        assert main(["demo", "afs1-safety", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "proof.obligation" in out
        assert "by span name (sorted by inclusive time):" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_missing_file_exits_2(capsys):
    assert main(["check", "/nonexistent/model.smv"]) == 2
    assert "repro:" in capsys.readouterr().err


def test_syntax_error_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.smv"
    path.write_text("MODULE main VAR x :")
    assert main(["check", str(path)]) == 2
    assert "repro:" in capsys.readouterr().err


class TestObsCommand:
    @pytest.fixture
    def event_log(self, tmp_path):
        import json

        path = tmp_path / "events.jsonl"
        records = [
            {"ts": 10.0, "level": "info", "event": "job.submitted",
             "trace_id": "t1", "job_id": "j1", "checks": 2},
            {"ts": 11.0, "level": "debug", "event": "job.check",
             "trace_id": "t1", "job_id": "j1", "index": 0},
            {"ts": 12.0, "level": "info", "event": "job.done",
             "trace_id": "t1", "job_id": "j1", "total_seconds": 2.0},
            {"ts": 13.0, "level": "error", "event": "job.failed",
             "trace_id": "t2", "job_id": "j2", "error": "boom"},
        ]
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        return str(path)

    def test_tail_renders_events(self, event_log, capsys):
        assert main(["obs", "tail", event_log]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert len(lines) == 4
        assert "job.submitted" in lines[0] and "trace_id=t1" in lines[0]
        assert lines[-1].split()[1] == "ERROR"

    def test_tail_respects_line_count_and_level(self, event_log, capsys):
        assert main(["obs", "tail", event_log, "-n", "1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1
        assert main(["obs", "tail", event_log, "--level", "error"]) == 0
        out = capsys.readouterr().out
        assert "job.failed" in out and "job.done" not in out

    def test_tail_filters_by_trace_id(self, event_log, capsys):
        assert main(["obs", "tail", event_log, "--trace-id", "t2"]) == 0
        out = capsys.readouterr().out
        assert "job.failed" in out and "job.submitted" not in out

    def test_summary_counts_and_latency(self, event_log, capsys):
        assert main(["obs", "summary", event_log]) == 0
        out = capsys.readouterr().out
        assert "events: 4 (1 error(s))" in out
        assert "job.submitted" in out and "job.done" in out
        assert "job.done latency: n=1" in out
        assert "mean=2.0000s" in out

    def test_serve_log_file_round_trip(self, good_file, tmp_path, capsys):
        """repro serve --log-file events feed repro obs summary."""
        import pathlib
        import time

        from repro.obs.log import EventLog
        from repro.serve.jobs import JobManager, JobRequest

        log_path = tmp_path / "serve.jsonl"
        log = EventLog(path=log_path)
        manager = JobManager(jobs=1, queue_size=2, log=log)
        manager.start()
        try:
            job = manager.submit(
                [JobRequest(source=pathlib.Path(good_file).read_text())]
            )
            deadline = time.monotonic() + 60
            while not job.terminal and time.monotonic() < deadline:
                time.sleep(0.01)
            assert job.state == "done"
        finally:
            manager.stop()
            log.close()
        assert main(["obs", "summary", str(log_path)]) == 0
        out = capsys.readouterr().out
        assert "job.done" in out


class TestStoreCommand:
    @pytest.fixture
    def populated(self, good_file, tmp_path, capsys):
        cache = tmp_path / "cache"
        main(["check", good_file, "--cache", str(cache)])
        main(["check", good_file, "--cache", str(cache)])
        capsys.readouterr()
        return cache

    def test_stats_reports_inventory_and_counters(self, populated, capsys):
        assert main(["store", "stats", str(populated)]) == 0
        out = capsys.readouterr().out
        assert f"result store: {populated}" in out
        assert "by kind:" in out and "spec" in out
        assert "hits.spec: 1" in out and "misses.spec: 1" in out

    def test_stats_json(self, populated, capsys):
        import json

        assert main(["store", "stats", str(populated), "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["records"] == len(list(populated.glob("objects/*/*.json")))
        assert info["counters"]["writes.spec"] == 1

    def test_gc_to_zero_evicts_everything(self, populated, capsys):
        assert main(
            ["store", "gc", str(populated), "--max-bytes", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "0 remain (0 bytes)" in out
        assert not list(populated.glob("objects/*/*.json"))

    def test_clear_removes_records(self, populated, capsys):
        assert main(["store", "clear", str(populated)]) == 0
        assert "record(s)" in capsys.readouterr().out
        assert not list(populated.glob("objects/*/*.json"))


class TestDemoCache:
    def test_demo_cache_cold_then_warm(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["demo", "afs2-safety", "--cache", cache]) == 0
        cold = capsys.readouterr()
        assert "0 hit(s), 3 miss(es)" in cold.err
        assert main(["demo", "afs2-safety", "--cache", cache]) == 0
        warm = capsys.readouterr()
        assert "3 hit(s), 0 miss(es)" in warm.err
        assert warm.out == cold.out

    def test_demo_without_cache_prints_no_store_line(self, capsys):
        assert main(["demo", "mutex"]) == 0
        assert "result store" not in capsys.readouterr().err

    def test_demo_header_separates_name_and_description(self, capsys):
        assert main(["demo", "mutex"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == (
            "demo: mutex — token-ring mutual exclusion, 3 processes"
        )
