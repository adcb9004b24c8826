"""Tests for the structured JSONL event log."""

import io
import json

import pytest

from repro.obs.log import (
    EventLog,
    format_event,
    read_events,
    redact_fields,
    source_digest,
)


def make_log(level="info"):
    stream = io.StringIO()
    return EventLog(stream=stream, level=level, clock=lambda: 123.0), stream


def events_of(stream):
    return [json.loads(line) for line in stream.getvalue().splitlines()]


class TestEmission:
    def test_record_shape(self):
        log, stream = make_log()
        log.event("job.done", job_id="ab", seconds=0.25)
        (record,) = events_of(stream)
        assert record == {
            "ts": 123.0,
            "level": "info",
            "event": "job.done",
            "job_id": "ab",
            "seconds": 0.25,
        }

    def test_level_threshold(self):
        log, stream = make_log(level="warning")
        log.debug("noise")
        log.event("info-noise")
        log.warning("kept")
        log.error("also-kept")
        assert [e["event"] for e in events_of(stream)] == ["kept", "also-kept"]

    def test_no_sink_is_silent(self):
        log = EventLog()
        assert not log.enabled
        log.event("dropped")  # must not raise

    def test_unknown_level_rejected(self):
        log, _ = make_log()
        with pytest.raises(ValueError):
            log.event("x", level="loud")
        with pytest.raises(ValueError):
            EventLog(level="loud")


class TestRedaction:
    def test_source_fields_become_digests(self):
        log, stream = make_log()
        log.event("job.submitted", source="MODULE main", checks=1)
        (record,) = events_of(stream)
        assert record["source"] == source_digest("MODULE main")
        assert record["source"].startswith("sha256:")
        assert "MODULE" not in stream.getvalue()
        assert record["checks"] == 1

    def test_redact_fields_copies(self):
        fields = {"smv_source": "MODULE m", "label": "x"}
        redacted = redact_fields(fields)
        assert redacted["smv_source"].startswith("sha256:")
        assert redacted["label"] == "x"
        assert fields["smv_source"] == "MODULE m"  # input untouched

    def test_digest_is_stable_and_sized(self):
        assert source_digest("abc") == source_digest("abc")
        assert source_digest("abc").endswith("/3B")


class TestFileSink:
    def test_path_sink_and_read_back(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path=path, clock=lambda: 1.0)
        log.event("one", n=1)
        log.event("two", n=2)
        log.close()
        events = read_events(path)
        assert [e["event"] for e in events] == ["one", "two"]

    def test_read_events_skips_garbage_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"event": "ok"}\nnot json\n\n[1,2]\n')
        assert [e["event"] for e in read_events(path)] == ["ok"]

    def test_stream_and_path_mutually_exclusive(self, tmp_path):
        with pytest.raises(ValueError):
            EventLog(stream=io.StringIO(), path=tmp_path / "x")


class TestRotation:
    def test_rotates_to_dot_one_at_cap(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path=path, clock=lambda: 1.0, max_bytes=200)
        for i in range(20):
            log.event("fill", n=i)
        log.close()
        rolled = tmp_path / "events.jsonl.1"
        assert rolled.exists(), "no rollover happened"
        assert path.stat().st_size <= 200
        assert rolled.stat().st_size <= 200
        # both generations stay parseable, together covering every event
        total = len(read_events(rolled)) + len(read_events(path))
        assert 0 < total <= 20

    def test_second_rotation_replaces_previous_rollover(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path=path, clock=lambda: 1.0, max_bytes=120)
        for i in range(40):
            log.event("fill", n=i)
        log.close()
        # only ever two generations on disk
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "events.jsonl",
            "events.jsonl.1",
        ]

    def test_oversized_single_record_still_written(self, tmp_path):
        # a record bigger than the cap must not rotate forever: an empty
        # file is never rotated, the record lands in it
        path = tmp_path / "events.jsonl"
        log = EventLog(path=path, max_bytes=10)
        log.event("huge", payload="x" * 100)
        log.close()
        assert len(read_events(path)) == 1
        assert not (tmp_path / "events.jsonl.1").exists()

    def test_no_cap_never_rotates(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path=path)
        for i in range(50):
            log.event("fill", n=i)
        log.close()
        assert len(read_events(path)) == 50
        assert not (tmp_path / "events.jsonl.1").exists()

    def test_reopened_log_counts_existing_bytes(self, tmp_path):
        path = tmp_path / "events.jsonl"
        # a fixed clock fixes the width of `ts`, so every line has the
        # same length on every run and so does the rotation decision
        first = EventLog(path=path, clock=lambda: 1.0, max_bytes=300)
        first.event("seed", payload="x" * 120)
        first.close()
        size = path.stat().st_size
        second = EventLog(path=path, clock=lambda: 1.0, max_bytes=300)
        second.event("next", payload="y" * 120)
        second.close()
        # the reopened log resumed byte accounting from the existing file,
        # so the second line did not fit beside the first and rotated it
        assert 2 * size > 300
        assert second._written >= size
        assert [e["event"] for e in read_events(path)] == ["next"]
        rotated = tmp_path / "events.jsonl.1"
        assert [e["event"] for e in read_events(rotated)] == ["seed"]


class TestFormatting:
    def test_format_event_line(self):
        line = format_event(
            {"ts": 0.0, "level": "error", "event": "job.failed", "job_id": "ab"}
        )
        assert line == "1970-01-01T00:00:00Z ERROR job.failed job_id=ab"

    def test_format_event_compacts_floats_and_json(self):
        line = format_event(
            {"ts": 0.0, "event": "e", "v": 0.123456789, "d": {"a": 1}}
        )
        assert "v=0.123457" in line
        assert 'd={"a":1}' in line
