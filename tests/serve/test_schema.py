"""The check-report payload: shape, determinism, rendering."""

import json

import pytest

from repro.serve.schema import REPORT_SCHEMA, format_payload, report_payload
from repro.store import ResultStore
from repro.store.cached import cached_check

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


class TestReportPayload:
    def test_shape(self):
        payload = report_payload(cached_check(GOOD), with_cache=False)
        assert payload["schema"] == REPORT_SCHEMA
        assert payload["module"] == "main"
        assert payload["engine"] == "symbolic"
        assert payload["all_true"] is True
        assert payload["cache"] is None
        (spec,) = payload["specs"]
        assert spec["holds"] is True and spec["cached"] is False
        assert len(spec["fingerprint"]) == 64
        assert "resources" in payload

    def test_json_serializable(self):
        payload = report_payload(cached_check(BAD))
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped["all_true"] is False
        assert round_tripped["specs"][0]["counterexample"]

    def test_cache_block(self, tmp_path):
        store = ResultStore(tmp_path)
        cached_check(GOOD, store=store)
        payload = report_payload(cached_check(GOOD, store=store))
        assert payload["cache"] == {"hits": 1, "misses": 0}

    def test_warm_payload_matches_cold(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = report_payload(cached_check(GOOD, store=store))
        warm = report_payload(cached_check(GOOD, store=store))
        cold.pop("cache")
        warm.pop("cache")
        for spec in cold["specs"]:
            spec.pop("cached")
        for spec in warm["specs"]:
            spec.pop("cached")
        assert cold == warm


class TestFormatPayload:
    def test_renders_like_a_report(self):
        text = format_payload(report_payload(cached_check(GOOD)))
        assert "-- spec. x -> AX x is true" in text
        assert "resources used:" in text
        assert "BDD nodes allocated:" in text

    def test_counterexample_rendering(self):
        text = format_payload(report_payload(cached_check(BAD)))
        assert "is false" in text
        assert "execution sequence" in text
        assert "state 1.1:" in text

    def test_cache_line(self, tmp_path):
        store = ResultStore(tmp_path)
        cached_check(GOOD, store=store)
        text = format_payload(
            report_payload(cached_check(GOOD, store=store))
        )
        assert "result store: 1 hit(s), 0 miss(es)" in text

    def test_stats_line_optional(self):
        payload = report_payload(cached_check(GOOD))
        assert "BDD cache:" not in format_payload(payload)
        assert "BDD cache:" in format_payload(payload, with_stats=True)


class TestRendersLikeCheck:
    """``repro submit`` prints what ``repro check`` prints for a run."""

    @pytest.mark.parametrize("with_stats", [False, True])
    @pytest.mark.parametrize("engine", ["symbolic", "explicit"])
    @pytest.mark.parametrize("source", [GOOD, BAD], ids=["good", "bad"])
    def test_format_payload_equals_check_output(
        self, source, engine, with_stats, tmp_path, monkeypatch, capsys
    ):
        import repro.store.cached
        from repro.cli import main

        run = cached_check(source, engine=engine)
        # `repro check` renders exactly this run
        monkeypatch.setattr(
            repro.store.cached, "cached_check", lambda *a, **k: run
        )
        path = tmp_path / "model.smv"
        path.write_text(source)
        flags = ["--cache", str(tmp_path / "store")]
        if engine == "explicit":
            flags.append("--explicit")
        if with_stats:
            flags.append("--stats")
        main(["check", str(path), *flags])
        printed = capsys.readouterr().out
        payload = report_payload(run, with_cache=False)
        assert format_payload(payload, with_stats=with_stats) + "\n" == printed
