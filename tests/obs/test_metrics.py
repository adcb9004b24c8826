"""Tests for MetricsRegistry aggregation semantics."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.checking.result import CheckStats
from repro.obs.export import to_prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


class TestAccumulation:
    def test_plain_counters_sum(self):
        reg = MetricsRegistry()
        reg.add("check.fixpoint_iterations", 3)
        reg.add("check.fixpoint_iterations", 4)
        assert reg.get("check.fixpoint_iterations") == 7.0

    def test_peak_counters_take_max(self):
        reg = MetricsRegistry()
        reg.add("bdd.peak_unique_nodes", 100)
        reg.add("bdd.peak_unique_nodes", 40)
        reg.add("check.bdd_nodes_allocated", 10)
        reg.add("check.bdd_nodes_allocated", 25)
        assert reg.get("bdd.peak_unique_nodes") == 100.0
        assert reg.get("check.bdd_nodes_allocated") == 25.0

    def test_get_default(self):
        assert MetricsRegistry().get("missing") == 0.0
        assert MetricsRegistry().get("missing", -1.0) == -1.0


class TestStructuredFeeders:
    def test_record_check_stats(self):
        reg = MetricsRegistry()
        stats = CheckStats(
            user_time=0.5,
            fixpoint_iterations=12,
            bdd_cache_lookups=100,
            bdd_cache_hits=60,
            bdd_peak_unique_nodes=500,
        )
        reg.record_check_stats(stats)
        reg.record_check_stats(stats)
        assert reg.get("check.user_time") == pytest.approx(1.0)
        assert reg.get("check.fixpoint_iterations") == 24.0
        assert reg.get("check.bdd_cache_lookups") == 200.0
        # peak: max, not sum
        assert reg.get("check.bdd_peak_unique_nodes") == 500.0

    def test_record_check_stats_skips_zero_fields(self):
        reg = MetricsRegistry()
        reg.record_check_stats(CheckStats())
        assert len(reg) == 0

    def test_record_bdd_delta_duck_typed(self):
        class Counter:
            lookups, hits, inserts = 10, 6, 4

        class Delta:
            mk_calls = 42
            peak_unique_nodes = 7
            ops = {"and": Counter()}

        reg = MetricsRegistry()
        reg.record_bdd_delta(Delta())
        assert reg.get("bdd.mk_calls") == 42.0
        assert reg.get("bdd.peak_unique_nodes") == 7.0
        assert reg.get("bdd.and.lookups") == 10.0
        assert reg.get("bdd.and.hits") == 6.0


class TestSpanCollection:
    def test_collect_groups_by_span_name(self):
        t = Tracer(enabled=True)
        with t.span("check") as root:
            root.add("iterations", 2)
            with t.span("image"):
                pass
            with t.span("image"):
                pass
        reg = MetricsRegistry().collect(t.spans())
        assert reg.get("check.calls") == 1.0
        assert reg.get("image.calls") == 2.0
        assert reg.get("check.iterations") == 2.0
        assert reg.get("check.seconds") >= reg.get("image.seconds")
        assert reg.get("check.self_seconds") == pytest.approx(
            reg.get("check.seconds") - reg.get("image.seconds")
        )


class TestReporting:
    def test_as_dict_sorted(self):
        reg = MetricsRegistry()
        reg.add("b", 2)
        reg.add("a", 1)
        assert list(reg.as_dict()) == ["a", "b"]

    def test_format_renders_ints_and_floats(self):
        reg = MetricsRegistry()
        reg.add("calls", 3)
        reg.add("seconds", 0.25)
        assert reg.format() == "calls = 3\nseconds = 0.25"


class TestRegistryMerge:
    def test_merge_sums_plain_counters(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.add("parallel.items", 3)
        worker.add("parallel.items", 2)
        worker.add("parallel.check_seconds", 0.5)
        parent.merge(worker)
        assert parent.get("parallel.items") == 5.0
        assert parent.get("parallel.check_seconds") == 0.5

    def test_merge_takes_max_of_peaks_across_workers(self):
        # regression: per-worker memory high-water marks must aggregate
        # as max, not sum — no process ever held the summed node count
        parent = MetricsRegistry()
        parent.add("parallel.bdd.peak_unique_nodes", 900)
        for peak in (700, 1200, 300):
            worker = MetricsRegistry()
            worker.add("parallel.bdd.peak_unique_nodes", peak)
            parent.merge(worker)
        assert parent.get("parallel.bdd.peak_unique_nodes") == 1200.0

    def test_merge_covers_every_peak_suffix(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        for name in (
            "check.bdd_nodes_allocated",
            "check.transition_nodes",
            "bdd.peak_unique_nodes",
        ):
            parent.add(name, 100)
            worker.add(name, 40)
        parent.merge(worker)
        for name in (
            "check.bdd_nodes_allocated",
            "check.transition_nodes",
            "bdd.peak_unique_nodes",
        ):
            assert parent.get(name) == 100.0, name

    def test_merge_combines_histograms_bucket_by_bucket(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.observe("request.duration_seconds", 0.05, bounds=(0.1, 1.0))
        worker.observe("request.duration_seconds", 0.5, bounds=(0.1, 1.0))
        worker.observe("request.duration_seconds", 5.0, bounds=(0.1, 1.0))
        parent.merge(worker)
        hist = parent.histogram("request.duration_seconds", bounds=(0.1, 1.0))
        assert hist.count == 3
        assert hist.cumulative() == [1, 2]

    def test_merge_returns_self(self):
        reg = MetricsRegistry()
        assert reg.merge(MetricsRegistry()) is reg


def json_round_trip(registry: MetricsRegistry) -> MetricsRegistry:
    """``to_dict`` → JSON text → ``from_dict``: the ``/v1/metrics`` hop."""
    document = json.loads(json.dumps(registry.to_dict()))
    return MetricsRegistry.from_dict(document)


class TestJsonRoundTrip:
    def test_serve_document_is_byte_identical(self):
        reg = MetricsRegistry()
        reg.add("serve.jobs_submitted", 7)
        reg.add("serve.checks_submitted", 12)
        reg.add("bdd.peak_unique_nodes", 4096)
        reg.observe("router.submit_seconds", 0.004)
        reg.observe("router.submit_seconds", 2.5)
        text = to_prometheus_text(reg)
        assert to_prometheus_text(json_round_trip(reg)) == text

    def test_empty_registry(self):
        restored = json_round_trip(MetricsRegistry())
        assert restored.as_dict() == {}
        assert restored.histograms == {}

    @pytest.mark.parametrize(
        "document",
        [{}, {"values": []}, {"values": {}, "histograms": {"h": {}}}],
    )
    def test_malformed_document_raises(self, document):
        with pytest.raises((AttributeError, KeyError, TypeError, ValueError)):
            MetricsRegistry.from_dict(document)

    @given(
        gauges=st.dictionaries(
            st.from_regex(r"[a-z][a-z_.]{0,10}", fullmatch=True),
            st.one_of(
                st.integers(min_value=0, max_value=10**9).map(float),
                st.floats(min_value=0, max_value=1e6, allow_nan=False),
            ),
            max_size=6,
        ),
        hists=st.dictionaries(
            st.from_regex(r"h[a-z_]{0,8}_seconds", fullmatch=True),
            st.lists(
                st.floats(min_value=0, max_value=50, allow_nan=False),
                max_size=6,
            ),
            max_size=3,
        ),
    )
    def test_random_registry_round_trips(self, gauges, hists):
        reg = MetricsRegistry()
        for name, value in gauges.items():
            reg.add(name, value)
        for name, values in hists.items():
            for value in values:
                reg.observe(name, value)
        restored = json_round_trip(reg)
        assert restored.as_dict() == reg.as_dict()
        assert restored.histograms.keys() == reg.histograms.keys()
        for name, hist in reg.histograms.items():
            twin = restored.histograms[name]
            assert twin.bounds == hist.bounds
            assert twin.counts == hist.counts
            assert twin.count == hist.count
            assert twin.sum == hist.sum
