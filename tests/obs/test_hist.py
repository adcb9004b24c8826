"""Tests for fixed-bucket latency histograms and their Prometheus export."""

import pytest

from repro.obs.export import to_prometheus_text
from repro.obs.hist import DEFAULT_BUCKETS, Histogram
from repro.obs.metrics import MetricsRegistry


class TestObserve:
    def test_bucket_placement_le_semantics(self):
        h = Histogram(bounds=(0.1, 1.0))
        h.observe(0.1)  # on the bound: counts in the 0.1 bucket (le)
        h.observe(0.5)
        h.observe(2.0)  # overflow
        assert h.counts == [1, 1, 1]
        assert h.count == 3
        assert h.sum == pytest.approx(2.6)

    def test_cumulative_covers_finite_bounds_only(self):
        h = Histogram.of((0.05, 0.2, 0.3, 5.0), bounds=(0.1, 1.0))
        assert h.cumulative() == [1, 3]
        assert h.count == 4  # the +Inf bucket is implied by count

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 0.5))
        with pytest.raises(ValueError):
            Histogram(bounds=(0.5, 0.5))
        with pytest.raises(ValueError):
            Histogram(bounds=())


class TestMerge:
    def test_merge_adds_bucket_by_bucket(self):
        a = Histogram.of((0.05, 0.2), bounds=(0.1, 1.0))
        b = Histogram.of((0.05, 5.0), bounds=(0.1, 1.0))
        a.merge(b)
        assert a.counts == [2, 1, 1]
        assert a.count == 4
        assert a.sum == pytest.approx(5.3)

    def test_merge_rejects_mismatched_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(0.1, 1.0)).merge(Histogram(bounds=(0.1,)))

    def test_mismatch_error_describes_both_bucket_layouts(self):
        with pytest.raises(ValueError, match=r"2 buckets .* vs 1 bucket"):
            Histogram(bounds=(0.1, 1.0)).merge(Histogram(bounds=(0.1,)))

    def test_merge_empty_into_populated_is_identity(self):
        a = Histogram.of((0.05, 0.2, 5.0), bounds=(0.1, 1.0))
        before = a.to_dict()
        a.merge(Histogram(bounds=(0.1, 1.0)))
        assert a.to_dict() == before

    def test_merge_populated_into_empty_copies_it(self):
        a = Histogram(bounds=(0.1, 1.0))
        b = Histogram.of((0.05, 0.2, 5.0), bounds=(0.1, 1.0))
        a.merge(b)
        assert a.to_dict() == b.to_dict()

    def test_registry_merge_names_the_offending_metric(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.observe("submit_seconds", 0.1, bounds=(0.1, 1.0))
        right.observe("submit_seconds", 0.2, bounds=(0.5,))
        with pytest.raises(ValueError, match="submit_seconds"):
            left.merge(right)


class TestQuantiles:
    def test_empty_histogram_quantile_is_zero(self):
        assert Histogram().quantile(0.5) == 0.0

    def test_linear_interpolation_within_bucket(self):
        # 10 observations all landing in the (0.1, 0.2] bucket: the
        # median interpolates to the bucket midpoint, PromQL-style.
        h = Histogram.of([0.15] * 10, bounds=(0.1, 0.2, 0.4))
        assert h.quantile(0.5) == pytest.approx(0.15)
        assert h.quantile(1.0) == pytest.approx(0.2)

    def test_overflow_clamps_to_highest_bound(self):
        h = Histogram.of((10.0, 20.0), bounds=(0.1, 1.0))
        assert h.quantile(0.99) == 1.0

    def test_percentiles_keys(self):
        p = Histogram.of((0.05, 0.2), bounds=(0.1, 1.0)).percentiles()
        assert set(p) == {"p50", "p90", "p99"}

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError):
            Histogram().quantile(0.0)
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)


class TestSerialization:
    def test_round_trip(self):
        h = Histogram.of((0.05, 0.2, 7.0), bounds=(0.1, 1.0))
        restored = Histogram.from_dict(h.to_dict())
        assert restored.counts == h.counts
        assert restored.sum == pytest.approx(h.sum)
        assert restored.count == h.count
        assert restored.bounds == h.bounds


class TestPrometheusExport:
    def test_histogram_family_rendering(self):
        reg = MetricsRegistry()
        reg.observe("request.duration_seconds", 0.05, bounds=(0.1, 1.0))
        reg.observe("request.duration_seconds", 0.5, bounds=(0.1, 1.0))
        reg.observe("request.duration_seconds", 9.0, bounds=(0.1, 1.0))
        reg.add("serve.jobs_completed", 3)
        text = to_prometheus_text(reg)
        assert "# TYPE repro_serve_jobs_completed gauge" in text
        assert "# TYPE repro_request_duration_seconds histogram" in text
        assert 'repro_request_duration_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_request_duration_seconds_bucket{le="1"} 2' in text
        assert 'repro_request_duration_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_request_duration_seconds_count 3" in text
        assert "repro_request_duration_seconds_sum 9.55" in text
        assert text.endswith("\n")

    def test_non_integers_render_exactly(self):
        reg = MetricsRegistry()
        reg.add("gauge.small", 12.3456789)
        reg.add("gauge.large", 1234567.5)
        reg.observe("request.duration_seconds", 12.3456789, bounds=(0.1,))
        text = to_prometheus_text(reg)
        assert "repro_gauge_small 12.3456789\n" in text
        assert "repro_gauge_large 1234567.5\n" in text
        assert "repro_request_duration_seconds_sum 12.3456789\n" in text

    def test_empty_histogram_still_renders_family(self):
        reg = MetricsRegistry()
        reg.histogram("request.duration_seconds", bounds=(0.1,))
        text = to_prometheus_text(reg)
        assert 'repro_request_duration_seconds_bucket{le="+Inf"} 0' in text
        assert "repro_request_duration_seconds_count 0" in text
