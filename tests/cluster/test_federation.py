"""The router's metrics federation, folded from structured registries.

Members serve their registry as JSON (``GET /v1/metrics``); the router
folds the documents with ``MetricsRegistry.merge`` and renders the
result once.  These tests drive :func:`federate` with the documents
members would serve, without any HTTP.
"""

import json

import pytest

from repro.cluster.router import federate
from repro.obs.export import build_info
from repro.obs.metrics import MetricsRegistry


def member_doc(registry: MetricsRegistry | None = None, **metrics) -> dict:
    """What a member's ``GET /v1/metrics`` serves, through real JSON."""
    registry = registry if registry is not None else MetricsRegistry()
    for name, value in metrics.items():
        registry.add(name, value)
    document = {**registry.to_dict(), "build_info": build_info()}
    return json.loads(json.dumps(document))


def observed(*values: float, bounds=(0.1, 1.0)) -> MetricsRegistry:
    registry = MetricsRegistry()
    for value in values:
        registry.observe("submit_seconds", value, bounds=bounds)
    return registry


class TestFederation:
    def test_counters_sum_and_peaks_max(self):
        fed = federate(
            {
                "a:1": member_doc(
                    jobs_submitted=3, **{"bdd.peak_unique_nodes": 100}
                ),
                "b:2": member_doc(
                    jobs_submitted=5, **{"bdd.peak_unique_nodes": 700}
                ),
            }
        )
        assert fed.value("repro_cluster_jobs_submitted") == 8
        assert fed.value("repro_cluster_bdd_peak_unique_nodes") == 700
        assert fed.value("repro_cluster_members") == 2
        assert fed.value("repro_cluster_scraped") == 2
        assert fed.value("repro_cluster_scrape_errors") == 0
        assert fed.errors == {}

    def test_member_cluster_series_are_not_double_prefixed(self):
        fed = federate(
            {
                "a:1": member_doc(**{"cluster.peer_fetch.hit": 2}),
                "b:2": member_doc(**{"cluster.peer_fetch.hit": 3}),
            }
        )
        assert fed.value("repro_cluster_peer_fetch_hit") == 5
        rendered = fed.render()
        assert "repro_cluster_cluster_" not in rendered
        assert 'repro_cluster_peer_fetch_hit{shard="a:1"} 2' in rendered

    def test_histogram_buckets_sum_bucket_by_bucket(self):
        fed = federate(
            {
                "a:1": member_doc(observed(0.05)),
                "b:2": member_doc(observed(0.5, 9.0)),
            }
        )
        merged = fed.aggregate.histograms["submit_seconds"]
        assert merged.bounds == (0.1, 1.0)
        assert merged.cumulative() == [1, 2]
        assert merged.count == 3
        assert merged.sum == pytest.approx(9.55)
        rendered = fed.render()
        assert 'repro_cluster_submit_seconds_bucket{le="0.1"} 1' in rendered
        assert 'repro_cluster_submit_seconds_bucket{le="1"} 2' in rendered
        assert 'repro_cluster_submit_seconds_bucket{le="+Inf"} 3' in rendered
        assert "repro_cluster_submit_seconds_count 3" in rendered

    def test_per_shard_series_keep_their_identity(self):
        fed = federate(
            {
                "a:1": member_doc(jobs_submitted=3),
                "b:2": member_doc(jobs_submitted=5),
            }
        )
        assert fed.value("repro_jobs_submitted", shard="a:1") == 3
        assert fed.value("repro_jobs_submitted", shard="b:2") == 5
        rendered = fed.render()
        assert 'repro_jobs_submitted{shard="a:1"} 3' in rendered
        assert 'repro_jobs_submitted{shard="b:2"} 5' in rendered

    def test_one_type_line_per_family(self):
        fed = federate(
            {
                "a:1": member_doc(observed(0.05), **{"cluster.x": 1}),
                "b:2": member_doc(observed(0.5), **{"cluster.x": 1}),
            }
        )
        types = [
            line for line in fed.render().splitlines()
            if line.startswith("# TYPE ")
        ]
        assert len(types) == len(set(types))
        assert "# TYPE repro_submit_seconds histogram" in types
        assert 'repro_submit_seconds_bucket{le="0.1",shard="a:1"} 1' in (
            fed.render()
        )

    def test_failed_and_malformed_documents_become_errors(self):
        fed = federate(
            {
                "a:1": member_doc(jobs_submitted=3),
                "b:2": None,
                "c:3": {"values": "not a registry"},
                "d:4": {**member_doc(), "build_info": "not labels"},
            },
            errors={"b:2": "connection refused"},
        )
        assert fed.scraped == 1  # only a:1 contributed a registry
        assert fed.errors["b:2"] == "connection refused"
        assert "bad metrics document" in fed.errors["c:3"]
        assert "bad metrics document" in fed.errors["d:4"]
        assert fed.value("repro_cluster_scrape_errors") == 3
        assert fed.value("repro_cluster_jobs_submitted") == 3

    def test_mismatched_buckets_drop_the_dissenting_shard(self):
        fed = federate(
            {
                "a:1": member_doc(observed(0.05), jobs_submitted=1),
                "b:2": member_doc(
                    observed(0.05, bounds=(0.5,)), jobs_submitted=2
                ),
            }
        )
        assert "bucket bounds disagree" in fed.errors["b:2"]
        assert fed.value("repro_cluster_submit_seconds_count") == 1
        # only that family is dropped: the dissenter's counters still sum
        assert fed.value("repro_cluster_jobs_submitted") == 3
        assert fed.value("repro_cluster_scrape_errors") == 1

    def test_label_values_are_escaped(self):
        doc = member_doc(jobs_submitted=1)
        doc["build_info"] = {"version": 'say "hi"\\\n'}
        rendered = federate({"a:1": doc}).render()
        assert (
            'repro_build_info{version="say \\"hi\\"\\\\\\n",shard="a:1"} 1'
            in rendered
        )

    def test_build_info_stays_per_shard_only(self):
        fed = federate({"a:1": member_doc(jobs_submitted=1)})
        rendered = fed.render()
        assert "repro_cluster_build_info" not in rendered
        identity = build_info()
        assert (
            f'repro_build_info{{version="{identity["version"]}",'
            f'python="{identity["python"]}",shard="a:1"}} 1'
        ) in rendered
