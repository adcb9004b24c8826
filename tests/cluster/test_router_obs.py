"""The router's observability plane over real shards on loopback.

Covers the three cluster-observability capabilities end to end:
stitched distributed traces (``GET /v1/jobs/<id>/trace``), federated
metrics (``/metrics`` + ``/v1/cluster/metrics``), and the multiplexed
progress stream (``GET /v1/jobs/<id>/events``) — all against two real
serving instances behind one router.
"""

import re
import socket

import pytest

from repro.cluster.ring import RingConfig, request_fingerprint
from repro.cluster.router import create_router
from repro.serve.client import ServeClient, ServeClientError

from .conftest import start_member, stop_server

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


def both_shard_batch(config: RingConfig) -> list[dict]:
    """A batch guaranteed to route to *both* members of the ring: three
    checks each member owns, whatever ports the ring was built from."""
    sources = [GOOD + f"-- v{i}\n" for i in range(64)]
    picked = [
        source
        for shard in config.shard_ids
        for source in [
            s for s in sources
            if config.ring.owner(request_fingerprint({"source": s})) == shard
        ][:3]
    ]
    checks = [
        {"source": source, "label": f"c{i}"}
        for i, source in enumerate(picked)
    ]
    owners = {
        config.ring.owner(request_fingerprint(c)) for c in checks
    }
    assert owners == set(config.shard_ids), "batch stayed on one shard"
    return checks


class TestTraceStitching:
    def test_router_mints_and_propagates_trace_id(self, cluster):
        _, _, client = cluster
        accepted = client.submit([{"source": GOOD}])
        assert re.fullmatch(r"[0-9a-f]{32}", accepted["trace_id"])
        job = client.wait(accepted["id"], timeout=60.0)
        # the job document and every shard slice carry the router's id
        assert job["trace_id"] == accepted["trace_id"]
        for part in job["shards"]:
            assert part["trace_id"] == accepted["trace_id"]

    def test_stitched_trace_spans_both_shards(self, cluster):
        _, config, client = cluster
        checks = both_shard_batch(config)
        accepted = client.submit(checks)
        client.wait(accepted["id"], timeout=60.0)
        trace = client.job_trace(accepted["id"])
        assert trace["trace_id"] == accepted["trace_id"]
        spans = trace["spans"]
        # exactly one root: the synthetic router span
        roots = [s for s in spans if s["parent"] is None]
        assert len(roots) == 1
        assert roots[0]["name"] == "router.job"
        assert roots[0]["cat"] == "router"
        # worker spans from two distinct shards, all one trace id
        shards_seen = {
            s["attrs"]["shard"]
            for s in spans
            if "attrs" in s and "shard" in s["attrs"]
        }
        assert shards_seen == set(config.shard_ids)
        trace_ids = {
            s["attrs"]["trace_id"]
            for s in spans
            if "attrs" in s and "trace_id" in s["attrs"]
        }
        assert trace_ids == {accepted["trace_id"]}
        # offsets rebased under the stretched root: never negative
        assert all(s["start_us"] >= 0 for s in spans)
        assert trace["shards"] == {s: "ok" for s in config.shard_ids}
        assert trace["wall_origin"] > 0

    def test_trace_of_unknown_job_is_404(self, cluster):
        _, _, client = cluster
        with pytest.raises(ServeClientError) as exc:
            client.job_trace("feedfeedfeed")
        assert exc.value.status == 404


class TestMetricsFederation:
    def test_cluster_counters_equal_sum_of_member_scrapes(self, cluster):
        _, config, client = cluster
        checks = both_shard_batch(config)
        client.check(checks, wait_timeout=60.0)

        def value(text: str, name: str) -> float | None:
            for line in text.splitlines():
                series, _, sample = line.partition(" ")
                if series == name:
                    return float(sample)
            return None

        member_total = 0.0
        for url in config.urls:
            text = ServeClient(url).metrics_text()
            member_total += value(text, "repro_serve_checks_submitted") or 0
        assert member_total == len(checks)
        federated = client.metrics_text()
        assert (
            value(federated, "repro_cluster_serve_checks_submitted")
            == member_total
        )
        assert value(federated, "repro_cluster_members") == 2
        assert value(federated, "repro_cluster_scraped") == 2
        assert value(federated, "repro_cluster_scrape_errors") == 0
        # per-shard series survive with a shard label
        for shard in config.shard_ids:
            assert f'{{shard="{shard}"}}' in federated
        # the router's own counters are part of the document
        assert "repro_router_jobs_submitted" in federated

    def test_unreachable_member_surfaces_as_scrape_error(self, tmp_path):
        server, thread = start_member(tmp_path / "store")
        dead = f"127.0.0.1:{free_port()}"
        config = RingConfig.parse(f"127.0.0.1:{server.port},{dead}")
        router = create_router(config=config, timeout=2.0)
        try:
            federation = router.manager.scrape_members()
            assert federation.scraped == 1
            assert set(federation.errors) == {dead}
            assert federation.value("repro_cluster_scrape_errors") == 1
        finally:
            stop_server(server, thread)
            server.manager.stop()
            router.server_close()

    def test_cluster_metrics_json_twin(self, cluster):
        router, config, client = cluster
        client.check(GOOD, wait_timeout=60.0)
        doc = client._request("GET", "/v1/cluster/metrics")
        assert doc["role"] == "router"
        assert doc["members"] == list(config.shard_ids)
        assert doc["scraped"] == 2
        assert doc["errors"] == {}
        assert doc["aggregates"]["repro_cluster_members"] == 2
        assert set(doc["shards"]) == set(config.shard_ids)
        # each shard block holds that member's own series
        assert any(
            "repro_serve_jobs_submitted" in series
            for series in doc["shards"].values()
        )


class TestProgressMux:
    def test_merged_stream_is_ordered_and_shard_tagged(self, cluster):
        _, config, client = cluster
        checks = both_shard_batch(config)
        accepted = client.submit(checks)
        events = list(client.iter_events(accepted["id"]))
        assert events, "router stream yielded nothing"
        # one total order from the merged bus
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        # the preamble announces the routing and the trace identity
        assert events[0]["kind"] == "job.routed"
        assert events[0]["trace_id"] == accepted["trace_id"]
        assert set(events[0]["shards"]) == set(config.shard_ids)
        # every relayed shard event is attributed and keeps its local seq
        relayed = [e for e in events if e["kind"] != "job.routed"]
        assert relayed
        assert {e["shard"] for e in relayed} == set(config.shard_ids)
        assert all("shard_seq" in e for e in relayed)
        # per shard, relayed events preserve the shard-local order
        for shard in config.shard_ids:
            local = [e["shard_seq"] for e in relayed if e["shard"] == shard]
            assert local == sorted(local)
        # obligation progress folds monotonically per shard
        states = [e for e in relayed if e["kind"] == "job.state"]
        assert states, "no job.state events relayed"
        job = client.wait(accepted["id"], timeout=60.0)
        assert job["state"] == "done"

    def test_resume_with_since_skips_delivered_events(self, cluster):
        _, config, client = cluster
        accepted = client.submit(both_shard_batch(config))
        client.wait(accepted["id"], timeout=60.0)
        everything = list(client.iter_events(accepted["id"]))
        assert len(everything) >= 3
        middle = everything[len(everything) // 2]["seq"]
        tail = list(client.iter_events(accepted["id"], since=middle))
        assert [e["seq"] for e in tail] == [
            e["seq"] for e in everything if e["seq"] > middle
        ]

    def test_events_of_unknown_job_is_404(self, cluster):
        _, _, client = cluster
        with pytest.raises(ServeClientError) as exc:
            list(client.iter_events("feedfeedfeed"))
        assert exc.value.status == 404


class TestClusterStatus:
    def test_status_document_covers_members_and_totals(self, cluster):
        router, config, client = cluster
        client.check(GOOD, wait_timeout=60.0)
        doc = client._request("GET", "/v1/cluster/status")
        assert doc["role"] == "router"
        assert set(doc["members"]) == set(config.shard_ids)
        shares = 0.0
        for entry in doc["members"].values():
            assert entry["reachable"] is True
            assert entry["status"] == "ok"
            assert entry["breaker"] == "closed"
            assert entry["queued"] >= 0
            assert entry["hit_rate"] is not None
            # plain-store members have no peers; the key is still there
            assert entry["peer_breakers"] == {}
            assert entry["open_breakers"] == 0
            shares += entry["ring_share"]
        assert shares == pytest.approx(1.0, abs=0.01)
        assert doc["scrape_errors"] == {}
        assert doc["totals"]["serve_jobs_submitted"] >= 1
