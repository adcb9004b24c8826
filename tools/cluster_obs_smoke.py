#!/usr/bin/env python3
"""CI smoke for the cluster-wide observability plane.

Boots three real subprocesses on loopback — two ring members
(``repro serve --ring``) and a ``repro cluster router`` over them —
then drives one steered batch through every observability surface the
router promises:

* **stitched distributed trace** — ``GET /v1/jobs/<id>/trace`` on the
  router returns a single span tree rooted at a synthetic
  ``router.job`` span, with worker spans from *both* shards grafted
  under it, every span carrying the router-minted ``trace_id`` that
  the acceptance payload announced;
* **federated metrics** — every counter of the two members' own
  registries (``GET /v1/metrics``) reconciles exactly with the router's
  ``/v1/cluster/metrics`` aggregates (summed, peaks maxed) and per-shard
  series; the router's ``/metrics`` text agrees with that JSON twin
  sample for sample, and every federated histogram family is
  well-formed (cumulative buckets, ``+Inf`` equal to ``_count``);
* **multiplexed progress** — a ServeClient consuming the router's
  ``GET /v1/jobs/<id>/events`` live sees one totally-ordered stream in
  which every relayed event is shard-tagged, shard-local order is
  preserved, and per-shard job states advance monotonically;
* **cluster status** — ``repro cluster status --ring ...`` exits 0 and
  reports both shards healthy.

Writes ``cluster_trace.json``, ``federated_metrics.txt``,
``cluster_metrics_{a,b}.txt`` and ``router_events.jsonl`` into
``--artifact-dir`` for upload.

    PYTHONPATH=src python tools/cluster_obs_smoke.py
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import threading
import time

CHECKS = 4  # steered 2/2 onto the two shards
N = 4  # AFS-2 server size: real work, but quick

_STATE_RANK = {
    "queued": 0,
    "running": 1,
    "done": 2,
    "cached": 2,
    "failed": 2,
    "timeout": 2,
    "cancelled": 2,
}


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def wait_for_server(client, timeout: float = 30.0) -> None:
    from repro.serve.client import ServeClientError

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            client.healthz()
            return
        except ServeClientError:
            time.sleep(0.1)
    fail(f"{client.url} did not become healthy in time")


def steered_batch(config) -> list[dict]:
    """``CHECKS`` equal-cost AFS-2 checks, split evenly by the ring."""
    from repro.casestudies.afs2 import SERVER_SPECS_FIGURE, server_source
    from repro.cluster.ring import request_fingerprint

    base = server_source(N, rename=False)
    shards = list(config.shard_ids)
    checks = []
    salt = 0
    for i in range(CHECKS):
        want = shards[i % len(shards)]
        while True:
            source = (
                base.replace("VAR", f"VAR\n  pad{salt} : boolean;", 1)
                + SERVER_SPECS_FIGURE
            )
            salt += 1
            check = {"source": source, "label": f"srv{N}-{i}"}
            if config.ring.owner(request_fingerprint(check)) == want:
                checks.append(check)
                break
            if salt > 10_000:  # pragma: no cover
                fail("could not steer the batch onto both shards")
    return checks


def scalar_samples(text: str) -> dict[str, float]:
    """Unlabeled ``name -> value`` samples of one exposition document."""
    from cluster_smoke import parse_prometheus

    return {
        series: value
        for series, value in parse_prometheus(text).items()
        if "{" not in series
    }


def histogram_groups(samples: dict, name: str) -> dict[str, dict]:
    """Histogram family ``name``'s series per non-``le`` label set, each
    re-keyed unlabelled (``name_bucket{le="..."}``, ``name_sum``,
    ``name_count``) for :func:`serve_smoke.check_histogram`."""
    groups: dict[str, dict] = {}
    for series, value in samples.items():
        base, _, labels = series.partition("{")
        if base not in (f"{name}_bucket", f"{name}_sum", f"{name}_count"):
            continue
        pairs = [pair for pair in labels.rstrip("}").split(",") if pair]
        le = [pair for pair in pairs if pair.startswith("le=")]
        rest = ",".join(pair for pair in pairs if not pair.startswith("le="))
        key = base + (f"{{{le[0]}}}" if le else "")
        groups.setdefault(rest, {})[key] = value
    return groups


def expected_cluster_totals(registries: list[dict]) -> dict[str, float]:
    """The router's aggregates, recomputed from member ``/v1/metrics``
    values: sums, except ``_PEAK_SUFFIXES`` names, which take the max."""
    from repro.obs.metrics import _PEAK_SUFFIXES

    totals: dict[str, float] = {}
    for registry in registries:
        for name, value in registry["values"].items():
            name = name.removeprefix("cluster.")
            if name.endswith(_PEAK_SUFFIXES):
                totals[name] = max(totals.get(name, 0.0), value)
            else:
                totals[name] = totals.get(name, 0.0) + value
    return totals


def prom_name(name: str, prefix: str) -> str:
    return prefix + "_" + "".join(c if c.isalnum() else "_" for c in name)


def settled_metrics(clients: dict) -> tuple[dict, dict, str]:
    """Members' registries, the router's JSON twin and its text, taken
    while no member counter moves (peer pushes replicate
    asynchronously after a batch finishes)."""
    for _ in range(20):
        before = {
            name: clients[name]._request("GET", "/v1/metrics")
            for name in ("a", "b")
        }
        twin = clients["router"]._request("GET", "/v1/cluster/metrics")
        text = clients["router"].metrics_text()
        after = {
            name: clients[name]._request("GET", "/v1/metrics")
            for name in ("a", "b")
        }
        if [d["values"] for d in before.values()] == [
            d["values"] for d in after.values()
        ]:
            return before, twin, text
        time.sleep(0.5)
    fail("member registries never settled")
    raise AssertionError  # unreachable: fail() exits


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port-a", type=int, default=8161)
    parser.add_argument("--port-b", type=int, default=8162)
    parser.add_argument("--port-router", type=int, default=8163)
    parser.add_argument("--artifact-dir", default=".")
    args = parser.parse_args(argv)

    from repro.cluster.ring import RingConfig
    from repro.serve.client import ServeClient

    artifact_dir = pathlib.Path(args.artifact_dir)
    artifact_dir.mkdir(parents=True, exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix="repro-obs-smoke-"))

    ring = f"127.0.0.1:{args.port_a},127.0.0.1:{args.port_b}"
    config = RingConfig.parse(ring)
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"

    def spawn(cmd: list[str]) -> subprocess.Popen:
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *cmd],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )

    procs = {
        "a": spawn(
            [
                "serve", "--port", str(args.port_a), "--jobs", "1",
                "--cache-dir", str(work / "a-store"),
                "--ring", ring, "--advertise", f"127.0.0.1:{args.port_a}",
            ]
        ),
        "b": spawn(
            [
                "serve", "--port", str(args.port_b), "--jobs", "1",
                "--cache-dir", str(work / "b-store"),
                "--ring", ring, "--advertise", f"127.0.0.1:{args.port_b}",
            ]
        ),
        "router": spawn(
            [
                "cluster", "router", "--ring", ring,
                "--port", str(args.port_router),
            ]
        ),
    }
    clients = {
        "a": ServeClient(f"http://127.0.0.1:{args.port_a}"),
        "b": ServeClient(f"http://127.0.0.1:{args.port_b}"),
        "router": ServeClient(f"http://127.0.0.1:{args.port_router}"),
    }
    try:
        for client in clients.values():
            wait_for_server(client)

        # -- submit and consume the merged stream live --------------------
        batch = steered_batch(config)
        accepted = clients["router"].submit(batch, timeout=600)
        trace_id = accepted.get("trace_id", "")
        if len(trace_id) != 32:
            fail(f"router acceptance has no minted trace_id: {accepted}")
        events: list[dict] = []
        consumer = threading.Thread(
            target=lambda: events.extend(
                clients["router"].iter_events(accepted["id"])
            ),
            daemon=True,
        )
        consumer.start()
        job = clients["router"].wait(accepted["id"], timeout=600)
        if job["state"] != "done":
            fail(f"routed batch ended {job['state']}: {job.get('error')}")
        if job["trace_id"] != trace_id:
            fail("job document lost the router-minted trace id")
        if any(not part["trace_id"] for part in job["shards"]):
            fail("a shard slice reports an empty trace_id")
        consumer.join(timeout=120)
        if consumer.is_alive():
            fail("router event stream never reached its end frame")

        # -- the merged stream: ordered, shard-tagged, monotone -----------
        if not events or events[0].get("kind") != "job.routed":
            fail("merged stream did not open with job.routed")
        seqs = [e["seq"] for e in events]
        if seqs != sorted(seqs) or len(set(seqs)) != len(seqs):
            fail("merged stream seq numbers are not strictly increasing")
        relayed = [e for e in events if e.get("kind") != "job.routed"]
        tagged = {e.get("shard") for e in relayed}
        if tagged != set(config.shard_ids):
            fail(f"relayed events not tagged with both shards: {tagged}")
        for shard in config.shard_ids:
            local = [
                e["shard_seq"] for e in relayed if e.get("shard") == shard
            ]
            if local != sorted(local):
                fail(f"shard-local order lost for {shard}")
            states = [
                _STATE_RANK[e["state"]]
                for e in relayed
                if e.get("shard") == shard
                and e.get("kind") == "job.state"
            ]
            if not states:
                fail(f"no job.state events relayed for {shard}")
            if states != sorted(states):
                fail(f"job states for {shard} regressed mid-stream")
        print(
            f"events: {len(events)} merged, both shards tagged, "
            f"states monotone"
        )

        # -- the stitched trace -------------------------------------------
        trace = clients["router"].job_trace(accepted["id"])
        if trace["trace_id"] != trace_id:
            fail("stitched trace does not carry the minted trace id")
        spans = trace["spans"]
        roots = [s for s in spans if s["parent"] is None]
        if len(roots) != 1 or roots[0]["name"] != "router.job":
            fail(f"expected one router.job root, got {roots}")
        span_shards = {
            s["attrs"]["shard"]
            for s in spans
            if "shard" in s.get("attrs", {})
        }
        if span_shards != set(config.shard_ids):
            fail(f"stitched trace covers {span_shards}, want both shards")
        ids = {
            s["attrs"]["trace_id"]
            for s in spans
            if "trace_id" in s.get("attrs", {})
        }
        if ids != {trace_id}:
            fail(f"span trace ids disagree with the minted id: {ids}")
        if any(s["start_us"] < 0 for s in spans):
            fail("stitched trace has negative span offsets")
        categories = sorted({s.get("cat", "") for s in spans} - {""})
        print(
            f"trace: {len(spans)} spans from {len(span_shards)} shards "
            f"under one root (categories: {', '.join(categories)})"
        )

        # -- federated metrics reconcile exactly --------------------------
        from cluster_smoke import parse_prometheus
        from serve_smoke import check_histogram

        member_texts = {
            name: clients[name].metrics_text() for name in ("a", "b")
        }
        registries, twin, federated_text = settled_metrics(clients)
        federated = scalar_samples(federated_text)
        members = {
            name: scalar_samples(text)
            for name, text in member_texts.items()
        }
        for counter in (
            "repro_serve_jobs_submitted",
            "repro_serve_jobs_completed",
            "repro_serve_checks_submitted",
            "repro_store_misses",
        ):
            expect = sum(m.get(counter, 0.0) for m in members.values())
            got = federated.get(f"repro_cluster_{counter[len('repro_'):]}")
            if got != expect:
                fail(
                    f"federated {counter}: {got} != member sum {expect}"
                )
        if federated.get("repro_cluster_members") != 2:
            fail("repro_cluster_members != 2")
        if federated.get("repro_cluster_scrape_errors") != 0:
            fail("scrape errors on an all-healthy cluster")
        if twin["scraped"] != 2 or twin["errors"]:
            fail(f"JSON twin disagrees: {twin['scraped']}, {twin['errors']}")
        # counter for counter: members' registries against the twin
        order = [registries[name] for name in ("a", "b")]
        for name, value in expected_cluster_totals(order).items():
            got = twin["aggregates"].get(prom_name(name, "repro_cluster"))
            if got != value:
                fail(f"cluster {name}: {got} != member fold {value}")
        for name, shard in zip(("a", "b"), config.shard_ids):
            for counter, value in registries[name]["values"].items():
                got = twin["shards"][shard].get(prom_name(counter, "repro"))
                if got != value:
                    fail(f"{shard} {counter}: twin {got} != member {value}")
        # the text document renders every twin sample exactly
        for name, value in twin["aggregates"].items():
            if federated.get(name) != value:
                fail(f"JSON twin {name}={value} != text {federated.get(name)}")
        samples = parse_prometheus(federated_text)
        types = {
            line.split()[2]: line.split()[3]
            for line in federated_text.splitlines()
            if line.startswith("# TYPE ")
        }
        families = [n for n, kind in types.items() if kind == "histogram"]
        if "repro_cluster_request_duration_seconds" not in families:
            fail("federated document lacks the request duration histogram")
        for family in families:
            for group in histogram_groups(samples, family).values():
                check_histogram(group, types, family)
        print(
            "metrics: federated aggregates reconcile with member registries "
            f"({int(federated['repro_cluster_serve_checks_submitted'])} "
            f"checks clusterwide, {len(families)} histogram families)"
        )

        # -- the status CLI -----------------------------------------------
        status = subprocess.run(
            [sys.executable, "-m", "repro", "cluster", "status",
             "--ring", ring],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        if status.returncode != 0:
            fail(f"repro cluster status exited {status.returncode}:\n"
                 f"{status.stderr}")
        if "2/2 shard(s) healthy" not in status.stdout:
            fail(f"status table missing health line:\n{status.stdout}")
        print("status: CLI reports 2/2 shards healthy")

        # -- artifacts -----------------------------------------------------
        (artifact_dir / "cluster_trace.json").write_text(
            json.dumps(trace, indent=2)
        )
        (artifact_dir / "federated_metrics.txt").write_text(federated_text)
        for name, text in member_texts.items():
            (artifact_dir / f"cluster_metrics_{name}.txt").write_text(text)
        (artifact_dir / "router_events.jsonl").write_text(
            "".join(json.dumps(e) + "\n" for e in events)
        )
        print(
            f"artifacts: trace ({len(spans)} spans), federated metrics, "
            f"{len(events)} streamed events"
        )
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
        for proc in procs.values():
            proc.wait(timeout=30)

    print("OK: cluster observability smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
