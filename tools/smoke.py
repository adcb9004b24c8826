#!/usr/bin/env python3
"""End-to-end smoke of the proof engine, repro serve and the cluster.

    PYTHONPATH=src python tools/smoke.py [SCENARIO ...] [--artifact-dir DIR]

Three scenarios, each a ``scenario_*`` function whose docstring lists its
checks: ``obs`` (traced and pooled checks), ``serve`` (one ``repro
serve``) and ``cluster`` (two ring members, a router and a
single-instance baseline, booted once).  No scenario named runs all
three.  The first failed check prints ``FAIL`` and exits 1; traces,
metrics and job documents land in the artifact directory.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import NoReturn

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from repro.serve.client import ServeClient, ServeClientError  # noqa: E402

FIGURE1 = ROOT / "examples" / "figure1.smv"
SERVE_PORT = 8146
CLUSTER_PORTS = {"a": 8151, "b": 8152, "router": 8153, "single": 8154}
JOBS = 2  # pool size of the single-server scenarios
N = 5  # AFS-2 server size of the timed batch: dwarfs routing overhead
CHECKS = 8  # in the timed batch, steered 4/4 onto the two shards
OBS_N, OBS_CHECKS = 4, 4  # the observability batch: real work, but quick
MIN_SPEEDUP = 1.6  # cold cluster throughput floor vs the single instance


class SmokeFailure(Exception):
    """A smoke check that did not hold."""


def fail(message: str) -> NoReturn:
    raise SmokeFailure(message)


# -- processes ---------------------------------------------------------------


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_repro(*args) -> subprocess.CompletedProcess:
    """``python -m repro ARGS`` to completion; a non-zero exit fails."""
    argv = [sys.executable, "-m", "repro", *map(str, args)]
    proc = subprocess.run(
        argv, env=_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        fail(f"{' '.join(argv[2:])} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def spawn(*args) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *map(str, args)],
        env=_env(),
        cwd=ROOT,
        stderr=subprocess.PIPE,
        text=True,
    )


@contextlib.contextmanager
def running(procs: dict[str, subprocess.Popen]):
    """Kill whatever is still alive on the way out, pass or fail."""
    try:
        yield procs
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
        for proc in procs.values():
            proc.wait(timeout=30)


def drain(name: str, proc: subprocess.Popen, ack: bool = True) -> None:
    """SIGTERM must stop ``proc`` with exit 0 (and, for a serve process,
    a "drained and stopped" acknowledgement on stderr)."""
    proc.send_signal(signal.SIGTERM)
    try:
        _, stderr = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail(f"{name} did not drain within 60 s of SIGTERM")
    if proc.returncode != 0:
        fail(f"{name} exited {proc.returncode} after SIGTERM:\n{stderr}")
    if ack and "drained and stopped" not in stderr:
        fail(f"no drain acknowledgement from {name}:\n{stderr}")


def wait_for_server(client, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            client.healthz()
            return
        except ServeClientError:
            time.sleep(0.1)
    fail(f"{client.url} did not become healthy in time")


def write_jsonl(path: pathlib.Path, records) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


# -- pure checkers -------------------------------------------------------------


def finished(job: dict, what: str) -> dict:
    """``job`` ended ``done`` with every spec of every report holding."""
    if job["state"] != "done":
        fail(f"{what} ended {job['state']}: {job.get('error')}")
    for report in job["reports"]:
        if not report["all_true"]:
            fail(f"{what}: {report.get('label')} has failing specs")
    return job


def batch_cache_totals(job: dict) -> tuple[int, int]:
    hits = sum(r["cache"]["hits"] for r in job["reports"])
    misses = sum(r["cache"]["misses"] for r in job["reports"])
    return hits, misses


def comparable(job: dict, replay: bool = False) -> list:
    """The semantic content of each report: verdicts, fingerprints,
    counterexamples, spec texts.

    The per-run cache markers are stripped, and so are the timing and
    engine statistics: two *independent* cold computations agree on
    every verdict but not on wall times or BDD-session counters.  A warm
    replay reproduces the cold run's timing and statistics verbatim, so
    ``replay=True`` keeps them in the comparison.
    """
    report_drop = {"cache"} if replay else {"cache", "user_time", "resources"}
    spec_drop = {"cached"} if replay else {"cached", "stats"}
    out = []
    for report in job["reports"]:
        report = {k: v for k, v in report.items() if k not in report_drop}
        report["specs"] = [
            {k: v for k, v in spec.items() if k not in spec_drop}
            for spec in report["specs"]
        ]
        out.append(report)
    return out


def parse_prometheus(text: str) -> tuple[dict[str, float], dict[str, str]]:
    """Prometheus text exposition as ``(samples, types)``.

    ``samples`` maps ``name`` or ``name{labels}`` to its value, ``types``
    a metric name to its declared type.  The endpoint claims the
    exposition format, so a line that is not ``series value`` fails.
    """
    samples: dict[str, float] = {}
    types: dict[str, str] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        parts = line.rsplit(" ", 1)
        if len(parts) != 2:
            fail(f"/metrics line is not 'series value': {line!r}")
        try:
            samples[parts[0]] = float(parts[1])
        except ValueError:
            fail(f"/metrics value is not a number: {line!r}")
    return samples, types


def scalar_samples(text: str) -> dict[str, float]:
    """Unlabeled ``name -> value`` samples of one exposition document."""
    samples, _ = parse_prometheus(text)
    return {series: v for series, v in samples.items() if "{" not in series}


def check_histogram(samples: dict, types: dict, name: str) -> None:
    """One histogram family is well-formed: cumulative ``_bucket`` series,
    a ``+Inf`` bucket equal to ``_count``, and a ``_sum``."""
    if types.get(name) != "histogram":
        fail(f"{name} is not declared as a histogram")
    prefix = f'{name}_bucket{{le="'
    buckets = [
        (series[len(prefix):-len('"}')], value)
        for series, value in samples.items()
        if series.startswith(prefix)
    ]
    if not buckets:
        fail(f"{name} has no _bucket series")
    inf = [v for le, v in buckets if le == "+Inf"]
    if not inf:
        fail(f"{name} is missing the +Inf bucket")
    finite = sorted((float(le), v) for le, v in buckets if le != "+Inf")
    values = [v for _, v in finite] + inf
    if any(b > a for a, b in zip(values[1:], values)):
        fail(f"{name} bucket series is not cumulative: {values}")
    count = samples.get(f"{name}_count")
    if count is None or f"{name}_sum" not in samples:
        fail(f"{name} is missing _sum/_count")
    if inf[0] != count:
        fail(f"{name}: +Inf bucket {inf[0]} != _count {count}")


def histogram_groups(samples: dict, name: str) -> dict[str, dict]:
    """Histogram family ``name``'s series per non-``le`` label set, each
    re-keyed unlabelled (``name_bucket{le="..."}``, ``name_sum``,
    ``name_count``) for :func:`check_histogram`."""
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


def check_seqs(seqs: list, stream: str) -> None:
    if seqs != sorted(seqs) or len(set(seqs)) != len(seqs):
        fail(f"{stream} sequence numbers are not strictly increasing")


#: Progress event kind → the obligation state it drives; states must
#: only ever advance along RANK (the serve layer's state machine).
KIND_STATE = {
    "obligation.queued": "pending",
    "obligation.start": "running",
    "obligation.tick": "running",
    "obligation.cache_hit": "cached",
    "obligation.finish": "done",
    "obligation.result": "done",
}
RANK = {"pending": 0, "running": 1, "done": 2, "cached": 2}

#: Job states in the order a job may pass through them.
JOB_STATE_RANK = {
    "queued": 0, "running": 1,
    "done": 2, "cached": 2, "failed": 2, "timeout": 2, "cancelled": 2,
}


def check_progress_stream(events: list[dict]) -> dict:
    """A member's progress stream keeps order and the obligation state
    machine, with no stall; returns each obligation's final state."""
    check_seqs([e.get("seq") for e in events], "progress stream")
    states: dict[str, str] = {}
    for event in events:
        if event.get("kind") == "obligation.stall":
            fail(f"an obligation stalled during the smoke: {event}")
        state = KIND_STATE.get(event.get("kind", ""))
        name = event.get("obligation")
        if state is None or not name:
            continue
        previous = states.get(name, "pending")
        if RANK[state] < RANK[previous]:
            fail(f"obligation {name} regressed {previous} -> {state}")
        states[name] = state
    return states


def check_merged_stream(events: list[dict], shards) -> None:
    """The router's multiplexed stream: opened by ``job.routed``, totally
    ordered, every relayed event tagged with one of ``shards`` (all of
    them seen), shard-local order kept, per-shard job states monotone."""
    if not events or events[0].get("kind") != "job.routed":
        fail("merged stream did not open with job.routed")
    check_seqs([e["seq"] for e in events], "merged stream")
    relayed = [e for e in events if e.get("kind") != "job.routed"]
    tagged = {e.get("shard") for e in relayed}
    if tagged != set(shards):
        fail(f"relayed events not tagged with both shards: {tagged}")
    for shard in shards:
        local = [e["shard_seq"] for e in relayed if e.get("shard") == shard]
        if local != sorted(local):
            fail(f"shard-local order lost for {shard}")
        states = [
            JOB_STATE_RANK[e["state"]]
            for e in relayed
            if e.get("shard") == shard and e.get("kind") == "job.state"
        ]
        if not states:
            fail(f"no job.state events relayed for {shard}")
        if states != sorted(states):
            fail(f"job states for {shard} regressed mid-stream")


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


# -- scenarios -----------------------------------------------------------------


def scenario_obs(artifacts: pathlib.Path) -> None:
    """Figure 1 checked with the observability pipeline engaged: both
    exporters and the profile renderer work outside the test harness.
    A ``--jobs`` check prints the same verdict lines as the sequential
    one (the reports carry wall-clock lines, so only those are
    compared) and records the same root spans: ``repro check`` has one
    path whatever its flags."""

    def verdicts(stdout: str) -> str:
        lines = stdout.splitlines()
        return "".join(f"{ln}\n" for ln in lines if ln.startswith("-- spec"))

    chrome = artifacts / "figure1.trace.json"
    jsonl = artifacts / "figure1.spans.jsonl"
    run_repro("check", FIGURE1, "--trace", chrome, "--profile")
    sequential = verdicts(
        run_repro(
            "check", FIGURE1, "--trace", jsonl, "--trace-format", "jsonl"
        ).stdout
    )
    if not sequential:
        fail("figure1 check printed no '-- spec' verdict lines")
    pooled_jsonl = artifacts / "figure1.jobs.spans.jsonl"
    pooled = verdicts(
        run_repro(
            "check", FIGURE1, "--jobs", JOBS,
            "--trace", pooled_jsonl, "--trace-format", "jsonl",
        ).stdout
    )
    if pooled != sequential:
        diff = difflib.unified_diff(
            sequential.splitlines(), pooled.splitlines(),
            "check", f"check --jobs {JOBS}", lineterm="",
        )
        fail(f"check --jobs {JOBS} differs from check:\n" + "\n".join(diff))
    events = json.loads(chrome.read_text())["traceEvents"]
    if not any(e["ph"] == "X" for e in events):
        fail("the Chrome trace has no complete events")
    names = {e["name"] for e in events}
    for expected in ("smv.check_model", "check.symbolic"):
        if expected not in names:
            fail(f"the Chrome trace has no {expected} span")
    records = [json.loads(line) for line in jsonl.read_text().splitlines()]
    if not records or records[0]["id"] != 0:
        fail("the JSONL trace does not start at span id 0")

    def roots(path: pathlib.Path) -> set[str]:
        return {
            record["name"]
            for record in map(json.loads, path.read_text().splitlines())
            if record["parent"] is None
        }

    if roots(pooled_jsonl) != roots(jsonl):
        fail(
            f"check --jobs {JOBS} records root spans "
            f"{sorted(roots(pooled_jsonl))}, check {sorted(roots(jsonl))}"
        )
    print(f"chrome events: {len(events)}, jsonl spans: {len(records)}")


def scenario_serve(artifacts: pathlib.Path) -> None:
    """A real ``repro serve`` with a fresh result store.

    The AFS-1 batch twice: all misses, then served entirely from the
    store with reports identical apart from the cache block; per-request
    trace ids and stage timings, a span tree whose worker spans share
    the trace id; ``/metrics`` counters that reconcile with the two runs
    and well-formed histograms; one redacted ``job.submitted`` +
    ``job.done`` pair per batch in the event log.  A third submission
    of the batch skips the front end (its traces mark the memo hit and
    hold no ``smv.parse``) with reports byte-identical to the second's.
    Then an AFS-2 batch
    streamed live over SSE: strictly increasing sequence numbers,
    obligation states that only advance, heartbeat ticks from inside the
    fixpoints, zero stalls, and a job document that agrees with the
    stream.  SIGTERM drains cleanly.
    """
    from repro.casestudies.afs1 import AFS1_CLIENT_FIGURE, AFS1_SERVER_FIGURE
    from repro.casestudies.afs2 import (
        CLIENT_SPECS_FIGURE,
        SERVER_SPECS_FIGURE,
        client_source,
        server_source,
    )

    cache_dir = tempfile.mkdtemp(prefix="repro-smoke-serve-")
    event_log = artifacts / "serve_events.jsonl"
    server = spawn(
        "serve", "--port", SERVE_PORT, "--jobs", JOBS,
        "--cache-dir", cache_dir, "--log-file", event_log,
        # tick fast enough that even short fixpoints heartbeat
        "--progress-interval", "0.005",
    )
    client = ServeClient(f"http://127.0.0.1:{SERVE_PORT}")
    with running({"server": server}):
        wait_for_server(client)

        batch = [
            {"source": AFS1_SERVER_FIGURE, "label": "afs1-server"},
            {"source": AFS1_CLIENT_FIGURE, "label": "afs1-client"},
        ]
        first = finished(client.check(batch, wait_timeout=300), "first batch")
        second = finished(client.check(batch, wait_timeout=300), "second batch")

        hits1, misses1 = batch_cache_totals(first)
        hits2, misses2 = batch_cache_totals(second)
        print(f"first batch:  {hits1} hit(s), {misses1} miss(es)")
        print(f"second batch: {hits2} hit(s), {misses2} miss(es)")
        if hits1 != 0 or misses1 == 0:
            fail("first batch should be all cache misses")
        if misses2 != 0:
            fail("second batch was not served entirely from the store")
        if hits2 != misses1:
            fail("second batch hits do not cover the first batch's misses")
        if comparable(first, replay=True) != comparable(second, replay=True):
            fail("warm reports differ from cold beyond the cache block")
        print("warm reports byte-identical to cold (modulo cache block)")

        # -- trace propagation -------------------------------------------
        for name, job in (("first", first), ("second", second)):
            if not job.get("trace_id"):
                fail(f"{name} job document carries no trace_id")
            timings = job.get("timings") or {}
            for key in ("queue_wait_seconds", "check_seconds",
                        "serialize_seconds", "total_seconds"):
                if key not in timings:
                    fail(f"{name} job timings are missing {key}")
        if first["trace_id"] == second["trace_id"]:
            fail("both batches share one trace_id; should be per-request")
        trace = client.job_trace(first["id"])
        if trace["trace_id"] != first["trace_id"]:
            fail("trace endpoint returns a different trace_id")
        spans = trace["spans"]
        names = {span["name"] for span in spans}
        for expected in ("serve.job", "serve.check", "store.cached_check"):
            if expected not in names:
                fail(f"trace is missing a {expected} span")
        workers = [s for s in spans if s["name"] == "worker.item"]
        if not workers:
            fail("trace has no worker-process spans (pool not traced?)")
        for span in workers:
            if span.get("attrs", {}).get("trace_id") != first["trace_id"]:
                fail("a worker span does not carry the request trace_id")
        pids = {s["attrs"].get("pid") for s in workers}
        if len(pids) < JOBS:
            fail(f"expected ≥{JOBS} worker pids, got {sorted(pids)}")
        print(
            f"trace: {len(spans)} spans, {len(workers)} worker span(s) "
            f"across {len(pids)} worker pid(s), all sharing the trace id"
        )
        (artifacts / "serve_trace.json").write_text(json.dumps(trace, indent=2))

        metrics = client.metrics_text()
        (artifacts / "serve_metrics.txt").write_text(metrics)
        (artifacts / "serve_jobs.json").write_text(
            json.dumps({"first": first, "second": second}, indent=2)
        )
        samples, types = parse_prometheus(metrics)
        for required in ("repro_store_hits", "repro_store_misses",
                         "repro_serve_jobs_completed"):
            if required not in samples:
                fail(f"/metrics is missing {required}")
        if int(samples["repro_serve_jobs_completed"]) != 2:
            fail("jobs_completed != 2")
        if int(samples["repro_store_misses"]) != misses1:
            fail("store miss counter does not match the cold batch")
        for family in ("repro_request_duration_seconds",
                       "repro_request_stage_check_seconds",
                       "repro_request_stage_queue_wait_seconds"):
            check_histogram(samples, types, family)
        if samples.get("repro_request_duration_seconds_count") != 2:
            fail("request duration histogram should hold 2 observations")
        print("metrics reconcile with the two batches; histograms well-formed")

        # -- structured event log ----------------------------------------
        events = [
            json.loads(line)
            for line in event_log.read_text().splitlines()
            if line.strip()
        ]
        done = [e for e in events if e.get("event") == "job.done"]
        submitted = [e for e in events if e.get("event") == "job.submitted"]
        if len(done) != 2 or len(submitted) != 2:
            fail(
                f"event log should hold 2 submitted + 2 done events, "
                f"got {len(submitted)} + {len(done)}"
            )
        for event in done:
            if event.get("trace_id") not in (
                first["trace_id"], second["trace_id"]
            ):
                fail("a job.done event has an unknown trace_id")
            if "total_seconds" not in event:
                fail("job.done events should carry total_seconds")
        for event in submitted:
            for digest in event.get("sources", []):
                if not str(digest).startswith("sha256:"):
                    fail(f"unredacted source in event log: {digest!r}")
        print(f"event log: {len(events)} events, sources redacted to digests")

        # -- front-end memo ----------------------------------------------
        # the second batch, answered entirely from the store, admitted
        # each source's front end: a third skips parse and elaboration
        third = finished(client.check(batch, wait_timeout=300), "third batch")
        if third["reports"] != second["reports"]:
            fail("memo-hit reports differ from the store replay's")
        spans = client.job_trace(third["id"])["spans"]
        checks = [s for s in spans if s["name"] == "store.cached_check"]
        if len(checks) != len(batch) or any(
            s.get("attrs", {}).get("front_end") != "memo" for s in checks
        ):
            fail("the third batch's checks did not hit the front-end memo")
        front = {s["name"] for s in spans} & {
            "smv.parse", "smv.elaborate", "store.fingerprint"
        }
        if front:
            fail(f"a memo hit still ran the front end: {sorted(front)}")
        print("third batch: front-end memo hit, reports byte-identical")

        # -- live progress over SSE --------------------------------------
        # the figure specs (Srv1/Srv2/Cli1) are AX-shaped; one AG EF
        # tautology per module guarantees live fixpoint heartbeats
        fixpoint_spec = "SPEC AG EF (failure | !failure)\n"
        afs2_batch = [
            {
                "source": server_source(2, rename=False)
                + SERVER_SPECS_FIGURE + fixpoint_spec,
                "label": "afs2-server",
            },
            *(
                {
                    "source": client_source(i, rename=False)
                    + CLIENT_SPECS_FIGURE + fixpoint_spec,
                    "label": f"afs2-client{i}",
                }
                for i in (1, 2)
            ),
        ]
        accepted = client.submit(afs2_batch)
        # consume the stream while the job runs — iter_events returns at
        # the server's terminal `end` frame
        stream = list(client.iter_events(accepted["id"]))
        write_jsonl(artifacts / "serve_progress.jsonl", stream)
        if not stream:
            fail("the events stream delivered nothing for the AFS-2 batch")
        final_states = check_progress_stream(stream)
        if not final_states:
            fail("no per-obligation lifecycle events in the stream")
        unfinished = {
            name: state
            for name, state in final_states.items()
            if RANK[state] != 2
        }
        if unfinished:
            fail(f"obligations never reached a terminal state: {unfinished}")
        ticks = [e for e in stream if e.get("kind") == "obligation.tick"]
        if not ticks:
            fail("no heartbeat ticks from inside the symbolic fixpoints")
        for tick in ticks:
            if "phase" not in tick or tick.get("iterations", 0) < 1:
                fail(f"malformed heartbeat tick: {tick}")
        terminal = [e for e in stream if e.get("kind") == "job.state"]
        if not terminal or terminal[-1].get("state") != "done":
            fail("the stream did not end with a done job.state event")
        live_job = finished(client.job(accepted["id"]), "AFS-2 batch")
        obligations = live_job.get("obligations") or {}
        if set(obligations) != set(final_states):
            fail("job document and stream disagree on the obligation set")
        if any(entry["stalled"] for entry in obligations.values()):
            fail("the finished job document flags a stalled obligation")
        if client.healthz().get("stalled_obligations", 0) != 0:
            fail("healthz reports stalled obligations after a clean run")
        phases = sorted({t["phase"] for t in ticks})
        print(
            f"live progress: {len(stream)} events over SSE, "
            f"{len(final_states)} obligations all terminal, "
            f"{len(ticks)} heartbeat tick(s) (phases: {', '.join(phases)}), "
            f"zero stalls"
        )
        drain("server", server)
    print("SIGTERM drain clean (exit 0)")


def steered_batch(config, tag: str, n: int, count: int) -> list[dict]:
    """``count`` equal-cost AFS-2 server-``n`` checks, split evenly by
    the ring.

    Each check pads the module with one uniquely named boolean (the
    canonical module text is what the store fingerprints, so the pads
    keep the checks from collapsing onto one record; ``tag`` keeps two
    batches apart) and the pad index is searched until the ring routes
    the check to the desired shard — a deterministic half/half split,
    independent of hash luck.
    """
    from repro.casestudies.afs2 import SERVER_SPECS_FIGURE, server_source
    from repro.cluster.ring import request_fingerprint

    base = server_source(n, rename=False)
    shards = list(config.shard_ids)
    checks = []
    salt = 0
    for i in range(count):
        want = shards[i % len(shards)]
        while True:
            source = (
                base.replace("VAR", f"VAR\n  {tag}{salt} : boolean;", 1)
                + SERVER_SPECS_FIGURE
            )
            salt += 1
            check = {"source": source, "label": f"srv{n}-{tag}{i}"}
            if config.ring.owner(request_fingerprint(check)) == want:
                checks.append(check)
                break
            if salt > 10_000:  # pragma: no cover
                fail("could not steer the batch onto both shards")
    return checks


def settled_metrics(clients: dict) -> tuple[dict, dict, str]:
    """Members' registries, the router's JSON twin and its text, taken
    while no member counter moves (peer pushes replicate
    asynchronously after a batch finishes)."""
    for _ in range(20):
        before = {m: clients[m]._request("GET", "/v1/metrics") for m in "ab"}
        twin = clients["router"]._request("GET", "/v1/cluster/metrics")
        text = clients["router"].metrics_text()
        after = {m: clients[m]._request("GET", "/v1/metrics") for m in "ab"}
        if [d["values"] for d in before.values()] == [
            d["values"] for d in after.values()
        ]:
            return before, twin, text
        time.sleep(0.5)
    fail("member registries never settled")


def observe_cluster(clients, config, ring: str, artifacts) -> None:
    """The router's observability plane on one novel steered batch.

    Its merged SSE stream, consumed live, is ordered, shard-tagged and
    monotone; its stitched trace is one ``router.job`` root over spans
    from both shards, all under the router-minted trace id; its
    federated metrics reconcile with the members' own registries
    counter for counter, exactly, the ``/metrics`` text agreeing with
    the JSON twin sample for sample, every federated histogram family
    well-formed; and ``repro cluster status`` reports both shards
    healthy.
    """
    router = clients["router"]
    batch = steered_batch(config, "obs", OBS_N, OBS_CHECKS)
    accepted = router.submit(batch, timeout=600)
    trace_id = accepted.get("trace_id", "")
    if len(trace_id) != 32:
        fail(f"router acceptance has no minted trace_id: {accepted}")
    events: list[dict] = []
    consumer = threading.Thread(
        target=lambda: events.extend(router.iter_events(accepted["id"])),
        daemon=True,
    )
    consumer.start()
    job = finished(router.wait(accepted["id"], timeout=600), "routed batch")
    if job["trace_id"] != trace_id:
        fail("job document lost the router-minted trace id")
    if any(not part["trace_id"] for part in job["shards"]):
        fail("a shard slice reports an empty trace_id")
    consumer.join(timeout=120)
    if consumer.is_alive():
        fail("router event stream never reached its end frame")
    check_merged_stream(events, config.shard_ids)
    write_jsonl(artifacts / "router_events.jsonl", events)
    print(f"events: {len(events)} merged, both shards tagged, states monotone")

    # -- the stitched trace -----------------------------------------------
    trace = router.job_trace(accepted["id"])
    (artifacts / "cluster_trace.json").write_text(json.dumps(trace, indent=2))
    if trace["trace_id"] != trace_id:
        fail("stitched trace does not carry the minted trace id")
    spans = trace["spans"]
    roots = [s for s in spans if s["parent"] is None]
    if len(roots) != 1 or roots[0]["name"] != "router.job":
        fail(f"expected one router.job root, got {roots}")
    attrs = [s.get("attrs", {}) for s in spans]
    span_shards = {a["shard"] for a in attrs if "shard" in a}
    if span_shards != set(config.shard_ids):
        fail(f"stitched trace covers {span_shards}, want both shards")
    ids = {a["trace_id"] for a in attrs if "trace_id" in a}
    if ids != {trace_id}:
        fail(f"span trace ids disagree with the minted id: {ids}")
    if any(s["start_us"] < 0 for s in spans):
        fail("stitched trace has negative span offsets")
    categories = sorted({s.get("cat", "") for s in spans} - {""})
    print(
        f"trace: {len(spans)} spans from {len(span_shards)} shards "
        f"under one root (categories: {', '.join(categories)})"
    )

    # -- federated metrics reconcile exactly --------------------------------
    registries, twin, federated_text = settled_metrics(clients)
    member_texts = {m: clients[m].metrics_text() for m in "ab"}
    (artifacts / "federated_metrics.txt").write_text(federated_text)
    for m, text in member_texts.items():
        (artifacts / f"member_metrics_{m}.txt").write_text(text)
    federated = scalar_samples(federated_text)
    members = [scalar_samples(text) for text in member_texts.values()]
    for counter in (
        "repro_serve_jobs_submitted",
        "repro_serve_jobs_completed",
        "repro_serve_checks_submitted",
        "repro_store_misses",
    ):
        expect = sum(m.get(counter, 0.0) for m in members)
        got = federated.get(f"repro_cluster_{counter[len('repro_'):]}")
        if got != expect:
            fail(f"federated {counter}: {got} != member sum {expect}")
    if federated.get("repro_cluster_members") != 2:
        fail("repro_cluster_members != 2")
    if federated.get("repro_cluster_scrape_errors") != 0:
        fail("scrape errors on an all-healthy cluster")
    if twin["scraped"] != 2 or twin["errors"]:
        fail(f"JSON twin disagrees: {twin['scraped']}, {twin['errors']}")
    # counter for counter: members' registries against the twin
    order = [registries[m] for m in "ab"]
    for name, value in expected_cluster_totals(order).items():
        got = twin["aggregates"].get(prom_name(name, "repro_cluster"))
        if got != value:
            fail(f"cluster {name}: {got} != member fold {value}")
    for m, shard in zip("ab", config.shard_ids):
        for counter, value in registries[m]["values"].items():
            got = twin["shards"][shard].get(prom_name(counter, "repro"))
            if got != value:
                fail(f"{shard} {counter}: twin {got} != member {value}")
    # the text document renders every twin sample exactly
    for name, value in twin["aggregates"].items():
        if federated.get(name) != value:
            fail(f"JSON twin {name}={value} != text {federated.get(name)}")
    samples, types = parse_prometheus(federated_text)
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

    # -- the status CLI ------------------------------------------------------
    status = run_repro("cluster", "status", "--ring", ring)
    if "2/2 shard(s) healthy" not in status.stdout:
        fail(f"status table missing health line:\n{status.stdout}")
    print("status: CLI reports 2/2 shards healthy")


def scenario_cluster(artifacts: pathlib.Path) -> None:
    """Two ring members, a consistent-hash router and a single-instance
    baseline on loopback, driven through every path the cluster promises.

    One AFS-2 batch: cold on the single instance (the baseline every
    other run must reproduce), cold through the router (split evenly
    across both shards, reports identical, at least ``MIN_SPEEDUP``
    faster on a multi-core host, a floor enforced after every other
    check has run); then :func:`observe_cluster` on a second, smaller
    batch; then
    warm on the single instance and re-submitted to member B, which
    computed only its own shard's half (every verdict replays, at least
    one via peer fetch, the hit rate no worse than single-node warm).
    Member A is SIGKILLed: fresh checks on B still succeed (local
    checking, a peer-fetch error and an observable circuit-open), the
    router fails over and marks A down.  SIGTERM drains the rest.
    """
    from repro.casestudies.afs1 import AFS1_SERVER_FIGURE
    from repro.cluster.ring import RingConfig

    work = pathlib.Path(tempfile.mkdtemp(prefix="repro-smoke-cluster-"))
    logs = {m: work / f"{m}_events.jsonl" for m in "ab"}
    ring = ",".join(f"127.0.0.1:{CLUSTER_PORTS[m]}" for m in "ab")
    config = RingConfig.parse(ring)
    procs = {
        m: spawn(
            "serve", "--port", CLUSTER_PORTS[m], "--jobs", 1,
            "--cache-dir", work / f"{m}-store",
            "--ring", ring, "--advertise", f"127.0.0.1:{CLUSTER_PORTS[m]}",
            "--log-file", logs[m],
        )
        for m in "ab"
    }
    procs["single"] = spawn(
        "serve", "--port", CLUSTER_PORTS["single"], "--jobs", 1,
        "--cache-dir", work / "single-store",
    )
    procs["router"] = spawn(
        "cluster", "router", "--ring", ring,
        "--port", CLUSTER_PORTS["router"],
    )
    clients = {
        name: ServeClient(f"http://127.0.0.1:{port}")
        for name, port in CLUSTER_PORTS.items()
    }
    with running(procs):
        for client in clients.values():
            wait_for_server(client)
        health = clients["router"].healthz()
        if health["ring"]["members"] != list(config.shard_ids):
            fail("router healthz does not list the ring membership")
        if not all(s["reachable"] for s in health["shards"].values()):
            fail("router healthz: not every shard is reachable at start")

        batch = steered_batch(config, "pad", N, CHECKS)

        # -- sequential single-node baseline (cold) ----------------------
        t0 = time.perf_counter()
        baseline = clients["single"].check(batch, wait_timeout=600)
        t_single = time.perf_counter() - t0
        finished(baseline, "baseline batch")
        if batch_cache_totals(baseline)[1] == 0:
            fail("baseline batch was not cold")

        # -- cold through the router -------------------------------------
        t0 = time.perf_counter()
        cold = clients["router"].check(batch, wait_timeout=600)
        t_cluster = time.perf_counter() - t0
        finished(cold, "cold cluster batch")
        if comparable(cold) != comparable(baseline):
            fail("cold cluster reports differ from the sequential baseline")
        used = {part["shard"] for part in cold["shards"]}
        if used != set(config.shard_ids):
            fail(f"the batch did not split across both shards: {used}")
        sizes = sorted(len(part["indices"]) for part in cold["shards"])
        if sizes != [CHECKS // 2, CHECKS // 2]:
            fail(f"steering did not split the batch evenly: {sizes}")
        speedup = t_single / t_cluster
        if hasattr(os, "sched_getaffinity"):
            cores = len(os.sched_getaffinity(0))
        else:  # pragma: no cover - non-Linux
            cores = os.cpu_count() or 1
        print(
            f"cold: single {t_single:.2f}s, cluster {t_cluster:.2f}s "
            f"({speedup:.2f}x, floor {MIN_SPEEDUP:.1f}x, {cores} core(s)), "
            f"split {sizes[0]}/{sizes[1]}, reports byte-identical"
        )
        if cores < 2:
            # both shard workers share one core: a wall-clock win is
            # physically impossible, so only the correctness half of
            # the cold phase is gated here
            print("WARNING: single-core host, throughput floor not enforced")

        observe_cluster(clients, config, ring, artifacts)

        # -- warm hit rates: single-node, then cross-instance ------------
        hits_s, misses_s = batch_cache_totals(
            clients["single"].check(batch, wait_timeout=600)
        )
        if misses_s != 0:
            fail("single-instance warm run was not fully cached")
        rate_single = hits_s / (hits_s + misses_s)

        warm_b = finished(
            clients["b"].check(batch, wait_timeout=600),
            "cross-instance warm batch",
        )
        if warm_b.get("shard") != config.shard_ids[1]:
            fail("warm job document does not carry instance B's shard id")
        hits_b, misses_b = batch_cache_totals(warm_b)
        rate_b = hits_b / (hits_b + misses_b)
        if rate_b < rate_single:
            fail(
                f"cross-instance warm hit rate {rate_b:.2f} below "
                f"single-instance {rate_single:.2f}"
            )
        if comparable(warm_b) != comparable(baseline):
            fail("cross-instance warm reports differ from the baseline")
        metrics_b = scalar_samples(clients["b"].metrics_text())
        peer_hits = metrics_b.get("repro_cluster_peer_fetch_hit", 0)
        if peer_hits < 1:
            fail("instance B served the warm batch without one peer fetch")
        print(
            f"warm: single {rate_single:.0%} hits, cross-instance "
            f"{rate_b:.0%} hits with {int(peer_hits)} peer fetch(es), "
            f"reports byte-identical"
        )

        # -- kill a cache peer: requests must degrade, not fail ----------
        procs["a"].kill()
        procs["a"].wait(timeout=30)
        fresh = [{"source": AFS1_SERVER_FIGURE, "label": "post-kill"}]
        degraded = finished(
            clients["b"].check(fresh, wait_timeout=600), "post-kill batch on B"
        )
        metrics_b = scalar_samples(clients["b"].metrics_text())
        if metrics_b.get("repro_cluster_peer_fetch_error", 0) < 1:
            fail("killing A produced no cluster_peer_fetch_error on B")
        cluster_b = clients["b"].healthz().get("cluster") or {}
        circuit_events = [
            e
            for e in cluster_b.get("events", [])
            if e.get("kind") == "circuit-open"
        ]
        if metrics_b.get("repro_cluster_circuit_open", 0) < 1 and not circuit_events:
            fail("no observable circuit-open after killing A")
        print(
            "peer death: B degraded to local checking "
            f"({int(metrics_b['repro_cluster_peer_fetch_error'])} fetch "
            f"error(s), circuit events: {len(circuit_events)})"
        )

        # ...and the router fails over to the surviving member
        finished(
            clients["router"].check(fresh, wait_timeout=600),
            "post-kill batch via router",
        )
        health = clients["router"].healthz()
        if health["shards"][config.shard_ids[0]]["reachable"]:
            fail("router healthz still reports the killed shard reachable")
        print("peer death: router failed over; healthz marks A down")

        # -- artifacts ----------------------------------------------------
        events = [
            {"instance": m, **json.loads(line)}
            for m, path in logs.items()
            if path.exists()
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        events += [
            {"instance": "b", "event": "circuit-open", **event}
            for event in circuit_events
        ]
        if not events:
            fail("no structured events collected for cluster_events.jsonl")
        write_jsonl(artifacts / "cluster_events.jsonl", events)
        (artifacts / "cluster_jobs.json").write_text(
            json.dumps(
                {
                    "baseline": baseline,
                    "cold_cluster": cold,
                    "warm_cross_instance": warm_b,
                    "post_kill": degraded,
                    "timings": {
                        "single_cold_s": round(t_single, 3),
                        "cluster_cold_s": round(t_cluster, 3),
                        "speedup": round(speedup, 2),
                    },
                },
                indent=2,
            )
        )
        for name in ("b", "single", "router"):
            (artifacts / f"cluster_metrics_{name}.txt").write_text(
                clients[name].metrics_text()
            )
        print(f"artifacts: {len(events)} events in cluster_events.jsonl")
        for name in ("router", "b", "single"):
            drain(name, procs[name], ack=name != "router")

    # enforced last, so a slow router does not hide the checks above
    if cores >= 2 and speedup < MIN_SPEEDUP:
        fail(
            f"cold cluster throughput {speedup:.2f}x below the "
            f"{MIN_SPEEDUP:.1f}x floor"
        )


SCENARIOS = {
    "obs": scenario_obs,
    "serve": scenario_serve,
    "cluster": scenario_cluster,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="No scenario named runs all of them.",
    )
    parser.add_argument(
        "scenario", nargs="*", metavar="SCENARIO",
        help=f"one of: {', '.join(SCENARIOS)}",
    )
    parser.add_argument(
        "--artifact-dir", default="smoke-artifacts", metavar="DIR",
        help="where traces, metrics and job documents are written "
        "(default: %(default)s)",
    )
    args = parser.parse_args(argv)
    unknown = sorted(set(args.scenario) - set(SCENARIOS))
    if unknown:
        parser.error(f"unknown scenario(s): {', '.join(unknown)}")
    artifacts = pathlib.Path(args.artifact_dir).resolve()
    artifacts.mkdir(parents=True, exist_ok=True)
    for name in args.scenario or SCENARIOS:
        print(f"== {name}")
        try:
            SCENARIOS[name](artifacts)
        except SmokeFailure as exc:
            print(f"FAIL [{name}]: {exc}", file=sys.stderr)
            return 1
        print(f"OK: {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
