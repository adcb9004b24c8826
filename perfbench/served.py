"""``serve-mix`` and ``cluster-batch``: the program's HTTP endpoints.

Both drive real ``python -m repro`` subprocesses over loopback, with a
fresh connection per request (the service answers in two writes, and a
reused connection pays a delayed-ACK stall on every request).
Completion is detected by long-poll on ``GET /v1/jobs/<id>/events?poll=``
for events past a sequence number no job reaches: the request returns
when the job's event stream closes, which it does the moment the job
ends, so no poll interval puts a floor under a short op and each op
costs one poll unless it outlasts the poll window (``serve.polls``).
Ops are timed in wall time on the benchmark's side, and ``run.py``
scales each by the :class:`common.SpeedProbe` samples taken around it.

``serve-mix``: one ``repro serve --jobs 1 --cache-dir`` process, driven
by an open loop at ``RATE`` checks/s over at most two connections.  An
op is due at ``i / RATE`` seconds; its latency runs from that due time,
so a stall shows in every op behind it, and ``loadgen.late_p90_ms``
reports how late the generator sent.  Per block of ``SERVE_MIX``, 16
ops are exact repeats of checks the store already holds (replays) and 4
are novel renamed catalog checks, so ``verdict_p50_ms`` falls inside the
replays and ``verdict_p90_ms`` inside the novel checks.  The larger AFS-2
servers are left out of the served mix: one 300 ms check in a 20-op
block would make the queue, not the mix, set every percentile.

``cluster-batch``: two ``repro serve --jobs 1 --ring ... --cache-dir``
members and ``repro cluster router``, in a closed loop with one 4-check
batch outstanding.  Per block of ``CLUSTER_MIX`` batches:

* ``novel``: 4 novel checks through the router, two owned by each member;
* ``repeat``: 4 checks the owners already hold, through the router;
* ``peer``: 4 checks sent straight to one member: two computed in an
  earlier block by the other member, which the member answers from its
  peer's store (or from the copy its peer pushed to it), and its own two
  repeat checks, answered from its local store.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import ExitStack
from urllib.parse import urlsplit

from catalog import Prefixes, catalog, renamed, stratified
from common import (
    SpanLog,
    SpeedProbe,
    clock,
    descendants,
    mean,
    median,
    peak_rss_mb,
    program_env,
    quantile,
    ratio,
    scratch_dir,
)
from layers import empty_layers

TERMINAL = ("done", "failed", "timeout", "cancelled")
#: Seconds a single op may take before it counts as failed.
OP_TIMEOUT = 60.0
#: Long-poll window per events request.
POLL_SECONDS = 2.0
#: Seconds a job may report a closed event stream without reaching a
#: terminal state before its batch is submitted again.  The router marks
#: a shard slice whose 202 reply already says ``done`` as finished but
#: never fetches its reports, so the routed job reads ``running`` for
#: ever; under heavy CPU steal about one cluster-batch run in five met
#: that race.  A check is content-addressed, so the second submission is
#: the same request.
STUCK_SECONDS = 1.0
#: An event sequence number no job reaches: a long-poll for events past
#: it returns when the job's event stream closes, that is, when it ends.
NEVER_SEQ = 2**31

#: Offered rate of ``serve-mix`` (checks/s): a quarter of the 52/s a
#: 2-connection closed loop sustained on a 2-core Xeon VM with an earlier,
#: heavier mix of repeats.  At half that rate queueing amplified the
#: machine's speed swings until the median moved by 0.85 of itself
#: between seeds.
RATE = 13.0
CONNECTIONS = 2
SERVE_MIX = {
    "repeat": 16,
    "afs2_client_false": 1,
    "afs2_server2": 3,
}
#: Entries the repeats alternate between.  A replay's time grows with its
#: source (the service parses it to fingerprint it): repeats cycling over
#: six entries ranged 11-22 ms by entry, and the median moved with the
#: mixture.  These two replay in the same time, as do the novel classes.
REPEATED = ("afs2_client", "afs2_client_false")

CLUSTER_MIX = {"novel": 1, "repeat": 1, "peer": 2}
#: Batches per run at least, so that ten lie beyond ``verdict_p90_ms``.
MIN_BATCHES = 100
#: Per member, the catalog entries of a novel batch's slice.
NOVEL_SLICE = ("afs2_server2", "afs2_client")
#: Per member, the entries of the repeat batch's slice.
REPEAT_SLICE = ("afs2_server2", "afs1_server")


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------
class OpFailed(Exception):
    """An HTTP error, an unretried 429, a timeout or a bad job state."""


def call(base: str, method: str, path: str, body=None, timeout=OP_TIMEOUT):
    """One request on a fresh connection: ``(status, json, headers)``."""
    parts = urlsplit(base)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=timeout)
    try:
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        conn.request(method, path, body=data, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        kind = response.getheader("Content-Type", "")
        payload = json.loads(raw) if kind.startswith("application/json") else raw
        return response.status, payload, response
    except (OSError, http.client.HTTPException, ValueError) as exc:
        raise OpFailed(f"{method} {base}{path}: {type(exc).__name__}: {exc}")
    finally:
        conn.close()


class JobTally:
    """Client-side counts for one op."""

    __slots__ = ("submit_s", "polls", "rejected", "resubmitted")

    def __init__(self):
        self.submit_s = 0.0
        self.polls = 0
        self.rejected = 0
        self.resubmitted = 0


def run_job(base: str, checks: list[dict], tally: JobTally) -> dict:
    """Submit a batch, long-poll its events until terminal, return the
    finished job document; a stuck job's batch is submitted again."""
    deadline = clock() + OP_TIMEOUT
    while True:
        job = _submit(base, checks, tally, deadline)
        if _ended(base, job, tally, deadline):
            break
        tally.resubmitted += 1
    status, doc, _ = call(base, "GET", f"/v1/jobs/{job}")
    if status != 200 or doc.get("state") != "done":
        raise OpFailed(f"job {job} ended {doc.get('state')}: {doc.get('error')}")
    return doc


def _submit(base, checks, tally, deadline) -> str:
    while True:
        started = clock()
        status, accepted, response = call(
            base, "POST", "/v1/check", {"checks": checks}
        )
        tally.submit_s += clock() - started
        if status != 429:
            break
        tally.rejected += 1  # backpressure: honor Retry-After, then retry
        if clock() > deadline:
            raise OpFailed("429 until the op timed out")
        time.sleep(min(float(response.getheader("Retry-After") or 0.05), 1.0))
    if status != 202:
        raise OpFailed(f"POST /v1/check: HTTP {status}: {accepted}")
    return accepted["id"]


def _ended(base, job, tally, deadline) -> bool:
    """True once ``job`` is terminal; False once it is stuck."""
    closed_at = None
    while True:
        if clock() > deadline:
            raise OpFailed(f"job {job} not finished after {OP_TIMEOUT:g} s")
        status, events, _ = call(
            base,
            "GET",
            f"/v1/jobs/{job}/events?poll={POLL_SECONDS:g}&since={NEVER_SEQ}",
        )
        tally.polls += 1
        if status != 200:
            raise OpFailed(f"events of {job}: HTTP {status}")
        if events["state"] in TERMINAL:
            return True
        if events["closed"]:  # stream closed, reports still landing
            closed_at = closed_at or clock()
            if clock() - closed_at > STUCK_SECONDS:
                return False
            time.sleep(0.001)


def timed_doc(base: str, job: str) -> dict:
    """A finished job document once its ``timings`` are stamped."""
    for _ in range(1000):
        status, doc, _ = call(base, "GET", f"/v1/jobs/{job}")
        if status == 200 and doc.get("timings"):
            return doc
        time.sleep(0.001)
    raise OpFailed(f"job {job} never showed timings")


def verdicts_ok(doc: dict, expected: list[tuple]) -> bool:
    reports = doc.get("reports") or []
    got = [tuple(spec["holds"] for spec in r["specs"]) for r in reports]
    return got == [tuple(e) for e in expected]


def cache_misses(doc: dict) -> int:
    return sum((r.get("cache") or {}).get("misses", 0) for r in doc["reports"])


def server_side(doc: dict) -> dict:
    """Per-stage seconds of one shard job document, plus the pool's
    overhead: check time not spent inside a checker."""
    timings = doc["timings"]
    checked = [
        spec
        for report in doc["reports"]
        for spec in report["specs"]
        if not spec["cached"]
    ]
    return {
        "total": timings["total_seconds"],
        "queue_wait": timings["queue_wait_seconds"],
        "probe": timings["cache_probe_seconds"],
        "check": timings["check_seconds"],
        "serialize": timings["serialize_seconds"],
        "items": len(checked),
        "overhead": (
            timings["check_seconds"]
            - sum(spec["stats"]["user_time"] for spec in checked)
            if checked
            else None
        ),
        "hits": sum(r["cache"]["hits"] for r in doc["reports"]),
        "probes": sum(
            r["cache"]["hits"] + r["cache"]["misses"] for r in doc["reports"]
        ),
    }


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def free_ports(count: int) -> list[int]:
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket()
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


PR_SET_PDEATHSIG = 1


def _stop_with_parent() -> None:
    """In the child: get SIGTERM when the benchmark process dies, so a
    killed run leaves no service behind (Linux ``PR_SET_PDEATHSIG``)."""
    import ctypes

    try:
        prctl = ctypes.CDLL(None).prctl
    except (OSError, AttributeError):
        return  # not Linux: rely on stop() alone
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)


class Service:
    """One ``python -m repro ...`` subprocess listening on ``port``."""

    def __init__(self, args: list[str], port: int, log_path):
        self.base = f"http://127.0.0.1:{port}"
        self._log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args, "--port", str(port)],
            stdout=subprocess.DEVNULL,
            stderr=self._log,
            env=program_env(),
            preexec_fn=_stop_with_parent,
            start_new_session=True,
        )

    def wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = clock() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"{self.base} exited {self.proc.returncode}")
            try:
                status, _, _ = call(self.base, "GET", "/healthz", timeout=2)
                if status == 200:
                    return
            except OpFailed:
                pass
            if clock() > deadline:
                raise RuntimeError(f"{self.base} not healthy after {timeout} s")
            time.sleep(0.01)

    def pids(self) -> list[int]:
        return [self.proc.pid, *descendants(self.proc.pid)]

    def stop(self) -> None:
        """Drain the service with SIGTERM, then kill whatever is left in
        its process group (a service stopped mid-start-up may leave a
        freshly forked worker behind)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except OSError:
            pass  # the group is already empty
        self._log.close()


def counters(base: str) -> dict[str, float]:
    """The plain ``name value`` samples of a member's ``/metrics``."""
    status, text, _ = call(base, "GET", "/metrics")
    if status != 200:
        raise OpFailed(f"{base}/metrics: HTTP {status}")
    if isinstance(text, bytes):
        text = text.decode()
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, _, value = line.partition(" ")
            try:
                samples[name] = float(value)
            except ValueError:
                continue
    return samples


def _server_layers(rows: list[dict], layers: dict) -> None:
    """Fill the serve/parallel/store layers from traced ops' rows."""
    sides = [side for row in rows for side in row["sides"]]
    overheads = [s["overhead"] for s in sides if s["overhead"] is not None]
    layers.update(
        {
            "serve.submit_ms": median(r["submit_s"] for r in rows) * 1e3,
            "serve.queue_wait_ms": median(s["queue_wait"] for s in sides) * 1e3,
            "serve.probe_ms": median(s["probe"] for s in sides) * 1e3,
            "serve.check_ms": median(s["check"] for s in sides) * 1e3,
            "serve.serialize_ms": median(s["serialize"] for s in sides) * 1e3,
            "serve.polls": mean(r["polls"] for r in rows),
            "serve.rejected": float(sum(r["rejected"] for r in rows)),
            "parallel.overhead_ms": median(overheads) * 1e3 if overheads else 0.0,
            "parallel.items": mean(s["items"] for s in sides),
            "store.gets": mean(s["probes"] for s in sides),
            "store.hit_ratio": ratio(
                sum(s["hits"] for s in sides), sum(s["probes"] for s in sides)
            ),
        }
    )


# ----------------------------------------------------------------------
# serve-mix
# ----------------------------------------------------------------------
class ServeMix:
    name = "serve-mix"

    def __init__(self, seed: int, trace: bool):
        self.rng = random.Random(seed)
        self.trace = trace
        self.rate = RATE

    def setup(self) -> None:
        self.stack = ExitStack()
        root = self.stack.enter_context(scratch_dir("serve"))
        self.catalog = catalog()
        self.prefixes = Prefixes(self.rng)
        self.service = Service(
            ["serve", "--jobs", "1", "--cache-dir", str(root / "store")],
            free_ports(1)[0],
            root / "serve.log",
        )
        self.stack.callback(self.service.stop)
        self.service.wait_healthy()
        # the store holds every repeated check; warm-up runs each novel
        # class once
        warm = [self.catalog[name] for name in REPEATED]
        doc = run_job(
            self.service.base,
            [{"source": e.source} for e in warm],
            JobTally(),
        )
        if not verdicts_ok(doc, [e.expected for e in warm]):
            raise RuntimeError("serve-mix prefill: wrong verdicts")
        for name in SERVE_MIX:
            if name != "repeat":
                entry = self.catalog[name]
                source = renamed(entry.source, self.prefixes.next())
                doc = run_job(self.service.base, [{"source": source}], JobTally())
                if not verdicts_ok(doc, [entry.expected]):
                    raise RuntimeError(f"serve-mix warm-up: {name} wrong")

    def teardown(self) -> None:
        self.stack.close()

    def _schedule(self, seconds: float) -> list[dict]:
        block = sum(SERVE_MIX.values())
        count = -(-int(seconds * self.rate) // block) * block
        classes = stratified(self.rng, SERVE_MIX)
        repeats = 0
        plan = []
        for index in range(count):
            cls = next(classes)
            if cls == "repeat":
                entry = self.catalog[REPEATED[repeats % len(REPEATED)]]
                repeats += 1
                source, kind = entry.source, "replay"
            else:
                entry = self.catalog[cls]
                source, kind = renamed(entry.source, self.prefixes.next()), "cold"
            plan.append(
                {
                    "index": index,
                    "cls": cls,
                    "kind": kind,
                    "source": source,
                    "expected": entry.expected,
                    "traced": self.trace and (index // block) % 2 == 1,
                }
            )
        return plan

    def run(self, seconds: float, log: SpanLog) -> dict:
        plan = self._schedule(seconds)
        base = self.service.base
        lock = threading.Lock()
        cursor = iter(plan)
        ops: list[dict] = []
        rows: list[dict] = []
        start = clock() + 0.05

        def worker():
            while True:
                with lock:
                    item = next(cursor, None)
                if item is None:
                    return
                due = start + item["index"] / self.rate
                delay = due - clock()
                if delay > 0:
                    time.sleep(delay)
                sent = clock()
                tally = JobTally()
                ok, doc = True, None
                try:
                    doc = run_job(base, [{"source": item["source"]}], tally)
                    ok = verdicts_ok(doc, [item["expected"]])
                except OpFailed:
                    ok = False
                done = clock()
                op = {
                    "cls": item["cls"],
                    "kind": item["kind"],
                    "ms": (done - due) * 1e3,
                    "late_ms": (sent - due) * 1e3,
                    "ok": ok,
                    "traced": item["traced"],
                    "misses": cache_misses(doc) if doc else None,
                    "polls": tally.polls,
                    "resubmitted": tally.resubmitted,
                    "due": due,
                    "done": done,
                }
                row = None
                if item["traced"] and doc is not None:
                    log.add("op", item["index"], due, done, cls=item["cls"])
                    log.add("serve.submit", item["index"], sent,
                            sent + tally.submit_s, polls=tally.polls)
                    try:
                        side = server_side(timed_doc(base, doc["id"]))
                        row = {
                            "submit_s": tally.submit_s,
                            "polls": tally.polls,
                            "rejected": tally.rejected,
                            "sides": [side],
                        }
                    except OpFailed:
                        op["ok"] = False
                with lock:
                    ops.append(op)
                    if row is not None:
                        rows.append(row)

        probe = SpeedProbe()
        try:
            threads = [
                threading.Thread(target=worker) for _ in range(CONNECTIONS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            probe.stop()
        wall = max(op["done"] for op in ops) - start
        for op in ops:
            op["cal_ms"] = probe.cal_ms(op.pop("due"), op["done"])
        rss = peak_rss_mb(self.service.pids())
        layers = None
        if self.trace:
            layers = empty_layers()
            _server_layers(rows, layers)
            layers["loadgen.late_p90_ms"] = quantile(
                (op["late_ms"] for op in ops if op["traced"]), 0.9
            )
        plain = [op for op in ops if not op["traced"]]
        return {
            "ops": ops,
            "side_ops": [],
            "open_loop": True,
            "wall_s": wall,
            "rss_mb": rss,
            "layers": layers,
            "record": {
                "mix_per_block": SERVE_MIX,
                "offered_rate_per_s": self.rate,
                "connections": CONNECTIONS,
                "late_p90_ms": quantile((op["late_ms"] for op in plain), 0.9),
                "resubmitted_batches": sum(op["resubmitted"] for op in ops),
                "replays_that_missed": sum(
                    1 for op in ops if op["kind"] == "replay" and op["misses"]
                ),
            },
        }


# ----------------------------------------------------------------------
# cluster-batch
# ----------------------------------------------------------------------
class ClusterBatch:
    name = "cluster-batch"

    def __init__(self, seed: int, trace: bool):
        self.rng = random.Random(seed)
        self.trace = trace

    def setup(self) -> None:
        from repro.cluster.ring import RingConfig, request_fingerprint

        self.stack = ExitStack()
        root = self.stack.enter_context(scratch_dir("cluster"))
        self.catalog = catalog()
        self.prefixes = Prefixes(self.rng)
        self.fingerprint = request_fingerprint
        ports = free_ports(3)
        ring = ",".join(f"127.0.0.1:{port}" for port in ports[:2])
        self.config = RingConfig.parse(ring)
        self.members = {}
        for name, port in zip("ab", ports[:2]):
            member = Service(
                [
                    "serve", "--jobs", "1",
                    "--cache-dir", str(root / f"store-{name}"),
                    "--ring", ring,
                    "--advertise", f"127.0.0.1:{port}",
                ],
                port,
                root / f"member-{name}.log",
            )
            self.stack.callback(member.stop)
            self.members[f"127.0.0.1:{port}"] = member
        self.router = Service(
            ["cluster", "router", "--ring", ring], ports[2], root / "router.log"
        )
        self.stack.callback(self.router.stop)
        for service in (*self.members.values(), self.router):
            service.wait_healthy()
        self.shards = list(self.config.shard_ids)
        # the repeat batch: checks the owners hold from set-up on
        self.repeat_batch = self._steered(REPEAT_SLICE)
        self._checked(self.router.base, self.repeat_batch)
        # warm-up, and the first block's peer supply: each novel batch
        # leaves two checks per member for the other member to fetch
        self.supply = {shard: [] for shard in self.shards}
        for _ in range(CLUSTER_MIX["novel"]):
            self._novel(self._steered(NOVEL_SLICE))

    def teardown(self) -> None:
        self.stack.close()

    def _steered(self, slice_entries) -> list[dict]:
        """A 4-check batch: ``slice_entries`` renamed until each member
        owns one copy of each (ring placement is by request hash)."""
        batch = []
        for shard in self.shards:
            for name in slice_entries:
                entry = self.catalog[name]
                while True:
                    source = renamed(entry.source, self.prefixes.next())
                    check = {"source": source}
                    if self.config.ring.owner(self.fingerprint(check)) == shard:
                        break
                batch.append(
                    {"check": check, "entry": entry, "owner": shard}
                )
        return batch

    def _checked(self, base: str, batch: list[dict], tally=None) -> dict:
        doc = run_job(base, [b["check"] for b in batch], tally or JobTally())
        if not verdicts_ok(doc, [b["entry"].expected for b in batch]):
            raise OpFailed("wrong verdicts")
        return doc

    def _novel(self, batch, tally=None) -> dict:
        doc = self._checked(self.router.base, batch, tally)
        for item in batch:
            self.supply[item["owner"]].append(item)
        return doc

    def _peer_batch(self, member: str) -> tuple[str, list[dict]]:
        """For ``member``: two checks the *other* member computed and
        ``member`` has never seen, and ``member``'s two repeat checks."""
        other = next(s for s in self.shards if s != member)
        fetched, self.supply[other] = (
            self.supply[other][:2], self.supply[other][2:]
        )
        own = [b for b in self.repeat_batch if b["owner"] == member]
        return self.members[member].base, fetched + own

    # ------------------------------------------------------------------
    def run(self, seconds: float, log: SpanLog) -> dict:
        ops: list[dict] = []
        rows: list[dict] = []
        kinds = stratified(self.rng, CLUSTER_MIX)
        block = sum(CLUSTER_MIX.values())
        peer_turn = 0
        fetch = {"hit": 0.0, "miss": 0.0, "error": 0.0}
        probe = SpeedProbe()
        deadline = clock() + seconds
        index = 0
        try:
            while clock() < deadline or index % block or index < MIN_BATCHES:
                traced = self.trace and (index // block) % 2 == 1
                if traced and index % block == 0:
                    before = self._fetch_counters()
                kind = next(kinds)
                if kind == "peer":
                    member = self.shards[peer_turn % 2]
                    peer_turn += 1
                    base, batch = self._peer_batch(member)
                elif kind == "novel":
                    base, batch = self.router.base, self._steered(NOVEL_SLICE)
                else:
                    base, batch = self.router.base, self.repeat_batch
                tally = JobTally()
                op_start = clock()
                ok, doc = True, None
                try:
                    doc = (
                        self._novel(batch, tally)
                        if kind == "novel"
                        else self._checked(base, batch, tally)
                    )
                except OpFailed:
                    ok = False
                op_end = clock()
                op = {
                    "cls": kind,
                    "kind": "cold" if kind == "novel" else "replay",
                    "ms": (op_end - op_start) * 1e3,
                    "ok": ok,
                    "traced": traced,
                    "misses": cache_misses(doc) if doc else None,
                    "polls": tally.polls,
                    "resubmitted": tally.resubmitted,
                    "start": op_start,
                    "end": op_end,
                }
                if traced and doc is not None:
                    log.add("op", index, op_start, op_end, cls=kind)
                    try:
                        rows.append(self._trace_row(kind, base, doc, tally, op))
                    except OpFailed:
                        op["ok"] = False
                ops.append(op)
                index += 1
                if traced and index % block == 0:
                    after = self._fetch_counters()
                    for key in fetch:
                        fetch[key] += after[key] - before[key]
        finally:
            probe.stop()
        for op in ops:
            op["cal_ms"] = probe.cal_ms(op.pop("start"), op.pop("end"))
        rss = peak_rss_mb(
            [pid for s in (*self.members.values(), self.router) for pid in s.pids()]
        )
        layers = None
        if self.trace:
            layers = empty_layers()
            _server_layers(rows, layers)
            routed = [r for r in rows if r["kind"] != "peer"]
            novel = [r for r in rows if r["kind"] == "novel"]
            layers.update(
                {
                    "cluster.route_ms": median(r["route_ms"] for r in routed),
                    "cluster.shard_skew_ratio": median(
                        r["skew"] for r in novel
                    ),
                    "cluster.peer_fetch_hits": fetch["hit"],
                    "cluster.peer_fetch_ratio": ratio(
                        fetch["hit"], sum(fetch.values())
                    ),
                }
            )
        return {
            "ops": ops,
            "side_ops": [],
            "open_loop": False,
            "rss_mb": rss,
            "layers": layers,
            "record": {
                "mix_per_block": CLUSTER_MIX,
                "novel_slice_per_member": NOVEL_SLICE,
                "repeat_slice_per_member": REPEAT_SLICE,
                "batch_size": 4,
                "outstanding_batches": 1,
                "resubmitted_batches": sum(op["resubmitted"] for op in ops),
                "replays_that_missed": sum(
                    1 for op in ops if op["kind"] == "replay" and op["misses"]
                ),
            },
        }

    def _fetch_counters(self) -> dict[str, float]:
        totals = {"hit": 0.0, "miss": 0.0, "error": 0.0}
        for member in self.members.values():
            samples = counters(member.base)
            for key in totals:
                totals[key] += samples.get(f"repro_cluster_peer_fetch_{key}", 0.0)
        return totals

    def _trace_row(self, kind, base, doc, tally, op) -> dict:
        if kind == "peer":
            parts = [(base, doc["id"])]
        else:
            parts = [
                (self.members[part["shard"]].base, part["job_id"])
                for part in doc["shards"]
            ]
        sides = [server_side(timed_doc(b, job)) for b, job in parts]
        totals = [side["total"] for side in sides]
        return {
            "kind": kind,
            "submit_s": tally.submit_s,
            "polls": tally.polls,
            "rejected": tally.rejected,
            "sides": sides,
            "route_ms": op["ms"] - max(totals) * 1e3,
            "skew": max(totals) / mean(totals),
        }
