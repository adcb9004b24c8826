"""The peer store tier: remote cache fetch with degrade-not-fail.

A :class:`PeerAwareStore` is a :class:`~repro.store.store.ResultStore`
that, on a local miss, probes the fingerprint's owner shard over
``GET /v1/store/<fingerprint>`` before letting the caller compute — so
a result computed anywhere in the cluster is a warm, byte-identical
replay everywhere.  Fetched records are written back locally
(read-through write-back) and freshly computed records are pushed
asynchronously to their ring owner, which is what makes the owner probe
sufficient even though checks are *routed* by request fingerprint while
the store is *keyed* by semantic fingerprint.

Peers are caches, never authorities: every remote path is wrapped in
per-peer timeouts, bounded retries with exponential backoff + jitter,
and a per-peer :class:`CircuitBreaker` that stops probing a dead peer
for a cool-down window.  A peer failure is a counted event
(``cluster.peer_fetch.error``, a ``circuit-open`` entry in
:meth:`PeerSet.describe`), never an exception out of
:meth:`ResultStore.get` — the request degrades to local checking.
"""

from __future__ import annotations

import queue
import random
import threading
import time
from collections import deque

from repro.cluster.ring import RingConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import TIMER
from repro.serve.client import Reply, exchange
from repro.store.store import ResultStore, StoreRecord

__all__ = [
    "CircuitBreaker",
    "PeerAwareStore",
    "PeerClient",
    "PeerError",
    "PeerSet",
]

#: Per-probe socket timeout (seconds) unless configured otherwise.
DEFAULT_PEER_TIMEOUT = 2.0
#: Fetch attempts per peer per lookup (1 try + retries on transport errors).
DEFAULT_RETRIES = 1
#: Base backoff between retries; doubled per attempt, jittered.
DEFAULT_BACKOFF = 0.05
#: Breaker: consecutive failures before opening.
DEFAULT_FAILURE_THRESHOLD = 3
#: Breaker: seconds open before allowing a half-open probe.
DEFAULT_RESET_SECONDS = 10.0


class PeerError(Exception):
    """A peer probe failed (transport error, timeout or bad status)."""


def peer_metric_name(shard_id: str) -> str:
    """A shard id as a metric-name segment (``127.0.0.1:8124`` → safe)."""
    return "".join(c if c.isalnum() else "_" for c in shard_id)


class CircuitBreaker:
    """Closed → open → half-open failure gate for one peer.

    ``failure_threshold`` consecutive failures open the circuit; while
    open, :meth:`allow` refuses for ``reset_seconds``, then admits one
    half-open probe whose outcome closes or re-opens it.  The clock is
    injectable so tests drive the state machine deterministically.
    """

    def __init__(
        self,
        failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        reset_seconds: float = DEFAULT_RESET_SECONDS,
        clock=time.monotonic,
    ):
        self.failure_threshold = max(int(failure_threshold), 1)
        self.reset_seconds = reset_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._state = "closed"
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        with self._lock:
            if (
                self._state == "open"
                and self._clock() - self._opened_at >= self.reset_seconds
            ):
                return "half-open"
            return self._state

    def allow(self) -> bool:
        """May a call go out now?  Transitions open → half-open."""
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if self._clock() - self._opened_at < self.reset_seconds:
                    return False
                self._state = "half-open"
                return True
            # half-open: one probe is already in flight conceptually;
            # admitting more is harmless (they share the outcome).
            return True

    def record_success(self) -> bool:
        """Reset the gate; True when this call *closed* an open circuit."""
        with self._lock:
            recovered = self._state != "closed"
            self._failures = 0
            self._state = "closed"
            return recovered

    def record_failure(self) -> bool:
        """Count a failure; True when this call *opened* the circuit."""
        with self._lock:
            self._failures += 1
            if self._state == "half-open" or (
                self._state == "closed"
                and self._failures >= self.failure_threshold
            ):
                self._state = "open"
                self._opened_at = self._clock()
                return True
            if self._state == "open":
                self._opened_at = self._clock()
            return False


class PeerClient:
    """Record fetch/push against one peer's ``/v1/store`` endpoint.

    Transport errors retry up to ``retries`` extra times with
    exponential backoff + full jitter; HTTP 404 is a definitive miss
    (``None``, no retry) and any other non-200 status is a
    :class:`PeerError` (a sick peer, not an absent record).
    """

    def __init__(
        self,
        url: str,
        timeout: float = DEFAULT_PEER_TIMEOUT,
        retries: int = DEFAULT_RETRIES,
        backoff: float = DEFAULT_BACKOFF,
        rng: random.Random | None = None,
    ):
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.retries = max(int(retries), 0)
        self.backoff = backoff
        self._rng = rng if rng is not None else random.Random()

    def _exchange(
        self, method: str, path: str, payload: dict | None = None
    ) -> Reply:
        """One exchange, a transport failure retried with backoff + jitter."""
        for attempt in range(self.retries + 1):
            if attempt:
                base = self.backoff * (2 ** (attempt - 1))
                time.sleep(base + self._rng.uniform(0.0, base))
            reply = exchange(
                f"{self.url}{path}", method, payload, timeout=self.timeout
            )
            if reply.error is None:
                return reply
        raise PeerError(f"{self.url}: {reply.error}")

    def fetch(self, fingerprint: str, kind: str | None = None) -> dict | None:
        """The record dict at the peer, or ``None`` on a definitive miss."""
        suffix = f"?kind={kind}" if kind else ""
        reply = self._exchange("GET", f"/v1/store/{fingerprint}{suffix}")
        if reply.status == 404:
            return None
        if reply.status != 200:
            raise PeerError(f"{self.url}: HTTP {reply.status}")
        payload = reply.json()
        record = payload.get("record") if payload is not None else None
        if not isinstance(record, dict):
            raise PeerError(f"{self.url}: malformed store payload")
        return record

    def push(
        self, fingerprint: str, record: dict, kind: str | None = None
    ) -> None:
        """``PUT`` a record to the peer (replicating to the ring owner)."""
        reply = self._exchange(
            "PUT",
            f"/v1/store/{fingerprint}",
            {"record": record, "kind": kind or ""},
        )
        if reply.status != 200:
            raise PeerError(f"{self.url}: HTTP {reply.status}")


class PeerSet:
    """Every peer of one shard: routing, breakers, counters, pusher.

    The owning store calls :meth:`fetch` on local misses and
    :meth:`push` after local writes; everything else —
    ``cluster.peer_fetch.{hit,miss,error,skipped}`` counters, per-peer
    latency histograms (``cluster.peer.<peer>.fetch_seconds``),
    circuit-open events, the async push queue — lives here, shared
    between :class:`PeerAwareStore` and the ``/healthz`` cluster block.
    """

    def __init__(
        self,
        config: RingConfig,
        metrics: MetricsRegistry | None = None,
        timeout: float = DEFAULT_PEER_TIMEOUT,
        retries: int = DEFAULT_RETRIES,
        backoff: float = DEFAULT_BACKOFF,
        failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        reset_seconds: float = DEFAULT_RESET_SECONDS,
        clock=time.monotonic,
        rng: random.Random | None = None,
    ):
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._clients = {
            shard: PeerClient(
                config.url_of(shard),
                timeout=timeout,
                retries=retries,
                backoff=backoff,
                rng=rng,
            )
            for shard in config.shard_ids
            if shard != config.self_id
        }
        self._breakers = {
            shard: CircuitBreaker(
                failure_threshold=failure_threshold,
                reset_seconds=reset_seconds,
                clock=clock,
            )
            for shard in self._clients
        }
        self.events: deque[dict] = deque(maxlen=64)
        self._push_queue: queue.Queue = queue.Queue()
        self._push_thread: threading.Thread | None = None
        self._push_lock = threading.Lock()

    # -- routing ---------------------------------------------------------
    def candidates(self, fingerprint: str) -> list[str]:
        """Peers to probe for a fingerprint: owner first, then siblings.

        Our own shard never appears (a local miss already happened).
        The remaining peers follow the owner in ring preference order,
        which keeps a record computed moments ago on a non-owner shard
        reachable before its push lands.
        """
        order = self.config.ring.preference(fingerprint)
        return [shard for shard in order if shard in self._clients]

    def owner_of(self, fingerprint: str) -> str:
        return self.config.ring.owner(fingerprint)

    # -- fetch (read path) -----------------------------------------------
    def fetch(self, fingerprint: str, kind: str | None = None) -> dict | None:
        """Probe peers for a record; ``None`` on miss *or* total failure.

        Never raises: peers are caches, and the caller's fallback —
        checking locally — is always correct.
        """
        candidates = self.candidates(fingerprint)
        if not candidates:
            return None
        failed = False
        for shard in candidates:
            breaker = self._breakers[shard]
            if not breaker.allow():
                self.metrics.add("cluster.peer_fetch.skipped")
                continue
            try:
                with TIMER.span("cluster.peer_fetch") as span:
                    record = self._clients[shard].fetch(
                        fingerprint, kind=kind
                    )
            except PeerError as exc:
                failed = True
                self.metrics.add("cluster.peer_fetch.error")
                self._record_failure(shard, str(exc))
                continue
            self._record_success(shard)
            self.metrics.observe(
                f"cluster.peer.{peer_metric_name(shard)}.fetch_seconds",
                span.duration,
            )
            if record is not None:
                self.metrics.add("cluster.peer_fetch.hit")
                return record
        if not failed:
            self.metrics.add("cluster.peer_fetch.miss")
        return None

    def _record_failure(self, shard: str, message: str) -> None:
        opened = self._breakers[shard].record_failure()
        if opened:
            self.metrics.add("cluster.circuit.open")
            self.events.append(
                {
                    "kind": "circuit-open",
                    "peer": shard,
                    "error": message,
                    "ts": time.time(),
                }
            )

    def _record_success(self, shard: str) -> None:
        """A working exchange: close the breaker, noting recoveries.

        The ``circuit-close`` event is the other half of the
        ``circuit-open`` story in ``/healthz`` — without it an operator
        watching the cluster block can see a peer die but never sees it
        come back.
        """
        if self._breakers[shard].record_success():
            self.metrics.add("cluster.circuit.close")
            self.events.append(
                {"kind": "circuit-close", "peer": shard, "ts": time.time()}
            )

    # -- push (write path) -----------------------------------------------
    def push(
        self, fingerprint: str, record: dict, kind: str | None = None
    ) -> bool:
        """Queue an async replication of a fresh record to its owner.

        Returns True when a push was enqueued (the owner is a remote
        peer), False when we *are* the owner.  Best-effort: a failed
        push only counts ``cluster.peer_push.error`` — the record is
        still served locally and still reachable via sibling probes.
        """
        owner = self.owner_of(fingerprint)
        if owner not in self._clients:
            return False
        self._ensure_pusher()
        self._push_queue.put((owner, fingerprint, record, kind))
        return True

    def _ensure_pusher(self) -> None:
        with self._push_lock:
            if self._push_thread is None or not self._push_thread.is_alive():
                self._push_thread = threading.Thread(
                    target=self._push_loop,
                    name="repro-peer-push",
                    daemon=True,
                )
                self._push_thread.start()

    def _push_loop(self) -> None:
        while True:
            item = self._push_queue.get()
            try:
                if item is None:
                    return
                shard, fingerprint, record, kind = item
                breaker = self._breakers.get(shard)
                if breaker is None or not breaker.allow():
                    self.metrics.add("cluster.peer_push.skipped")
                    continue
                try:
                    self._clients[shard].push(fingerprint, record, kind=kind)
                except PeerError as exc:
                    self.metrics.add("cluster.peer_push.error")
                    self._record_failure(shard, str(exc))
                else:
                    self._record_success(shard)
                    self.metrics.add("cluster.peer_push.sent")
            finally:
                self._push_queue.task_done()

    def flush(self, timeout: float = 5.0) -> bool:
        """Wait for queued pushes to drain; False on timeout.

        Called at job completion so a batch's records reach their
        owners before the next batch (possibly via another instance)
        looks for them.  Waits on the queue's ``all_tasks_done``
        condition, which the pusher notifies as the last task finishes.
        """
        deadline = time.monotonic() + timeout
        pending = self._push_queue
        with pending.all_tasks_done:
            while pending.unfinished_tasks:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                pending.all_tasks_done.wait(remaining)
        return True

    # -- introspection ---------------------------------------------------
    def describe(self) -> dict:
        """The ``/healthz`` cluster block: ring, breakers, events."""
        return {
            "self": self.config.self_id,
            "members": list(self.config.shard_ids),
            "vnodes": self.config.vnodes,
            "peers": {
                shard: {"state": self._breakers[shard].state}
                for shard in sorted(self._clients)
            },
            "events": list(self.events),
        }


class PeerAwareStore(ResultStore):
    """A :class:`ResultStore` whose misses consult the cluster's peers.

    ``get`` gains nothing new — the base class's remote hook is wired
    to :meth:`PeerSet.fetch`, so a peer hit is written back locally and
    returned exactly like a local hit (``store.hits`` plus
    ``store.remote_hits``).  ``put`` additionally queues an async push
    of the fresh record to its ring owner.  Failure of any peer only
    ever makes this store behave like a plain local one.
    """

    def __init__(
        self,
        root,
        config: RingConfig,
        max_bytes: int | None = None,
        metrics: MetricsRegistry | None = None,
        **peer_kwargs,
    ):
        kwargs = {} if max_bytes is None else {"max_bytes": max_bytes}
        super().__init__(root, metrics=metrics, **kwargs)
        self.peers = PeerSet(config, metrics=self.metrics, **peer_kwargs)

    def _fetch_remote(
        self, fingerprint: str, kind: str | None
    ) -> StoreRecord | None:
        data = self.peers.fetch(fingerprint, kind=kind)
        if data is None:
            return None
        try:
            return StoreRecord.from_dict(data)
        except (KeyError, TypeError, ValueError):
            return None  # a malformed peer record is a miss, not a fault

    def put(
        self, fingerprint: str, record: StoreRecord, kind: str | None = None
    ):
        path = super().put(fingerprint, record, kind=kind)
        self.peers.push(
            fingerprint, record.to_dict(), kind=kind or record.kind or None
        )
        return path

    def flush_counters(self) -> dict[str, int]:
        self.peers.flush()
        return super().flush_counters()
