"""Peer store tier: breaker state machine, fetch/push, degradation.

The dead-peer test here is the ISSUE's acceptance scenario in
miniature: a ring member that is *not listening* (a port we bound and
closed) while checks proceed — every ``get`` degrades to a clean local
miss, ``cluster.peer_fetch.error`` counts, the breaker opens (an
observable ``circuit-open`` event), and subsequent lookups skip the
corpse entirely.  Deterministic: no live racing server involved.
"""

import hashlib
import socket
import threading

import pytest

from repro.casestudies.afs2 import SERVER_SPECS_FIGURE, server_source
from repro.cluster.peers import (
    CircuitBreaker,
    PeerAwareStore,
    PeerSet,
)
from repro.cluster.ring import RingConfig
from repro.serve.client import ServeClient
from repro.serve.http import create_server
from repro.serve.jobs import JobManager
from repro.store import ResultStore, cached_check
from repro.store.store import StoreRecord


def free_port() -> int:
    """A port that was just free — and is now closed (nobody listens)."""
    return free_ports(1)[0]


def free_ports(count: int) -> list[int]:
    """``count`` distinct ports that were just free, all closed again
    (held open together, so two calls cannot hand out the same one)."""
    socks = [socket.socket() for _ in range(count)]
    try:
        for sock in socks:
            sock.bind(("127.0.0.1", 0))
        return [sock.getsockname()[1] for sock in socks]
    finally:
        for sock in socks:
            sock.close()


def fingerprint_owned_by(config: RingConfig, shard: str) -> str:
    """A well-formed fingerprint whose ring owner is ``shard``."""
    for i in range(10_000):
        candidate = hashlib.sha256(f"probe-{i}".encode()).hexdigest()
        if config.ring.owner(candidate) == shard:
            return candidate
    raise AssertionError("no fingerprint found for shard")  # pragma: no cover


@pytest.fixture
def live_peer(tmp_path):
    """A real serving instance whose store holds one record."""
    store = ResultStore(tmp_path / "peer-store")
    manager = JobManager(jobs=1, queue_size=4, store=store, metrics=store.metrics)
    server = create_server(manager=manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, store
    server.shutdown()
    server.server_close()
    manager.stop()
    thread.join(timeout=10)


class TestCircuitBreaker:
    def test_opens_after_threshold_and_half_opens_after_reset(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=3, reset_seconds=10.0, clock=lambda: clock[0]
        )
        assert breaker.state == "closed"
        assert not breaker.record_failure()
        assert not breaker.record_failure()
        assert breaker.record_failure()  # third failure opens
        assert breaker.state == "open"
        assert not breaker.allow()
        clock[0] = 9.9
        assert not breaker.allow()
        clock[0] = 10.0  # cool-down elapsed: one half-open probe
        assert breaker.state == "half-open"
        assert breaker.allow()
        assert breaker.record_failure()  # half-open failure re-opens
        assert breaker.state == "open"
        clock[0] = 20.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        assert not breaker.record_failure()  # streak restarted
        assert breaker.state == "closed"


class TestDeadPeerDegradation:
    def _store(self, tmp_path, **peer_kwargs):
        dead, me = (f"127.0.0.1:{port}" for port in free_ports(2))
        config = RingConfig.parse(f"{me},{dead}", self_url=me)
        store = PeerAwareStore(
            tmp_path / "local",
            config,
            timeout=0.25,
            retries=0,
            **peer_kwargs,
        )
        return store, dead

    def test_get_degrades_to_miss_and_opens_circuit(self, tmp_path):
        clock = [0.0]
        store, dead = self._store(
            tmp_path, failure_threshold=2, clock=lambda: clock[0]
        )
        fp = fingerprint_owned_by(store.peers.config, dead)
        # every probe of the dead peer is an error, never an exception
        assert store.get(fp, kind="spec") is None
        assert store.metrics.get("cluster.peer_fetch.error") == 1
        assert store.metrics.get("store.misses") == 1
        assert store.get(fp, kind="spec") is None  # second failure: opens
        assert store.metrics.get("cluster.peer_fetch.error") == 2
        description = store.peers.describe()
        assert description["peers"][dead]["state"] == "open"
        events = [e for e in description["events"] if e["kind"] == "circuit-open"]
        assert events and events[0]["peer"] == dead
        assert store.metrics.get("cluster.circuit.open") == 1
        # circuit open: the corpse is skipped, not re-probed
        assert store.get(fp, kind="spec") is None
        assert store.metrics.get("cluster.peer_fetch.error") == 2
        assert store.metrics.get("cluster.peer_fetch.skipped") == 1
        # ...and local operation is entirely unaffected
        store.put(fp, StoreRecord(verdict=True, kind="spec"))
        assert store.get(fp, kind="spec").verdict is True

    def test_push_to_dead_owner_is_best_effort(self, tmp_path):
        store, dead = self._store(tmp_path, failure_threshold=1)
        fp = fingerprint_owned_by(store.peers.config, dead)
        store.put(fp, StoreRecord(verdict=True, kind="spec"))
        assert store.peers.flush(timeout=5.0)
        assert store.metrics.get("cluster.peer_push.error") == 1
        # the local record survives the failed replication
        assert store.get(fp, kind="spec").verdict is True


class TestLivePeerFetch:
    def test_read_through_write_back(self, tmp_path, live_peer):
        server, peer_store = live_peer
        peer = f"127.0.0.1:{server.port}"
        me = f"127.0.0.1:{free_port()}"
        config = RingConfig.parse(f"{me},{peer}", self_url=me)
        store = PeerAwareStore(tmp_path / "local", config, timeout=2.0)
        fp = fingerprint_owned_by(config, peer)
        peer_store.put(fp, StoreRecord(verdict=True, spec_text="AG x", kind="spec"))
        record = store.get(fp, kind="spec")
        assert record is not None and record.spec_text == "AG x"
        assert store.metrics.get("cluster.peer_fetch.hit") == 1
        assert store.metrics.get("store.remote_hits") == 1
        assert store.metrics.get("store.hits") == 1
        # write-back: now present locally, served without a second probe
        assert store.path_for(fp).is_file()
        assert store.get(fp, kind="spec").spec_text == "AG x"
        assert store.metrics.get("cluster.peer_fetch.hit") == 1

    def test_check_replays_from_peer_with_no_local_work(self, tmp_path, live_peer):
        """A member with an empty store replays a check its peer made:
        every verdict arrives by peer fetch, none is re-checked."""
        server, peer_store = live_peer
        source = server_source(2, rename=False) + SERVER_SPECS_FIGURE
        cold = cached_check(source, store=peer_store)
        assert cold.all_true and cold.misses > 0
        peer = f"127.0.0.1:{server.port}"
        me = f"127.0.0.1:{free_port()}"
        config = RingConfig.parse(f"{me},{peer}", self_url=me)
        store = PeerAwareStore(tmp_path / "local", config, timeout=2.0)
        warm = cached_check(source, store=store)
        assert warm.all_true and warm.misses == 0
        assert warm.hits == cold.misses
        assert store.metrics.get("cluster.peer_fetch.hit") > 0

    def test_remote_miss_counts_miss_not_error(self, tmp_path, live_peer):
        server, _ = live_peer
        peer = f"127.0.0.1:{server.port}"
        me = f"127.0.0.1:{free_port()}"
        config = RingConfig.parse(f"{me},{peer}", self_url=me)
        store = PeerAwareStore(tmp_path / "local", config, timeout=2.0)
        fp = fingerprint_owned_by(config, peer)
        assert store.get(fp) is None
        assert store.metrics.get("cluster.peer_fetch.miss") == 1
        assert store.metrics.get("cluster.peer_fetch.error") == 0

    def test_push_to_owner_lands_remotely(self, tmp_path, live_peer):
        server, peer_store = live_peer
        peer = f"127.0.0.1:{server.port}"
        me = f"127.0.0.1:{free_port()}"
        config = RingConfig.parse(f"{me},{peer}", self_url=me)
        store = PeerAwareStore(tmp_path / "local", config, timeout=2.0)
        fp = fingerprint_owned_by(config, peer)
        store.put(fp, StoreRecord(verdict=False, spec_text="AF y", kind="spec"))
        assert store.peers.flush(timeout=5.0)
        assert store.metrics.get("cluster.peer_push.sent") == 1
        landed = peer_store.peek_local(fp)
        assert landed is not None and landed.spec_text == "AF y"

    def test_store_endpoint_rejects_bad_fingerprints(self, live_peer):
        server, _ = live_peer
        client = ServeClient(f"http://127.0.0.1:{server.port}", retries=0)
        from repro.serve.client import ServeClientError

        with pytest.raises(ServeClientError) as exc:
            client._request("GET", "/v1/store/not-a-fingerprint")
        assert exc.value.status == 400
        with pytest.raises(ServeClientError) as exc:
            client._request("GET", f"/v1/store/{'a' * 64}")
        assert exc.value.status == 404


class TestPeerSetRouting:
    def test_self_owned_fingerprints_are_not_probed(self, tmp_path):
        me = "127.0.0.1:18124"
        other = "127.0.0.1:18125"
        config = RingConfig.parse(f"{me},{other}", self_url=me)
        peers = PeerSet(config)
        fp = fingerprint_owned_by(config, me)
        # owner is us: the other member still appears (it may hold a
        # not-yet-pushed record)
        assert peers.candidates(fp) == [other]
        lone = PeerSet(RingConfig.parse(me, self_url=me))
        assert lone.candidates(fp) == []


class TestFlush:
    def test_flush_waits_for_the_push_and_gives_up_at_its_deadline(self):
        me, other = "127.0.0.1:18124", "127.0.0.1:18125"
        config = RingConfig.parse(f"{me},{other}", self_url=me)
        peers = PeerSet(config)
        release = threading.Event()
        pushed = []

        class StuckClient:
            def push(self, fingerprint, record, kind=None):
                release.wait()
                pushed.append(fingerprint)

        peers._clients[other] = StuckClient()
        fp = fingerprint_owned_by(config, other)
        assert peers.push(fp, {"verdict": True})
        assert peers.flush(timeout=0.05) is False  # the push is stuck
        assert pushed == []
        release.set()
        assert peers.flush(timeout=30.0) is True
        assert pushed == [fp]
        assert peers.metrics.get("cluster.peer_push.sent") == 1

    def test_flush_with_nothing_queued_returns_at_once(self):
        me = "127.0.0.1:18124"
        peers = PeerSet(RingConfig.parse(me, self_url=me))
        assert peers.flush(timeout=0.0) is True
