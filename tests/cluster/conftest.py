"""Shared loopback cluster fixtures: real serve members behind a router."""

import threading

import pytest

from repro.cluster.ring import RingConfig
from repro.cluster.router import create_router
from repro.serve.client import ServeClient
from repro.serve.http import create_server
from repro.serve.jobs import JobManager
from repro.store import ResultStore

#: ``serve_forever`` poll interval: ``shutdown()`` waits up to one poll,
#: and the stdlib's 0.5 s default made fixture teardown the slow part.
POLL_INTERVAL = 0.02


def serve_in_thread(server) -> threading.Thread:
    """Run ``server.serve_forever`` on a daemon thread."""
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": POLL_INTERVAL},
        daemon=True,
    )
    thread.start()
    return thread


def stop_server(server, thread: threading.Thread) -> None:
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def start_member(store_dir) -> tuple:
    """One real serving instance over its own store: ``(server, thread)``."""
    store = ResultStore(store_dir)
    manager = JobManager(
        jobs=1, queue_size=8, store=store, metrics=store.metrics
    )
    server = create_server(manager=manager)
    return server, serve_in_thread(server)


@pytest.fixture
def cluster(tmp_path):
    """Two real shards + a router, all on ephemeral loopback ports."""
    members = [start_member(tmp_path / f"{name}-store") for name in "ab"]
    config = RingConfig.parse(
        ",".join(f"127.0.0.1:{server.port}" for server, _ in members)
    )
    router = create_router(config=config, timeout=5.0)
    router_thread = serve_in_thread(router)
    client = ServeClient(f"http://127.0.0.1:{router.port}")
    yield router, config, client
    stop_server(router, router_thread)
    for server, thread in members:
        stop_server(server, thread)
        server.manager.stop()
