"""Concurrent HTTP fan-out: many peers at once, one reply per request.

The router talks to every shard of a batch concurrently.  :func:`fanout`
maps :func:`~repro.serve.client.exchange` over one process-wide pool of
:data:`POOL_WIDTH` threads, created on first use and shared by every
fan-out in the process; a one-request fan-out runs inline on the
caller's thread.  Replies come back in input order.

Errors never raise: a refused connection, a reset or a timeout becomes
``reply.error`` on that one request, leaving the other requests to
complete — the property the router's degrade-not-fail behavior is
built on.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.serve.client import Reply, exchange

__all__ = ["FanoutRequest", "fanout"]

#: Threads in the shared pool: requests beyond this many queue.
POOL_WIDTH = 16

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


@dataclass
class FanoutRequest:
    """One HTTP exchange to run in the fan-out."""

    url: str  # absolute: http://host:port/path
    method: str = "GET"
    payload: dict | None = None  # JSON-encoded as the request body
    timeout: float = 5.0
    headers: dict = field(default_factory=dict)


def _send(request: FanoutRequest) -> Reply:
    return exchange(**vars(request))


def _shared_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                POOL_WIDTH, thread_name_prefix="repro-fanout"
            )
        return _pool


def fanout(requests: list[FanoutRequest]) -> list[Reply]:
    """Run every request concurrently; replies in input order.

    Network failures and timeouts land in ``reply.error`` — the call
    itself never raises for a peer problem.
    """
    if len(requests) <= 1:
        return [_send(request) for request in requests]
    return list(_shared_pool().map(_send, requests))
