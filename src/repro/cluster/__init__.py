"""Distributed shard-aware serving: one logical service over N instances.

The paper's compositional discipline turns one big check into many
independent, content-addressed obligations — exactly the unit that
shards cleanly across machines.  ``repro.cluster`` makes a set of
``repro serve`` instances behave as one service:

* :mod:`repro.cluster.ring` — a deterministic consistent-hash ring
  (vnode-based, SHA-256 keyed) assigning every fingerprint an owner
  shard, with minimal remapping when membership changes;
* :mod:`repro.cluster.fanout` — sends many requests to many peers
  concurrently: the program's one HTTP client exchange
  (:func:`repro.serve.client.exchange`) mapped over a shared pool of
  16 threads, replies in input order, a peer failure in its own reply;
* :mod:`repro.cluster.peers` — the peer store tier: on a local store
  miss, probe the fingerprint's owner shard (``GET
  /v1/store/<fingerprint>``) before checking, write fetched records
  back locally, and push freshly computed records to their owners — so
  a result computed anywhere is a warm hit everywhere.  Per-peer
  timeouts, retries with exponential backoff + jitter and a circuit
  breaker keep a dead cache peer from ever failing a request;
* :mod:`repro.cluster.router` — a front end accepting the existing
  ``/v1/check`` API, splitting batches into per-check work routed to
  owner shards and fanning the results back into one job document.

Every interaction with a peer goes through one ``exchange`` on
``http.client``, which never reads ``http_proxy``.  ``/healthz``
reports ring membership and per-peer breaker states; ``/metrics`` adds
per-peer latency histograms and ``repro_cluster_peer_fetch_*``
counters.  Start a cluster with ``repro serve --ring ... --advertise
...`` per instance plus ``repro cluster router --ring ...``; inspect it
with ``repro cluster status --ring ...``.  The benchmark's
``cluster-batch`` workload times novel, repeat and peer-fetch batches
on two ring members and a router.
"""

from repro.cluster.ring import HashRing, RingConfig, request_fingerprint

__all__ = ["HashRing", "RingConfig", "request_fingerprint"]
