"""Batch model-checking service: the library as a long-running system.

``repro.serve`` turns the checking stack into a zero-dependency HTTP
service (stdlib :class:`~http.server.ThreadingHTTPServer`): clients
``POST`` SMV sources to ``/v1/check`` (single or batch), jobs run
through a bounded queue backed by the shared
:class:`~repro.parallel.pool.ObligationScheduler` worker pool and the
:mod:`repro.store` result cache, and results come back as the same JSON
report payload ``repro check --json`` emits.  The service exposes
``/healthz``, Prometheus ``/metrics`` (scheduler + store + job
counters), returns ``429`` when the queue is full, and drains
gracefully on ``SIGTERM``.

Entry points:

* ``repro serve --port 8123 --jobs 4 --cache-dir .repro-cache`` — run
  the service;
* ``repro submit model.smv --url http://host:8123`` — the thin client;
* :func:`create_server` / :class:`JobManager` / :class:`ServeClient` —
  library use::

      from repro.serve import ServeClient, create_server

      server = create_server(port=8123, jobs=4, store=store)
      job = ServeClient('http://127.0.0.1:8123').check(
          [{'source': source}])
"""

from repro.serve.client import ServeClient
from repro.serve.http import ReproServer, create_server
from repro.serve.jobs import Job, JobManager, JobRequest, QueueFullError
from repro.serve.schema import REPORT_SCHEMA, format_payload, report_payload

__all__ = [
    "Job",
    "JobManager",
    "JobRequest",
    "QueueFullError",
    "REPORT_SCHEMA",
    "ReproServer",
    "ServeClient",
    "create_server",
    "format_payload",
    "report_payload",
]
