"""Observability: span tracing, metrics, histograms, event log, exporters.

The library's single timing mechanism.  Every instrumented layer — the
SMV front end, both model checkers, the BDD manager's relational
product, and the compositional proof calculus — opens spans on the
process-wide :data:`~repro.obs.tracer.TRACER`; when it is disabled (the
default) hot paths pay one attribute check and nothing is recorded,
while top-level call sites still derive ``CheckStats.user_time`` from
their (unrecorded) spans.

Typical use::

    from repro.obs import tracing
    from repro.obs.export import write_chrome_trace
    from repro.obs.profile import format_profile
    from repro.smv.run import check_source

    with tracing() as tracer:
        report = check_source(source)
    write_chrome_trace("out.json", tracer)   # load in chrome://tracing
    print(format_profile(tracer))            # inclusive/exclusive table

The CLI exposes the same workflow as ``repro check model.smv
--trace out.json --profile``.

Every duration the program reports is read from a span, or from a
measurement a span already took (a result's ``stats.user_time``).  A
served job's 32-hex ``trace_id`` is minted at ``POST /v1/check``,
carried on each of its event-log records and stamped on every span,
worker-process spans included; every job records its span tree
(``GET /v1/jobs/<id>/trace``).  ``repro obs tail|summary EVENTS.jsonl``
renders the event log.
"""

from repro.obs.tracer import (
    TRACER,
    Span,
    TraceContext,
    Tracer,
    disable_tracing,
    enable_tracing,
    tracing,
)
from repro.obs.hist import Histogram
from repro.obs.log import LOG, EventLog, configure_log
from repro.obs.merge import graft_records
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import (
    PROGRESS,
    ProgressBus,
    ProgressConfig,
    ProgressEmitter,
    ProgressPrinter,
)

__all__ = [
    "Span",
    "TraceContext",
    "Tracer",
    "TRACER",
    "EventLog",
    "LOG",
    "Histogram",
    "MetricsRegistry",
    "PROGRESS",
    "ProgressBus",
    "ProgressConfig",
    "ProgressEmitter",
    "ProgressPrinter",
    "configure_log",
    "enable_tracing",
    "disable_tracing",
    "graft_records",
    "tracing",
]
