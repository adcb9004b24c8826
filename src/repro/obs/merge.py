"""Stitching worker span trees into the parent process's trace.

The parallel engine's workers record their own span trees (on their own
tracer clocks) and ship them to the parent as the JSONL record
layout of :func:`repro.obs.export.to_jsonl_records`.
:func:`graft_records` rebuilds :class:`~repro.obs.tracer.Span` objects
from those records, tags every span with the worker ``pid``, rebases the
timestamps onto the parent tracer's clock (via the wall-clock origin the
worker reported), and links the rebuilt roots under the parent's current
open span — so one merged trace shows the scheduler's fan-out with each
worker on its own track (:func:`repro.obs.export.to_chrome_trace` maps
the ``pid`` attribute to the Chrome trace-event process id).
"""

from __future__ import annotations

from repro.obs.tracer import Span, Tracer

__all__ = ["graft_records", "rebase_records"]


def rebase_records(
    tracer: Tracer, records: list[dict], wall_origin: float
) -> float:
    """The parent perf-counter time corresponding to the records' origin.

    Worker record ``start_us`` offsets are relative to the worker's
    earliest root span, whose wall-clock time the worker reports as
    ``wall_origin``; the tracer pairs its own perf origin with a wall
    epoch at reset, giving a common axis.  Clock skew between processes
    on one host is far below span durations of interest.
    """
    if not wall_origin:
        return tracer.start_time
    return tracer.epoch_perf + (wall_origin - tracer.epoch_wall)


def graft_records(
    tracer: Tracer,
    records: list[dict],
    pid: int | None = None,
    wall_origin: float = 0.0,
    trace_id: str = "",
    attrs: dict | None = None,
) -> list[Span]:
    """Rebuild spans from JSONL records and attach them to ``tracer``.

    Returns the grafted root spans (empty list for empty records).  The
    roots are linked under the tracer's innermost open span when one
    exists, otherwise appended to the tracer's root list; linking only
    happens while the tracer is enabled, mirroring live span recording.

    ``trace_id`` stamps every grafted span with the request's trace
    identity (spans already carrying a ``trace_id`` attribute keep it) —
    the parent-side half of cross-process trace propagation: workers
    that received a :class:`~repro.obs.tracer.TraceContext` stamp their
    own spans, and this covers records from workers that did not.
    ``attrs`` stamps arbitrary extra attributes the same way (existing
    values win) — the router uses it to mark every span of a shard's
    subtree with ``shard="host:port"`` while stitching a cluster trace.

    Record ``id`` fields only need to be unique *within* one ``records``
    list; every call rebuilds its own id table, so span trees shipped by
    different workers (which all number their spans from 0) graft into
    one tracer without colliding.
    """
    if not records:
        return []
    base = rebase_records(tracer, records, wall_origin)
    by_id: dict[int, Span] = {}
    roots: list[Span] = []
    for record in records:
        span_attrs = dict(record.get("attrs", ()))
        if pid is not None:
            span_attrs["pid"] = pid
        if trace_id and "trace_id" not in span_attrs:
            span_attrs["trace_id"] = trace_id
        for name, value in (attrs or {}).items():
            span_attrs.setdefault(name, value)
        span = Span(
            tracer, record["name"], record.get("cat", ""), span_attrs
        )
        span.start = base + record["start_us"] / 1e6
        span.end = span.start + record["dur_us"] / 1e6
        span.recorded = True
        for counter, value in record.get("counters", {}).items():
            span.counters[counter] = value
        by_id[record["id"]] = span
        parent = record.get("parent")
        if parent is None:
            roots.append(span)
        else:
            by_id[parent].children.append(span)
    if tracer.enabled:
        current = tracer.current()
        if current is not None:
            current.children.extend(roots)
        else:
            tracer.roots.extend(roots)
    return roots
