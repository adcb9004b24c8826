"""Trace exporters: JSONL span records and Chrome trace-event JSON.

Two formats, both derived from the same span trees:

* **JSONL** (:func:`to_jsonl_records` / :func:`write_jsonl`) — one JSON
  object per span with explicit ``id``/``parent`` links, microsecond
  start offsets and durations, depth, counters and attributes.  Easy to
  post-process with ``jq`` or pandas; round-trips through
  :func:`read_jsonl`.
* **Chrome trace-event** (:func:`to_chrome_trace` /
  :func:`write_chrome_trace`) — the ``chrome://tracing`` /
  `Perfetto <https://ui.perfetto.dev>`_ flavor: one complete (``"ph":
  "X"``) event per span with microsecond ``ts``/``dur``, category and
  ``args``.  Load the written file directly in the browser to see the
  check's flame graph.

Timestamps are offsets (µs) from the trace's earliest root span, so
they are small, monotonic within a parent, and independent of the
process's wall-clock epoch (which is still recorded in the Chrome
export's ``otherData.epoch_wall``).

:func:`to_prometheus_text` is the third exporter, for metrics rather
than spans: it renders one or more
:class:`~repro.obs.metrics.MetricsRegistry` instances in the Prometheus
text exposition format (the serving layer's ``/metrics`` endpoint), and
optionally further registries under labels (the cluster router's
per-shard series).
"""

from __future__ import annotations

import json
import platform
import re
from pathlib import Path

from repro.obs.tracer import Span, Tracer

__all__ = [
    "to_jsonl_records",
    "write_jsonl",
    "read_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "to_prometheus_text",
    "prometheus_samples",
    "build_info",
    "build_info_text",
]


def _us(seconds: float) -> float:
    return round(seconds * 1e6, 3)


def to_jsonl_records(tracer: Tracer) -> list[dict]:
    """Flatten the tracer's span trees into JSONL-ready dicts.

    Records appear in pre-order; ``id`` is the record's index, ``parent``
    the parent's ``id`` (``None`` for roots), so the tree structure
    survives the flattening.
    """
    origin = tracer.start_time
    records: list[dict] = []

    def emit(span: Span, parent: int | None, depth: int) -> None:
        record = {
            "id": len(records),
            "parent": parent,
            "depth": depth,
            "name": span.name,
            "cat": span.category,
            "start_us": _us(span.start - origin),
            "dur_us": _us(span.duration),
        }
        if span.attrs:
            record["attrs"] = {k: str(v) for k, v in span.attrs.items()}
        if span.counters:
            record["counters"] = dict(span.counters)
        records.append(record)
        my_id = record["id"]
        for child in span.children:
            emit(child, my_id, depth + 1)

    for root in tracer.roots:
        emit(root, None, 0)
    return records


def write_jsonl(path: str | Path, tracer: Tracer) -> Path:
    """Write one JSON object per span to ``path``; returns the path."""
    path = Path(path)
    with path.open("w") as handle:
        for record in to_jsonl_records(tracer):
            handle.write(json.dumps(record) + "\n")
    return path


def read_jsonl(path: str | Path) -> list[dict]:
    """Parse a JSONL trace back into its list of span records."""
    records = []
    with Path(path).open() as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def to_chrome_trace(tracer: Tracer, pid: int = 1, tid: int = 1) -> dict:
    """The tracer's spans as a Chrome trace-event JSON document.

    The JSON-object flavor (``{"traceEvents": [...]}``) is used so
    metadata can ride along; ``chrome://tracing`` and Perfetto accept
    it directly.  Spans grafted from worker processes by
    :func:`repro.obs.merge.graft_records` carry a ``pid`` attribute;
    those are emitted under that process id (with its own
    ``process_name`` metadata track) so a merged parallel trace shows
    each worker on a separate row.
    """
    origin = tracer.start_time
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": "repro"},
        }
    ]
    named_pids = {pid}
    for span in tracer.spans():
        args: dict = {k: str(v) for k, v in span.attrs.items()}
        for counter, value in span.counters.items():
            args[counter] = value
        span_pid = span.attrs.get("pid", pid)
        try:
            span_pid = int(span_pid)
        except (TypeError, ValueError):
            span_pid = pid
        if span_pid not in named_pids:
            named_pids.add(span_pid)
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": span_pid,
                    "tid": tid,
                    "args": {"name": f"repro worker {span_pid}"},
                }
            )
        events.append(
            {
                "name": span.name,
                "cat": span.category or "span",
                "ph": "X",
                "ts": _us(span.start - origin),
                "dur": _us(span.duration),
                "pid": span_pid,
                "tid": tid,
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"epoch_wall": tracer.epoch_wall},
    }


def write_chrome_trace(path: str | Path, tracer: Tracer) -> Path:
    """Write a ``chrome://tracing``-loadable JSON file; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(to_chrome_trace(tracer), indent=1) + "\n")
    return path


_PROM_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prometheus_name(name: str, prefix: str) -> str:
    """A metric name as a legal Prometheus identifier, prefixed."""
    sanitized = _PROM_NAME_RE.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return f"{prefix}_{sanitized}" if prefix else sanitized


def _prom_number(value: float) -> str:
    """Integers bare; anything else as the shortest round-trip ``repr``."""
    return repr(float(value)) if value != int(value) else f"{int(value)}"


def _label_text(labels: dict[str, str]) -> str:
    """``key="value",...`` with the exposition format's escapes."""
    return ",".join(
        f'{key}="{_escape(str(value))}"' for key, value in labels.items()
    )


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _braces(labels: str) -> str:
    return f"{{{labels}}}" if labels else ""


def to_prometheus_text(*registries, prefix: str = "repro", labelled=()) -> str:
    """Render metrics registries in the Prometheus text exposition format.

    Each scalar metric becomes one ``# TYPE <name> gauge`` declaration
    plus a sample line; dots and other non-identifier characters in
    metric names map to underscores (``store.hits`` →
    ``repro_store_hits``).  Later registries win on (sanitized-)name
    collisions.  Registry histograms (duck-typed via a ``histograms``
    mapping attribute) render as proper ``histogram`` families with
    cumulative ``_bucket{le="..."}`` series, the mandatory ``le="+Inf"``
    bucket, and ``_sum``/``_count`` samples.  The output ends with a
    newline, as scrapers expect::

        # TYPE repro_store_hits gauge
        repro_store_hits 12
        # TYPE repro_request_duration_seconds histogram
        repro_request_duration_seconds_bucket{le="0.001"} 3
        repro_request_duration_seconds_bucket{le="+Inf"} 4
        repro_request_duration_seconds_sum 0.57
        repro_request_duration_seconds_count 4

    ``labelled`` adds ``(prefix, labels, registry)`` groups whose series
    carry the ``labels`` mapping, after the unlabelled series of the
    same family and under its one ``# TYPE`` line — how the cluster
    router re-serves every member's registry as ``{shard="host:port"}``.
    """
    values: dict[str, dict[str, float]] = {}
    hists: dict[str, dict[str, object]] = {}
    groups = [(prefix, {}, registry) for registry in registries]
    for group_prefix, labels, registry in [*groups, *labelled]:
        text = _label_text(labels)
        for name, value in registry.as_dict().items():
            name = _prometheus_name(name, group_prefix)
            values.setdefault(name, {})[text] = value
        for name, hist in getattr(registry, "histograms", {}).items():
            name = _prometheus_name(name, group_prefix)
            hists.setdefault(name, {})[text] = hist
    lines = []
    for name in sorted(values):
        lines.append(f"# TYPE {name} gauge")
        for text, value in values[name].items():
            lines.append(f"{name}{_braces(text)} {_prom_number(value)}")
    for name in sorted(hists):
        lines.append(f"# TYPE {name} histogram")
        for text, hist in hists[name].items():
            braces, tail = _braces(text), f",{text}" if text else ""
            for bound, running in zip(hist.bounds, hist.cumulative()):
                le = _prom_number(bound)
                lines.append(f'{name}_bucket{{le="{le}"{tail}}} {running}')
            lines.append(f'{name}_bucket{{le="+Inf"{tail}}} {hist.count}')
            lines.append(f"{name}_sum{braces} {_prom_number(hist.sum)}")
            lines.append(f"{name}_count{braces} {hist.count}")
    return "\n".join(lines) + "\n"


def prometheus_samples(registry, prefix: str = "repro") -> dict[str, float]:
    """The unlabelled samples :func:`to_prometheus_text` renders for
    ``registry``, by name: every scalar plus each histogram's ``_sum``
    and ``_count``."""
    samples = {
        _prometheus_name(name, prefix): value
        for name, value in registry.as_dict().items()
    }
    for name, hist in registry.histograms.items():
        samples[f"{_prometheus_name(name, prefix)}_sum"] = hist.sum
        samples[f"{_prometheus_name(name, prefix)}_count"] = hist.count
    return samples


def build_info() -> dict[str, str]:
    """This process's identity: the ``repro_build_info`` labels."""
    from repro import __version__

    return {"version": __version__, "python": platform.python_version()}


def build_info_text(*identities: dict[str, str]) -> str:
    """The ``repro_build_info`` gauge: one sample (value 1) per label
    set, e.g. ``build_info_text(build_info())`` for this process."""
    lines = [
        "# HELP repro_build_info Build/runtime identity (value always 1).",
        "# TYPE repro_build_info gauge",
    ]
    for labels in identities:
        lines.append(f"repro_build_info{{{_label_text(labels)}}} 1")
    return "\n".join(lines) + "\n"
