"""Structured, leveled JSONL event log with redaction.

Spans (:mod:`repro.obs.tracer`) answer *how long* each stage of a
request took; the event log answers *what happened*: one JSON object
per line, machine-readable, safe to tail in production.  Three design
points:

* **explicit request identity** — every serving-stack event passes its
  ``trace_id`` and ``job_id`` as fields, so a record carries them
  whichever thread emitted it.
* **secret-free redaction** — submitted SMV module text is user data and
  never appears in the log: any field named like model source
  (:data:`REDACTED_FIELDS`) is replaced by its digest via
  :func:`source_digest` before serialization, so an event log can be
  shipped to a log aggregator or attached to a CI run without leaking
  the models being checked.
* **leveled and cheap when off** — events below the configured level
  (or with no sink configured, the default) cost one integer compare.

Record shape::

    {"ts": 1754380800.123, "level": "info", "event": "job.done",
     "trace_id": "9f...", "job_id": "ab12...", "checks": 2, ...}

The module-level :data:`LOG` is the process-wide default the serving
stack emits to; :func:`configure_log` points it at a file (``repro
serve --log-file``).  ``repro obs tail`` and ``repro obs summary``
render a written log back for humans (:func:`read_events`,
:func:`format_event`).
"""

from __future__ import annotations

import hashlib
import io
import json
import threading
import time
from pathlib import Path

__all__ = [
    "LEVELS",
    "REDACTED_FIELDS",
    "EventLog",
    "LOG",
    "configure_log",
    "source_digest",
    "redact_fields",
    "read_events",
    "format_event",
]

#: Level name → numeric severity (stdlib ``logging`` scale).
LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

#: Field names whose values are model text, never logged verbatim.
REDACTED_FIELDS = frozenset({"source", "smv", "smv_source", "module_text"})

def source_digest(text: str) -> str:
    """A compact, non-reversible stand-in for module text.

    >>> source_digest("MODULE main")
    'sha256:21ae1704/11B'
    """
    digest = hashlib.sha256(text.encode()).hexdigest()[:8]
    return f"sha256:{digest}/{len(text.encode())}B"


def redact_fields(fields: dict) -> dict:
    """A copy of ``fields`` with model-text values replaced by digests."""
    out = {}
    for key, value in fields.items():
        if key in REDACTED_FIELDS and isinstance(value, str):
            out[key] = source_digest(value)
        else:
            out[key] = value
    return out


class EventLog:
    """A leveled JSONL event sink; disabled until given somewhere to write.

    Parameters
    ----------
    stream:
        Writable text stream (tests pass ``io.StringIO``); mutually
        exclusive with ``path``.
    path:
        File to append JSONL records to (opened lazily, line-buffered).
    level:
        Minimum level recorded (``"debug"``/``"info"``/``"warning"``/
        ``"error"``).
    clock:
        Wall-clock source for the ``ts`` field (injectable for tests).
    max_bytes:
        Size cap for a ``path``-backed log (``repro serve
        --log-max-bytes``): when writing a record would push the file
        past the cap, the file rotates to ``<path>.1`` (replacing any
        previous rollover) and a fresh file starts — a long-lived
        serve process keeps at most two generations on disk instead of
        one unbounded file.  ``None`` (the default) never rotates.
    """

    def __init__(
        self,
        stream: io.TextIOBase | None = None,
        path: str | Path | None = None,
        level: str = "info",
        clock=time.time,
        max_bytes: int | None = None,
    ):
        if stream is not None and path is not None:
            raise ValueError("pass either stream or path, not both")
        self._stream = stream
        self._path = Path(path) if path is not None else None
        self._clock = clock
        self._lock = threading.Lock()
        self._max_bytes = max_bytes
        self._written = 0
        self.set_level(level)

    # -- configuration ---------------------------------------------------
    def set_level(self, level: str) -> None:
        if level not in LEVELS:
            raise ValueError(
                f"unknown log level {level!r} (one of {sorted(LEVELS)})"
            )
        self.level = level
        self._threshold = LEVELS[level]

    @property
    def enabled(self) -> bool:
        """True when the log has somewhere to write."""
        return self._stream is not None or self._path is not None

    def close(self) -> None:
        """Detach the sink (flushes and closes an owned file)."""
        with self._lock:
            if self._path is not None and self._stream is not None:
                self._stream.close()
            self._stream = None
            self._path = None

    # -- emission --------------------------------------------------------
    def event(self, name: str, level: str = "info", **fields) -> None:
        """Emit one event; a no-op below the threshold or with no sink."""
        severity = LEVELS.get(level)
        if severity is None:
            raise ValueError(f"unknown log level {level!r}")
        if severity < self._threshold or not self.enabled:
            return
        record = {"ts": self._clock(), "level": level, "event": name}
        record.update(redact_fields(fields))
        line = json.dumps(record, default=str)
        with self._lock:
            stream = self._ensure_stream()
            if stream is not None:
                size = len(line.encode()) + 1
                if (
                    self._max_bytes is not None
                    and self._path is not None
                    and self._written  # never rotate an empty file
                    and self._written + size > self._max_bytes
                ):
                    self._rotate()
                    stream = self._ensure_stream()
                stream.write(line + "\n")
                stream.flush()
                self._written += size

    def debug(self, name: str, **fields) -> None:
        self.event(name, level="debug", **fields)

    def warning(self, name: str, **fields) -> None:
        self.event(name, level="warning", **fields)

    def error(self, name: str, **fields) -> None:
        self.event(name, level="error", **fields)

    def _ensure_stream(self):
        if self._stream is None and self._path is not None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = self._path.open("a")
            self._written = (
                self._path.stat().st_size if self._path.exists() else 0
            )
        return self._stream

    def _rotate(self) -> None:
        """Roll the current file to ``<path>.1`` (caller holds the lock)."""
        assert self._path is not None and self._stream is not None
        self._stream.close()
        self._stream = None
        self._path.replace(self._path.with_name(self._path.name + ".1"))
        self._written = 0


#: Process-wide default event log; disabled (no sink) at import time.
LOG = EventLog()


def configure_log(
    path: str | Path | None = None,
    level: str = "info",
    stream: io.TextIOBase | None = None,
    max_bytes: int | None = None,
) -> EventLog:
    """Point the global :data:`LOG` at a file (or stream) and level.

    ``max_bytes`` caps a file-backed log's size; see
    :class:`EventLog`.
    """
    LOG.close()
    LOG._path = Path(path) if path is not None else None
    LOG._stream = stream
    LOG._max_bytes = max_bytes
    LOG._written = 0
    LOG.set_level(level)
    return LOG


# ----------------------------------------------------------------------
# reading a written log back (repro obs tail / summary)
# ----------------------------------------------------------------------
def read_events(path: str | Path) -> list[dict]:
    """Parse a JSONL event log; unparseable lines are skipped."""
    events = []
    with Path(path).open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                events.append(record)
    return events


def format_event(record: dict) -> str:
    """One human-readable line for an event record (``repro obs tail``).

    >>> format_event({"ts": 0.0, "level": "info", "event": "job.done",
    ...               "job_id": "ab", "seconds": 0.25})
    '1970-01-01T00:00:00Z INFO  job.done job_id=ab seconds=0.25'
    """
    ts = record.get("ts", 0.0)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(ts))
    level = str(record.get("level", "info")).upper()
    rest = " ".join(
        f"{key}={_compact(value)}"
        for key, value in record.items()
        if key not in ("ts", "level", "event")
    )
    line = f"{stamp} {level:<5} {record.get('event', '?')}"
    return f"{line} {rest}" if rest else line


def _compact(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, (dict, list)):
        return json.dumps(value, separators=(",", ":"))
    return str(value)
