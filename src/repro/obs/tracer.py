"""Span-based tracer — the library's single timing mechanism.

A :class:`Span` is one named, timed region of work; spans nest, carry
free-form attributes (``formula=...``, ``component=...``) and numeric
*counters* (BDD mk calls, fixpoint iterations), and together form the
trees that the exporters (:mod:`repro.obs.export`) and the profile
formatter (:mod:`repro.obs.profile`) consume.

Design constraints (this sits under the BDD engine's hot loops):

* **zero dependencies** — stdlib only, importable from anywhere in the
  library without cycles;
* **always-on timing, opt-in recording** — ``tracer.span(...)`` always
  measures wall time with :func:`time.perf_counter` (so call sites like
  :meth:`SymbolicChecker.holds` use span durations for
  ``CheckStats.user_time`` whether or not tracing is on), but the span
  is linked into the trace tree only while the tracer is *enabled*;
* **one attribute check on hot paths** — per-iteration and per-node-op
  call sites guard with ``if TRACER.enabled:`` and pay a single boolean
  attribute read when tracing is off (the disabled singleton records
  nothing and allocates nothing on those paths).

The module-level :data:`TRACER` is the process-wide default used by the
instrumented pipeline; :func:`tracing` is the ergonomic way to capture
one trace::

    from repro.obs import TRACER, tracing

    with tracing() as tracer:
        check_source(model_text)
    print(format_profile(tracer))

Tracers are not thread-safe: one tracer per thread (the pipeline itself
is single-threaded).
"""

from __future__ import annotations

import time
import uuid
from collections.abc import Iterator
from contextlib import contextmanager

__all__ = [
    "Span",
    "TraceContext",
    "Tracer",
    "TRACER",
    "TIMER",
    "enable_tracing",
    "disable_tracing",
    "tracing",
]


class TraceContext:
    """The cross-process identity of one request's trace.

    A ``TraceContext`` is minted once at the edge (``POST /v1/check``)
    and threaded — as plain strings, so it crosses process boundaries
    for free — through the job manager, the cached-check layer and the
    worker pool: every span recorded on behalf of the request carries
    ``trace_id`` in its attributes, which is what lets a merged trace
    show one request end to end instead of pid-only worker fragments.

    ``trace_id`` is 32 hex characters and ``span_id`` 16 (W3C
    traceparent sizes); :meth:`child` mints a new span id under the
    same trace, for callees that want their own identity.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str = ""):
        self.trace_id = trace_id
        self.span_id = span_id or uuid.uuid4().hex[:16]

    @classmethod
    def mint(cls) -> "TraceContext":
        """A fresh trace identity (new trace_id, new root span_id)."""
        return cls(trace_id=uuid.uuid4().hex)

    def child(self) -> "TraceContext":
        """A new span identity within the same trace."""
        return TraceContext(self.trace_id)

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TraceContext)
            and other.trace_id == self.trace_id
            and other.span_id == self.span_id
        )

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceContext({self.trace_id!r}, span={self.span_id!r})"


class Span:
    """One timed region: name, category, attributes, counters, children.

    Spans are context managers: entering starts the clock (and links the
    span under the tracer's current span when recording is enabled);
    exiting stops it.  ``duration`` is inclusive wall time in seconds;
    ``exclusive`` subtracts the time covered by recorded children.
    """

    __slots__ = (
        "name",
        "category",
        "attrs",
        "counters",
        "children",
        "start",
        "end",
        "recorded",
        "_tracer",
    )

    def __init__(
        self, tracer: "Tracer", name: str, category: str, attrs: dict
    ) -> None:
        self.name = name
        self.category = category
        self.attrs = attrs
        self.counters: dict[str, float] = {}
        self.children: list[Span] = []
        self.start: float = 0.0
        self.end: float | None = None
        self.recorded: bool = False
        self._tracer = tracer

    # -- context manager ------------------------------------------------
    def __enter__(self) -> "Span":
        tracer = self._tracer
        if tracer.enabled:
            self.recorded = True
            stack = tracer._stack
            if stack:
                stack[-1].children.append(self)
            else:
                tracer.roots.append(self)
            stack.append(self)
        self.start = tracer._clock()
        return self

    def __exit__(self, *exc) -> None:
        self.end = self._tracer._clock()
        if self.recorded:
            # tolerate out-of-order exits (a span leaked across a raise)
            stack = self._tracer._stack
            if self in stack:
                while stack and stack.pop() is not self:
                    pass

    # -- measurements ---------------------------------------------------
    @property
    def duration(self) -> float:
        """Inclusive wall time in seconds (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def elapsed(self) -> float:
        """Seconds since the span started (usable before it closes)."""
        return self._tracer._clock() - self.start

    @property
    def exclusive(self) -> float:
        """Inclusive duration minus the time covered by child spans."""
        return self.duration - sum(c.duration for c in self.children)

    # -- annotations ----------------------------------------------------
    def add(self, counter: str, value: float = 1.0) -> None:
        """Accumulate a numeric counter on this span."""
        self.counters[counter] = self.counters.get(counter, 0.0) + value

    # -- traversal ------------------------------------------------------
    def walk(self) -> Iterator["Span"]:
        """Pre-order traversal of this span's subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, cat={self.category!r}, "
            f"dur={self.duration * 1e3:.3f}ms, "
            f"children={len(self.children)})"
        )


class Tracer:
    """Collects span trees; disabled by default so hot paths stay hot.

    ``enabled`` gates *recording* only — :meth:`span` always returns a
    real, timing :class:`Span`, which lets call sites derive
    ``user_time`` from span durations unconditionally.  Guard per-
    iteration instrumentation with ``if tracer.enabled:`` so a disabled
    tracer costs one attribute check there.
    """

    def __init__(self, enabled: bool = False, clock=time.perf_counter):
        self.enabled = enabled
        self._clock = clock
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        #: Wall-clock epoch paired with the perf-counter origin, stamped
        #: at :meth:`reset` — lets exporters report absolute times.
        self.epoch_wall: float = time.time()
        self.epoch_perf: float = clock()

    # -- span creation --------------------------------------------------
    def span(self, name: str, category: str = "", **attrs) -> Span:
        """A new span; use as ``with tracer.span("check") as sp:``."""
        return Span(self, name, category, attrs)

    def current(self) -> Span | None:
        """The innermost open recorded span, if any."""
        return self._stack[-1] if self._stack else None

    def add_counter(self, counter: str, value: float = 1.0) -> None:
        """Accumulate a counter on the current span (no-op when idle)."""
        if self._stack:
            self._stack[-1].add(counter, value)

    # -- lifecycle ------------------------------------------------------
    def reset(self) -> None:
        """Drop every recorded span and restart the epoch."""
        self.roots.clear()
        self._stack.clear()
        self.epoch_wall = time.time()
        self.epoch_perf = self._clock()

    def spans(self) -> Iterator[Span]:
        """Pre-order traversal of every recorded span tree."""
        for root in self.roots:
            yield from root.walk()

    @property
    def start_time(self) -> float:
        """perf-counter origin for relative timestamps: the earliest
        recorded root start, falling back to the reset epoch."""
        if self.roots:
            return min(root.start for root in self.roots)
        return self.epoch_perf


#: Process-wide default tracer used by the instrumented pipeline.
#: Disabled at import time: hot paths pay one ``TRACER.enabled`` check.
TRACER = Tracer(enabled=False)

#: A tracer that is never enabled.  Its spans time a region without
#: recording it, and a disabled tracer touches no shared state, so any
#: thread may use it.  Timers that feed a histogram but no trace (an
#: HTTP exchange, the accept stage, a router fan-out, a peer fetch) take
#: their spans from it, not from :data:`TRACER`, which ``repro check
#: --trace`` and tests enable.
TIMER = Tracer(enabled=False)


def enable_tracing(reset: bool = True) -> Tracer:
    """Turn on recording on the global tracer (clearing old spans)."""
    if reset:
        TRACER.reset()
    TRACER.enabled = True
    return TRACER


def disable_tracing() -> Tracer:
    """Turn off recording on the global tracer (spans are kept)."""
    TRACER.enabled = False
    return TRACER


@contextmanager
def tracing(reset: bool = True) -> Iterator[Tracer]:
    """Enable the global tracer for a block and disable it afterwards.

    >>> from repro.obs.tracer import tracing
    >>> with tracing() as t:
    ...     with t.span("outer"):
    ...         with t.span("inner"):
    ...             pass
    >>> [s.name for s in t.spans()]
    ['outer', 'inner']
    """
    enable_tracing(reset=reset)
    try:
        yield TRACER
    finally:
        disable_tracing()
