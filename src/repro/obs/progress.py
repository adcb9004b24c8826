"""Live progress events from inside running checks.

Spans (:mod:`repro.obs.tracer`) reconstruct *what happened* after a run
finishes; progress events answer *what is happening now*: a wedged
fixpoint or an obligation quietly waiting in a queue are
indistinguishable from normal work without a heartbeat.  The
module has three pieces:

* :data:`PROGRESS` — a process-wide :class:`ProgressEmitter` the
  engines tick from their inner fixpoint loops.  It follows the same
  discipline as :data:`~repro.obs.tracer.TRACER`: disabled by default,
  every hot-path call site is guarded by ``if PROGRESS.enabled and
  PROGRESS.due():`` so a traced-off run pays one attribute check plus
  one clock read per iteration and nothing else.  ``due()`` is a
  *time* throttle (default one tick per 50 ms, first tick immediate),
  so per-iteration event volume — and the frontier/node-size
  computation behind each tick — is bounded by wall time, not by how
  hot the loop is.
* :class:`ProgressBus` — a thread-safe, bounded, sequence-stamped event
  buffer on the consumer side.  The serving layer keeps one per job:
  ``publish`` stamps ``seq``/``ts``, ``wait`` blocks until events past
  a sequence number arrive (the long-poll/SSE primitive), and
  ``events_since`` replays the retained window for ``Last-Event-ID``
  resume.
* :class:`ProgressConfig` — the parent-side handle
  :func:`~repro.store.cached.cached_check` threads through the check
  path: where to publish, the routing key for pool workers, the
  per-obligation name prefix and the tick interval.

Event shape (one dict per event; ``seq``/``ts`` added at the bus)::

    {"kind": "obligation.tick", "obligation": "c0.spec1", "phase": "eu",
     "iterations": 18, "size": 4211, "elapsed": 0.104, "pid": 71303}

Kinds: ``obligation.queued`` / ``obligation.start`` /
``obligation.tick`` / ``obligation.cache_hit`` / ``obligation.finish``
/ ``obligation.result``, ``obligation.stall`` (watchdog), and
``job.state`` (serving layer).

In worker processes the sink is a ``put_nowait`` onto a
multiprocessing queue created alongside the pool
(:mod:`repro.parallel.pool` drains it on a parent thread and routes by
``key``); in-process checks publish straight to the configured sink.
:class:`ProgressPrinter` renders the stream as one-line updates with
fixpoint tick rates (``repro check --progress``).

Every served job has a bus.  The serving layer folds its events into a
per-obligation state machine on the job document (states only ever
advance) and streams them as SSE at ``GET /v1/jobs/<id>/events``
(``Last-Event-ID`` resume, ``?poll=<seconds>`` long-poll); a watchdog
flags a ``running`` obligation silent past ``repro serve
--stall-deadline``.  ``repro submit MODEL --url ... --progress``
renders the same stream over SSE.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "PROGRESS",
    "DEFAULT_INTERVAL",
    "ProgressEmitter",
    "ProgressBus",
    "ProgressConfig",
    "ProgressPrinter",
    "format_progress_event",
]

#: Default minimum seconds between heartbeat ticks.
DEFAULT_INTERVAL = 0.05


class ProgressEmitter:
    """The process-wide switchboard the engines emit progress through.

    Disabled by default; :meth:`activate` (or the :meth:`active` context
    manager) installs a sink callable, a tick interval and a set of
    fields stamped on every event (obligation name, routing key, pid).
    The engine-side idiom keeps traced-off overhead inside the PR 2
    ±2% envelope::

        if PROGRESS.enabled and PROGRESS.due():
            PROGRESS.tick("eu", iterations=n, size=bdd.nodes_allocated)

    ``due()`` pays one monotonic-clock read and passes at most once per
    ``interval`` seconds (and immediately after activation), so the
    ``size`` argument — which may cost a frontier popcount — is only
    computed when a tick will actually be emitted.  Exactly one emitter
    (:data:`PROGRESS`) exists per process; worker processes activate it
    per work item, the in-process check path activates it per
    obligation.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self.enabled = False
        self._clock = clock
        self._sink: Callable[[dict], None] | None = None
        self._interval = DEFAULT_INTERVAL
        self._fields: dict = {}
        self._started = 0.0
        self._next_due = 0.0

    # -- lifecycle -------------------------------------------------------
    def activate(
        self,
        sink: Callable[[dict], None],
        *,
        interval: float = DEFAULT_INTERVAL,
        **fields,
    ) -> None:
        """Start emitting to ``sink``; ``fields`` ride on every event.

        Resets the throttle so the first :meth:`due` check passes —
        every obligation with at least one fixpoint iteration produces
        at least one heartbeat, however fast it finishes.
        """
        self._sink = sink
        self._interval = max(float(interval), 0.0)
        self._fields = dict(fields)
        self._started = self._clock()
        self._next_due = 0.0
        self.enabled = True

    def deactivate(self) -> None:
        """Stop emitting (idempotent)."""
        self.enabled = False
        self._sink = None
        self._fields = {}

    @contextmanager
    def active(
        self,
        sink: Callable[[dict], None],
        *,
        interval: float = DEFAULT_INTERVAL,
        **fields,
    ) -> Iterator["ProgressEmitter"]:
        """Scoped :meth:`activate` / :meth:`deactivate`."""
        self.activate(sink, interval=interval, **fields)
        try:
            yield self
        finally:
            self.deactivate()

    # -- emission --------------------------------------------------------
    def due(self) -> bool:
        """True at most once per interval: the hot-loop throttle gate."""
        now = self._clock()
        if now < self._next_due:
            return False
        self._next_due = now + self._interval
        return True

    def tick(self, phase: str, *, iterations: int = 0, size: int = 0) -> None:
        """Emit one ``obligation.tick`` heartbeat.

        ``phase`` names the fixpoint (``eu``/``eg``/``eg_fair``),
        ``iterations`` the checker's cumulative iteration count, and
        ``size`` the current working-set measure (BDD nodes allocated
        for the symbolic engine, frontier population for the explicit
        one).  ``elapsed`` seconds since activation are stamped on.
        """
        self.emit(
            "obligation.tick",
            phase=phase,
            iterations=int(iterations),
            size=int(size),
            elapsed=round(self._clock() - self._started, 6),
        )

    def emit(self, kind: str, **fields) -> None:
        """Emit one event of ``kind`` (no-op while disabled)."""
        sink = self._sink
        if not self.enabled or sink is None:
            return
        sink({"kind": kind, **self._fields, **fields})


#: Process-wide progress emitter; disabled until activated.
PROGRESS = ProgressEmitter()


class ProgressBus:
    """Thread-safe, bounded, sequence-stamped progress event buffer.

    One bus per job on the serving side: the drainer/runner threads
    :meth:`publish`, HTTP handler threads :meth:`wait` for events past
    the last sequence number they delivered (SSE and long-poll share
    this primitive), and :meth:`events_since` replays the retained
    window for ``Last-Event-ID`` resume.  The deque is bounded
    (``maxlen`` events): a slow consumer loses the oldest events, never
    blocks a producer.  :meth:`close` wakes every waiter for good —
    after the final drain a stream knows to send its ``end`` frame.
    """

    def __init__(self, maxlen: int = 4096, clock: Callable[[], float] = time.time):
        self._events: deque[dict] = deque(maxlen=maxlen)
        self._cond = threading.Condition()
        self._seq = 0
        self._clock = clock
        self.closed = False

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently published event."""
        return self._seq

    def publish(self, event: dict) -> dict:
        """Stamp ``seq``/``ts`` onto ``event``, buffer it, wake waiters.

        Events published after :meth:`close` are dropped (returned
        unstamped): the stream has ended and consumers may already have
        seen its terminal frame.
        """
        with self._cond:
            if self.closed:
                return dict(event)
            self._seq += 1
            record = {"seq": self._seq, "ts": round(self._clock(), 6), **event}
            self._events.append(record)
            self._cond.notify_all()
            return record

    def close(self) -> None:
        """No more events will arrive; wakes all current/future waiters."""
        with self._cond:
            self.closed = True
            self._cond.notify_all()

    def events_since(self, seq: int = 0) -> list[dict]:
        """Retained events with sequence number > ``seq`` (no blocking)."""
        with self._cond:
            return [e for e in self._events if e["seq"] > seq]

    def wait(self, seq: int = 0, timeout: float | None = None) -> list[dict]:
        """Block until events past ``seq`` exist (or close / timeout).

        Returns the new events — empty on timeout and on a closed bus
        with nothing left to deliver.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                out = [e for e in self._events if e["seq"] > seq]
                if out or self.closed:
                    return out
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return []
                    self._cond.wait(remaining)
                else:
                    self._cond.wait()


@dataclass
class ProgressConfig:
    """Parent-side progress wiring for one :func:`cached_check` call.

    ``publish`` receives every event for this check (the serving layer
    passes its state-machine updater; the CLI passes a
    :class:`ProgressPrinter`).  ``key`` routes events drained from the
    worker-pool queue back to this consumer
    (:meth:`~repro.parallel.pool.ObligationScheduler.subscribe_progress`
    must be called with the same key).  ``prefix`` namespaces the
    per-spec obligation names (``c0.spec1`` for check 0 of a batch);
    ``interval`` is the heartbeat throttle in seconds.
    """

    publish: Callable[[dict], None]
    key: str = ""
    prefix: str = ""
    interval: float = DEFAULT_INTERVAL

    def obligation(self, index: int) -> str:
        """The namespaced obligation name for spec ``index``."""
        return f"{self.prefix}spec{index}"


# ----------------------------------------------------------------------
# rendering (repro check --progress / repro submit --progress)
# ----------------------------------------------------------------------
def format_progress_event(event: dict, rate: float | None = None) -> str:
    """One human-readable line for a progress event.

    >>> format_progress_event({"kind": "obligation.tick",
    ...     "obligation": "spec0", "phase": "eu", "iterations": 18,
    ...     "size": 4211, "elapsed": 0.104})
    'spec0 tick eu iter=18 size=4211 t=0.104s'
    """
    kind = str(event.get("kind", "?"))
    name = str(event.get("obligation") or event.get("job_id") or "-")
    if kind == "obligation.tick":
        line = (
            f"{name} tick {event.get('phase', '?')}"
            f" iter={event.get('iterations', 0)}"
            f" size={event.get('size', 0)}"
            f" t={event.get('elapsed', 0.0):g}s"
        )
        if rate is not None:
            line += f" ({rate:.0f} it/s)"
        return line
    if kind == "obligation.finish":
        return (
            f"{name} done holds={event.get('holds')}"
            f" in {event.get('seconds', 0.0):g}s"
        )
    if kind == "obligation.result":
        verdict = "true" if event.get("holds") else "false"
        return f"{name} result {verdict}"
    if kind == "obligation.cache_hit":
        return f"{name} cached"
    if kind == "obligation.queued":
        return f"{name} queued ({event.get('engine', '?')})"
    if kind == "obligation.start":
        pid = event.get("pid")
        return f"{name} running" + (f" on pid {pid}" if pid else "")
    if kind == "obligation.stall":
        return (
            f"{name} STALLED: no heartbeat for"
            f" {event.get('idle_seconds', 0.0):g}s"
            f" (deadline {event.get('deadline', 0.0):g}s)"
        )
    if kind == "job.state":
        return f"job {event.get('state', '?')}"
    rest = " ".join(
        f"{k}={v}"
        for k, v in event.items()
        if k not in ("kind", "obligation", "seq", "ts")
    )
    return f"{name} {kind} {rest}".rstrip()


class ProgressPrinter:
    """Render a progress stream as one line per event, with tick rates.

    Callable (``printer(event)``) so it plugs in anywhere a sink or
    ``publish`` is expected.  Tick rates are derived per obligation from
    consecutive ``obligation.tick`` events (Δiterations / Δelapsed).
    Thread-safe: the pool drainer thread and the submitting thread may
    both deliver events.
    """

    def __init__(self, stream=None):
        self._stream = stream if stream is not None else sys.stderr
        self._lock = threading.Lock()
        self._last_tick: dict[str, tuple[int, float]] = {}

    def __call__(self, event: dict) -> None:
        rate = None
        name = str(event.get("obligation", ""))
        with self._lock:
            if event.get("kind") == "obligation.tick" and name:
                iterations = int(event.get("iterations", 0))
                elapsed = float(event.get("elapsed", 0.0))
                previous = self._last_tick.get(name)
                self._last_tick[name] = (iterations, elapsed)
                if previous is not None and elapsed > previous[1]:
                    rate = (iterations - previous[0]) / (elapsed - previous[1])
            print(
                format_progress_event(event, rate=rate),
                file=self._stream,
                flush=True,
            )
