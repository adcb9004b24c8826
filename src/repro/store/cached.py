"""Store-backed model checking: reuse every verdict already on disk.

:func:`cached_check` is the one code path behind ``repro check`` (every
flag combination) and the serving layer's job executor.  It checks
every ``SPEC`` of an SMV module, consulting a :class:`~repro.store.store.ResultStore`
first: specs whose fingerprint has a record are replayed from disk
(verdict, statistics, decoded counterexample) around the spec and
restriction in hand, unless the record was written for another spec or
restriction text (:meth:`CheckResult.replayed`); the rest are computed —
in-process, or through an :class:`~repro.parallel.pool.ObligationScheduler`
when one is supplied — and written back.

Replays are **byte-identical** to the run that populated the store: the
per-spec records carry the original :class:`CheckStats` (including the
measured ``user_time``), and a report-level record keyed by
:func:`~repro.store.fingerprint.report_fingerprint` preserves the
whole-run wall time and BDD totals, so a warm ``repro check --cache``
prints exactly the cold run's report.

A repeated submission skips the front end: once a source's check has
been answered entirely from the store, its parsed model, restriction,
spec texts and fingerprints stay in a bounded in-process memo
(:class:`_FrontEndMemo`), and the next check of the same text, engine
and options goes straight to the store probe.  Its verdicts still come
from the store records, bound to the memoized spec and restriction.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.checking.result import CheckResult, CheckStats, bound_text
from repro.logic.ctl import TRUE
from repro.logic.restriction import Restriction
from repro.obs.tracer import TRACER
from repro.smv.elaborate import SmvModel
from repro.smv.pretty import spec_to_str
from repro.smv.run import SmvReport, _counterexample_trace, check_model, load_model
from repro.store.fingerprint import (
    STORE_SCHEMA_VERSION,
    report_fingerprint,
    spec_fingerprint,
)
from repro.store.store import ResultStore, StoreRecord

__all__ = ["CachedRun", "cached_check"]


@dataclass
class CachedRun(SmvReport):
    """Outcome of one (possibly cache-served) whole-module check: the
    report, plus where each verdict came from and its content address."""

    model: SmvModel | None = None
    reflexive: bool = False
    restriction: Restriction | None = None
    #: Per-spec: True when the verdict was served from the store.
    cached_flags: list[bool] = field(default_factory=list)
    fingerprints: list[str] = field(default_factory=list)

    @property
    def hits(self) -> int:
        return sum(self.cached_flags)

    @property
    def misses(self) -> int:
        return len(self.cached_flags) - self.hits

    def merged_stats(self) -> CheckStats:
        """:attr:`check_stats`, under the name the benchmark's self-test
        calls (``perfbench/selftest.py``)."""
        return self.check_stats


def cached_check(
    source: str,
    *,
    engine: str = "symbolic",
    reflexive: bool = False,
    store: ResultStore | None = None,
    scheduler=None,
    timeout: float | None = None,
    tracer=None,
    trace_id: str = "",
    progress=None,
) -> CachedRun:
    """Check every SPEC of ``source``, reusing store records where possible.

    Parameters
    ----------
    engine:
        ``"symbolic"`` (BDD) or ``"explicit"`` (NumPy bitsets).
    store:
        Consult/populate this store; ``None`` computes everything fresh
        (still producing fingerprints, so ``repro check --json`` reports
        are stable addresses).
    scheduler:
        An :class:`~repro.parallel.pool.ObligationScheduler`: cache
        misses fan out over its worker pool instead of running
        in-process.
    timeout:
        Deadline in seconds for the scheduled batch (scheduler path
        only); raises :class:`~repro.parallel.workitem.ParallelError`
        when exceeded.
    tracer:
        Tracer recording this run's spans (the front end's
        ``smv.parse``/``smv.elaborate``/``store.fingerprint`` included,
        or ``front_end="memo"`` on the root when the memo answered
        them); defaults to the process-wide
        :data:`~repro.obs.tracer.TRACER`.  The serving layer passes a
        private per-request tracer (:mod:`repro.serve.jobs`) so request
        traces never touch global tracing state.
    trace_id:
        Request trace identity stamped on this run's spans and carried
        into the worker pool, so grafted worker spans share it.
    progress:
        A :class:`~repro.obs.progress.ProgressConfig`: every per-spec
        obligation publishes live lifecycle events
        (``obligation.queued``/``start``/``tick``/``cache_hit``/
        ``finish``/``result``) through it.  On the scheduler path the
        config's ``key`` must be subscribed on the scheduler
        (:meth:`~repro.parallel.pool.ObligationScheduler.subscribe_progress`)
        so worker heartbeats route back; in-process checks activate the
        process-wide :data:`~repro.obs.progress.PROGRESS` emitter
        directly.  ``None`` (the default) emits nothing.
    """
    if tracer is None:
        tracer = TRACER
    key = (source, engine, bool(reflexive), STORE_SCHEMA_VERSION)
    root_attrs = dict(module="", engine=engine)
    if trace_id:
        root_attrs["trace_id"] = trace_id
    with tracer.span(
        "store.cached_check", category="store", **root_attrs
    ) as root:
        front = _FRONT_ENDS.get(key) if store is not None else None
        if front is None:
            front = _front_end(source, engine, reflexive, tracer)
        else:
            root.attrs["front_end"] = "memo"
        model = front.model
        restriction = model.restriction
        root.attrs["module"] = model.name
        # user_time covers the probe and the checks, not the front end
        checking_started = root.elapsed()
        count = len(model.specs)
        results: list[CheckResult | None] = [None] * count
        counterexamples: list = [None] * count
        cached_flags = [False] * count
        with tracer.span("store.probe", category="store", specs=count):
            if store is not None:
                for i, fp in enumerate(front.fingerprints):
                    # a record written for another spec or restriction
                    # is a miss
                    found = store.replay(
                        fp, model.specs[i], restriction, front.bound[i],
                        kind="spec",
                    )
                    if found is None:
                        continue
                    record, results[i] = found
                    counterexamples[i] = record.counterexample
                    cached_flags[i] = True
                    if progress is not None:
                        progress.publish(
                            {
                                "kind": "obligation.cache_hit",
                                "obligation": progress.obligation(i),
                                "engine": engine,
                                "holds": results[i].holds,
                            }
                        )
        miss_indices = [i for i in range(count) if results[i] is None]
        root.add("store.spec_hits", count - len(miss_indices))
        root.add("store.spec_misses", len(miss_indices))

        checked = sym = None
        if scheduler is not None:
            if miss_indices:
                _run_scheduled(
                    scheduler, source, model, restriction, engine, reflexive,
                    miss_indices, results, counterexamples, timeout,
                    tracer=tracer, trace_id=trace_id, progress=progress,
                )
        elif miss_indices or store is None:
            # without a store even a SPEC-less module is compiled, so its
            # report counts the relation's nodes as SMV's does
            checked, sym = check_model(
                model, reflexive, engine=engine, specs=miss_indices,
                progress=progress, tracer=tracer,
            )
            for i, result, trace in zip(
                miss_indices, checked.results, checked.counterexamples
            ):
                results[i] = result
                counterexamples[i] = trace
        user_time = root.elapsed() - checking_started

    run = CachedRun(
        module_name=model.name,
        engine=engine,
        model=model,
        reflexive=reflexive,
        restriction=restriction,
        results=list(results),  # type: ignore[arg-type]
        spec_texts=list(front.spec_texts),
        counterexamples=counterexamples,
        cached_flags=cached_flags,
        fingerprints=list(front.fingerprints),
        user_time=user_time,
        num_fairness=len([f for f in restriction.fairness if f != TRUE]),
    )
    merged = run.check_stats
    # the in-process BDD engine's own totals; explicit, replayed and
    # pooled verdicts report the merged per-spec statistics
    totals = checked if sym is not None else merged
    run.bdd_nodes_allocated = totals.bdd_nodes_allocated
    run.transition_nodes = totals.transition_nodes

    if store is not None:
        if miss_indices:
            for i in miss_indices:
                result = results[i]
                assert result is not None
                store.put(
                    front.fingerprints[i],
                    StoreRecord(
                        verdict=result.holds,
                        result=result.to_dict(),
                        spec_text=front.spec_texts[i],
                        counterexample=counterexamples[i],
                    ),
                    kind="spec",
                )
            store.put(
                front.report_fp,
                StoreRecord(
                    verdict=run.all_true,
                    meta={
                        "user_time": run.user_time,
                        "bdd_nodes_allocated": run.bdd_nodes_allocated,
                        "transition_nodes": run.transition_nodes,
                        "num_fairness": run.num_fairness,
                    },
                ),
                kind="report",
            )
        else:
            # full replay: restore the cold run's report-level numbers so
            # the printed report is byte-identical to the run that wrote it
            record = store.get(front.report_fp, kind="report")
            if record is not None and record.meta:
                run.user_time = float(record.meta.get("user_time", run.user_time))
                run.bdd_nodes_allocated = int(
                    record.meta.get("bdd_nodes_allocated", run.bdd_nodes_allocated)
                )
                run.transition_nodes = int(
                    record.meta.get("transition_nodes", run.transition_nodes)
                )
                # answered entirely from the store: a repeat may skip
                # the front end
                _FRONT_ENDS.admit(key, front)
            else:
                run.user_time = merged.user_time
    return run


@dataclass(frozen=True)
class _FrontEnd:
    """What :func:`cached_check` derives from a source before it probes
    the store: the model (its restriction included), the printed spec
    texts, the text each verdict is bound to and the content
    addresses."""

    model: SmvModel
    spec_texts: tuple[str, ...]
    bound: tuple[dict, ...]
    fingerprints: tuple[str, ...]
    report_fp: str


def _front_end(source: str, engine: str, reflexive: bool, tracer) -> _FrontEnd:
    """Parse, elaborate and fingerprint ``source`` (spans on ``tracer``)."""
    model = load_model(source, tracer)
    restriction = model.restriction
    options = {"reflexive": bool(reflexive)}
    with tracer.span(
        "store.fingerprint", category="store", specs=len(model.specs)
    ):
        bound = tuple(bound_text(spec, restriction) for spec in model.specs)
        fingerprints = tuple(
            spec_fingerprint(
                model, spec, restriction, engine, options, text=text
            )
            for spec, text in zip(model.specs, bound)
        )
        report_fp = report_fingerprint(model, restriction, engine, options)
    return _FrontEnd(
        model=model,
        spec_texts=tuple(spec_to_str(s) for s in model.module.specs),
        bound=bound,
        fingerprints=fingerprints,
        report_fp=report_fp,
    )


class _FrontEndMemo:
    """A locked LRU of :class:`_FrontEnd` values keyed by ``(source,
    engine, reflexive, STORE_SCHEMA_VERSION)``, at most ``size`` of them.

    :func:`cached_check` consults it only when it has a store, and
    admits a front end only after its check was answered entirely from
    that store, so cold and store-less checks never enter: the memo
    holds the sources that come back, not every novel one.  A hit skips
    parsing, elaboration and fingerprinting only; every verdict still
    comes from a store record that :meth:`ResultStore.replay` binds to
    the memoized spec and restriction.
    """

    def __init__(self, size: int):
        self.size = size
        self._entries: OrderedDict[tuple, _FrontEnd] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: tuple) -> _FrontEnd | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def admit(self, key: tuple, entry: _FrontEnd) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.size:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: Front ends kept for repeated submissions: a fixed bound, so the memo's
#: memory does not grow with the number of distinct sources served.
FRONT_END_MEMO_SIZE = 64
_FRONT_ENDS = _FrontEndMemo(FRONT_END_MEMO_SIZE)


def _run_scheduled(
    scheduler, source, model, restriction, engine, reflexive,
    miss_indices, results, counterexamples, timeout,
    tracer=None, trace_id="", progress=None,
):
    """Fan the missing specs out over a worker pool; failed symbolic
    specs are re-examined in-process to decode counterexample traces
    (exactly as the sequential engine would report them)."""
    from repro.parallel import SmvSpec, WorkItem

    system_spec = SmvSpec(source=source, reflexive=reflexive)
    items = [
        WorkItem(
            system=system_spec,
            formula=model.specs[i],
            restriction=restriction,
            engine=engine,
            label=f"spec{i}",
            trace_id=trace_id,
            progress_key=progress.key if progress is not None else "",
            progress_obligation=(
                progress.obligation(i) if progress is not None else ""
            ),
            progress_interval=(
                progress.interval if progress is not None else 0.05
            ),
        )
        for i in miss_indices
    ]
    if progress is not None:
        for i in miss_indices:
            progress.publish(
                {
                    "kind": "obligation.queued",
                    "obligation": progress.obligation(i),
                    "engine": engine,
                }
            )
    outcomes = scheduler.run(items, timeout=timeout, tracer=tracer)
    sym = None
    for i, outcome in zip(miss_indices, outcomes):
        results[i] = outcome.result
        if progress is not None:
            progress.publish(
                {
                    "kind": "obligation.result",
                    "obligation": progress.obligation(i),
                    "holds": outcome.result.holds,
                    "pid": outcome.pid,
                    "seconds": round(outcome.check_seconds, 6),
                }
            )
        if (
            engine == "symbolic"
            and not outcome.result.holds
            and outcome.result.failing_states
        ):
            if sym is None:
                from repro.smv.compile_symbolic import to_symbolic

                sym = to_symbolic(model, reflexive=reflexive)
            counterexamples[i] = _counterexample_trace(
                model, sym, model.specs[i], outcome.result
            )
    # report-level BDD numbers come from the merged worker stats — the
    # parent-side system (compiled only to decode traces) is not this
    # run's engine instance
