"""Store-backed model checking: reuse every verdict already on disk.

:func:`cached_check` is the one code path behind ``repro check --cache``,
``repro check --json`` and the serving layer's job executor.  It checks
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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.checking.result import CheckResult, CheckStats, bound_text
from repro.logic.ctl import TRUE
from repro.logic.restriction import Restriction
from repro.obs.tracer import TRACER
from repro.smv.elaborate import SmvModel
from repro.smv.pretty import spec_to_str
from repro.smv.run import SmvReport, _counterexample_trace, load_model
from repro.store.fingerprint import report_fingerprint, spec_fingerprint
from repro.store.store import ResultStore, StoreRecord

__all__ = ["CachedRun", "cached_check"]


@dataclass
class CachedRun:
    """Outcome of one (possibly cache-served) whole-module check."""

    model: SmvModel
    engine: str
    reflexive: bool
    restriction: Restriction
    results: list[CheckResult] = field(default_factory=list)
    spec_texts: list[str] = field(default_factory=list)
    counterexamples: list = field(default_factory=list)
    #: Per-spec: True when the verdict was served from the store.
    cached_flags: list[bool] = field(default_factory=list)
    fingerprints: list[str] = field(default_factory=list)
    user_time: float = 0.0
    bdd_nodes_allocated: int = 0
    transition_nodes: int = 0
    num_fairness: int = 0

    @property
    def all_true(self) -> bool:
        return all(r.holds for r in self.results)

    @property
    def hits(self) -> int:
        return sum(self.cached_flags)

    @property
    def misses(self) -> int:
        return len(self.cached_flags) - self.hits

    def merged_stats(self) -> CheckStats:
        return CheckStats.merged(r.stats for r in self.results)

    def to_report(self) -> SmvReport:
        """The run as an :class:`~repro.smv.run.SmvReport` (symbolic style)."""
        report = SmvReport(
            module_name=self.model.name,
            results=list(self.results),
            spec_texts=list(self.spec_texts),
            counterexamples=list(self.counterexamples),
            user_time=self.user_time,
            num_fairness=self.num_fairness,
        )
        report.bdd_nodes_allocated = self.bdd_nodes_allocated
        report.transition_nodes = self.transition_nodes
        return report


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
        Tracer recording this run's spans; defaults to the process-wide
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
    model = load_model(source)
    restriction = Restriction(
        init=model.initial_formula(),
        fairness=tuple(model.fairness) or (TRUE,),
    )
    options = {"reflexive": bool(reflexive)}
    spec_texts = [spec_to_str(s) for s in model.module.specs]
    bound = [bound_text(spec, restriction) for spec in model.specs]
    fingerprints = [
        spec_fingerprint(
            model, spec, restriction, engine, options, text=text
        )
        for spec, text in zip(model.specs, bound)
    ]
    count = len(model.specs)
    results: list[CheckResult | None] = [None] * count
    counterexamples: list = [None] * count
    cached_flags = [False] * count
    report_fp = report_fingerprint(model, restriction, engine, options)

    root_attrs = dict(module=model.name, engine=engine)
    if trace_id:
        root_attrs["trace_id"] = trace_id
    with tracer.span(
        "store.cached_check", category="store", **root_attrs
    ) as root:
        with tracer.span("store.probe", category="store", specs=count):
            if store is not None:
                for i, fp in enumerate(fingerprints):
                    # a record written for another spec or restriction
                    # is a miss
                    found = store.replay(
                        fp, model.specs[i], restriction, bound[i], kind="spec"
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

        sym = None
        if miss_indices:
            if scheduler is not None:
                _run_scheduled(
                    scheduler, source, model, restriction, engine, reflexive,
                    miss_indices, results, counterexamples, timeout,
                    tracer=tracer, trace_id=trace_id, progress=progress,
                )
            else:
                sym = _run_inprocess(
                    model, restriction, engine, reflexive,
                    miss_indices, results, counterexamples, tracer=tracer,
                    progress=progress,
                )
        user_time = root.elapsed()

    run = CachedRun(
        model=model,
        engine=engine,
        reflexive=reflexive,
        restriction=restriction,
        results=list(results),  # type: ignore[arg-type]
        spec_texts=spec_texts,
        counterexamples=counterexamples,
        cached_flags=cached_flags,
        fingerprints=fingerprints,
        user_time=user_time,
        num_fairness=len([f for f in restriction.fairness if f != TRUE]),
    )
    merged = run.merged_stats()
    if sym is not None:
        run.bdd_nodes_allocated = sym.bdd.nodes_allocated
        run.transition_nodes = sym.node_count()
    else:
        run.bdd_nodes_allocated = merged.bdd_nodes_allocated
        run.transition_nodes = merged.transition_nodes

    if store is not None:
        if miss_indices:
            for i in miss_indices:
                result = results[i]
                assert result is not None
                store.put(
                    fingerprints[i],
                    StoreRecord(
                        verdict=result.holds,
                        result=result.to_dict(),
                        spec_text=spec_texts[i],
                        counterexample=counterexamples[i],
                    ),
                    kind="spec",
                )
            store.put(
                report_fp,
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
            record = store.get(report_fp, kind="report")
            if record is not None and record.meta:
                run.user_time = float(record.meta.get("user_time", run.user_time))
                run.bdd_nodes_allocated = int(
                    record.meta.get("bdd_nodes_allocated", run.bdd_nodes_allocated)
                )
                run.transition_nodes = int(
                    record.meta.get("transition_nodes", run.transition_nodes)
                )
            else:
                run.user_time = merged.user_time
    return run


def _checked_with_progress(checker, formula, restriction, progress, index):
    """Run one in-process obligation with live lifecycle events around
    it and the process-wide emitter active for heartbeat ticks."""
    import os
    import time as time_module

    from repro.obs.progress import PROGRESS

    name = progress.obligation(index)
    progress.publish(
        {"kind": "obligation.start", "obligation": name, "pid": os.getpid()}
    )
    started = time_module.perf_counter()
    with PROGRESS.active(
        progress.publish, interval=progress.interval, obligation=name
    ):
        result = checker.holds(formula, restriction)
    progress.publish(
        {
            "kind": "obligation.finish",
            "obligation": name,
            "holds": result.holds,
            "cached": False,
            "seconds": round(time_module.perf_counter() - started, 6),
        }
    )
    return result


def _run_inprocess(
    model, restriction, engine, reflexive, miss_indices, results,
    counterexamples, tracer=None, progress=None,
):
    """Check the missing specs with an in-process engine; returns the
    compiled symbolic system (``None`` for the explicit engine)."""
    if tracer is None:
        tracer = TRACER

    def checked(checker, i):
        if progress is not None:
            return _checked_with_progress(
                checker, model.specs[i], restriction, progress, i
            )
        return checker.holds(model.specs[i], restriction)

    if engine == "explicit":
        from repro.checking.explicit import ExplicitChecker
        from repro.smv.compile_explicit import to_system

        checker = ExplicitChecker(to_system(model, reflexive=reflexive))
        for i in miss_indices:
            results[i] = checked(checker, i)
        return None
    from repro.checking.symbolic import SymbolicChecker
    from repro.smv.compile_symbolic import to_symbolic

    with tracer.span("smv.compile_symbolic", category="smv"):
        sym = to_symbolic(model, reflexive=reflexive)
    checker = SymbolicChecker(sym)
    for i in miss_indices:
        result = checked(checker, i)
        results[i] = result
        if not result.holds and result.failing_states:
            with tracer.span("smv.counterexample", category="smv"):
                counterexamples[i] = _counterexample_trace(
                    model, sym, model.specs[i], result
                )
    return sym


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
    # report-level BDD numbers come from the merged worker stats, like
    # the CLI's --jobs path — the parent-side system (compiled only to
    # decode traces) is not this run's engine instance
