"""End-to-end SMV driver: parse → elaborate → compile → check → report.

:func:`check_source` is the equivalent of running ``./smv model.smv`` in
the paper's Figures 7, 10, 15 and 17: it checks every ``SPEC`` of the
module (under the module's ``FAIRNESS`` declarations and the validity /
``init()`` initial condition) and produces a report whose ``format()``
mimics SMV's output, including the resource statistics block.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.checking.result import CheckResult, CheckStats, verdict_line
from repro.checking.symbolic import SymbolicChecker
from repro.checking.symbolic_witness import ef_witness_symbolic
from repro.logic.ctl import AG, AX, Formula, Implies, Not, TRUE, is_propositional
from repro.obs.tracer import TRACER
from repro.smv.elaborate import SmvModel
from repro.smv.pretty import spec_to_str
from repro.systems.symbolic import SymbolicSystem


@dataclass
class SmvReport:
    """Verdicts for every SPEC of a module plus SMV-style statistics."""

    module_name: str
    results: list[CheckResult] = field(default_factory=list)
    spec_texts: list[str] = field(default_factory=list)
    #: Per-spec counterexample traces (decoded variable assignments);
    #: None for true specs or shapes without trace support.
    counterexamples: list[list[dict] | None] = field(default_factory=list)
    user_time: float = 0.0
    bdd_nodes_allocated: int = 0
    transition_nodes: int = 0
    num_fairness: int = 0
    #: ``"symbolic"`` (BDD) or ``"explicit"`` (NumPy bitsets); an
    #: explicit report has no BDD resources block.
    engine: str = "symbolic"

    @property
    def check_stats(self) -> CheckStats:
        """Aggregated per-spec engine statistics (cache hit rates etc.)."""
        return CheckStats.merged(r.stats for r in self.results)

    @property
    def all_true(self) -> bool:
        """True when every SPEC holds (the paper's outputs are all true)."""
        return all(r.holds for r in self.results)

    def format(
        self, with_counterexamples: bool = True, with_stats: bool = False
    ) -> str:
        """SMV-like console output (verdict lines + resources block).

        ``with_stats`` appends the extended engine statistics: computed-
        table hit rate and the unique table's peak size (the CLI's
        ``--stats`` flag).  An explicit-engine report prints its verdict
        lines alone, and with ``with_stats`` the merged
        :meth:`CheckStats.format` block.
        """
        lines = []
        for i, result in enumerate(self.results):
            text = (
                self.spec_texts[i]
                if i < len(self.spec_texts)
                else str(result.formula)
            )
            lines.append(verdict_line(text, result.holds))
            trace = (
                self.counterexamples[i]
                if with_counterexamples and i < len(self.counterexamples)
                else None
            )
            if trace:
                lines.append("-- as demonstrated by the following execution sequence")
                previous: dict = {}
                for j, assignment in enumerate(trace):
                    lines.append(f"state {j + 1}.{i + 1}:")
                    for name, value in assignment.items():
                        if previous.get(name) != value:
                            shown = {True: "1", False: "0"}.get(value, value)
                            lines.append(f"  {name} = {shown}")
                    previous = assignment
        if self.engine == "explicit":
            if with_stats and self.results:
                lines += ["", self.check_stats.format()]
            return "\n".join(lines)
        lines.append("")
        lines.append("resources used:")
        lines.append(f"user time: {self.user_time:g} s, system time: 0 s")
        lines.append(f"BDD nodes allocated: {self.bdd_nodes_allocated}")
        lines.append(
            "BDD nodes representing transition relation: "
            f"{self.transition_nodes} + {self.num_fairness}"
        )
        if with_stats and self.results:
            merged = self.check_stats
            lines.append(
                f"BDD cache: {merged.bdd_cache_lookups} lookups, "
                f"{merged.cache_hit_rate:.1%} hit rate"
            )
            lines.append(
                f"BDD unique table: peak {merged.bdd_peak_unique_nodes} "
                f"nodes ({merged.bdd_mk_calls} mk calls)"
            )
            lines.append(
                f"fixpoint iterations: {merged.fixpoint_iterations}"
            )
        return "\n".join(lines)


def _counterexample_trace(
    model: SmvModel,
    sym: SymbolicSystem,
    spec: Formula,
    result: CheckResult,
) -> list[dict] | None:
    """A decoded execution sequence refuting a failed spec, when the
    spec's shape supports path counterexamples (``AG p``, ``p ⇒ AX q``)."""
    if result.holds or not result.failing_states:
        return None
    start = result.failing_states[0]

    def decode_path(path: list[frozenset] | None) -> list[dict] | None:
        if path is None:
            return None
        decoded = [model.encoding.decode(s) for s in path]
        return None if any(d is None for d in decoded) else decoded

    if isinstance(spec, AG) and is_propositional(spec.operand):
        return decode_path(
            ef_witness_symbolic(sym, start, Not(spec.operand))
        )
    if (
        isinstance(spec, Implies)
        and isinstance(spec.right, AX)
        and is_propositional(spec.left)
        and is_propositional(spec.right.operand)
    ):
        # the failing state plus one offending successor
        from repro.bdd.formula import prop_to_bdd
        from repro.bdd.manager import FALSE

        successors = sym.post_image(sym.state_cube(start))
        bad = sym.bdd.apply(
            "and", successors, prop_to_bdd(sym.bdd, Not(spec.right.operand))
        )
        if bad != FALSE:
            assignment = next(sym.bdd.iter_sat(bad, list(sym.atoms)))
            offender = frozenset(a for a in sym.atoms if assignment[a])
            return decode_path([start, offender])
        return decode_path([start])
    return decode_path([start])


def _checked_with_progress(checker, formula, restriction, progress, index):
    """Run one obligation with live lifecycle events around it and the
    process-wide emitter active for heartbeat ticks."""
    import os

    from repro.obs.progress import PROGRESS

    name = progress.obligation(index)
    progress.publish(
        {"kind": "obligation.start", "obligation": name, "pid": os.getpid()}
    )
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
            # the checker took this from its own check span
            "seconds": round(result.stats.user_time, 6),
        }
    )
    return result


def check_model(
    model: SmvModel,
    reflexive: bool = False,
    *,
    engine: str = "symbolic",
    specs: Sequence[int] | None = None,
    progress=None,
    tracer=None,
) -> tuple[SmvReport, SymbolicSystem | None]:
    """Compile ``model`` and check its SPECs in process.

    Every SPEC is checked under :attr:`SmvModel.restriction` (the
    validity + ``init()`` initial condition and the module's
    ``FAIRNESS``), with the BDD engine (``engine="symbolic"``) or the
    NumPy one (``"explicit"``).  ``specs`` picks SPECs by index (all by
    default); the report lists them in that order.  A failed symbolic
    ``AG p`` or ``p -> AX q`` carries a decoded counterexample.
    ``progress`` (a :class:`~repro.obs.progress.ProgressConfig`)
    publishes each SPEC's lifecycle events; ``tracer`` records the
    ``smv.check_model`` span tree (default: the process-wide
    :data:`~repro.obs.tracer.TRACER`).  Returns the report and the
    compiled symbolic system (``None`` for the explicit engine).
    """
    if tracer is None:
        tracer = TRACER
    indices = range(len(model.specs)) if specs is None else specs
    restriction = model.restriction
    report = SmvReport(
        module_name=model.name,
        num_fairness=len([f for f in restriction.fairness if f != TRUE]),
        engine=engine,
    )
    sym = None
    with tracer.span(
        "smv.check_model", category="smv", module=model.name
    ) as root:
        if engine == "explicit":
            from repro.checking.explicit import ExplicitChecker
            from repro.smv.compile_explicit import to_system

            checker = ExplicitChecker(to_system(model, reflexive=reflexive))
        else:
            from repro.smv.compile_symbolic import to_symbolic

            with tracer.span("smv.compile_symbolic", category="smv"):
                sym = to_symbolic(model, reflexive=reflexive)
            checker = SymbolicChecker(sym)
        for i in indices:
            spec = model.specs[i]
            if progress is None:
                result = checker.holds(spec, restriction)
            else:
                result = _checked_with_progress(
                    checker, spec, restriction, progress, i
                )
            report.spec_texts.append(spec_to_str(model.module.specs[i]))
            report.results.append(result)
            trace = None
            if sym is not None and not result.holds and result.failing_states:
                with tracer.span("smv.counterexample", category="smv"):
                    trace = _counterexample_trace(model, sym, spec, result)
            report.counterexamples.append(trace)
        report.user_time = root.elapsed()
    if sym is None:
        merged = report.check_stats
        report.bdd_nodes_allocated = merged.bdd_nodes_allocated
        report.transition_nodes = merged.transition_nodes
    else:
        report.bdd_nodes_allocated = sym.bdd.nodes_allocated
        report.transition_nodes = sym.node_count()
    return report, sym


def check_source(source: str, **kwargs) -> SmvReport:
    """Parse, elaborate and check SMV source text; return the report.

    >>> report = check_source('''
    ... MODULE main
    ... VAR x : boolean;
    ... ASSIGN next(x) := 1;
    ... SPEC x -> AX x
    ... ''')
    >>> report.all_true
    True
    """
    report, _ = check_model(load_model(source), **kwargs)
    return report


def load_model(source: str, tracer=None) -> SmvModel:
    """Parse and elaborate SMV source text.

    Multi-module programs are flattened into ``main`` first (synchronous
    instantiation semantics, see :mod:`repro.smv.modules`).  ``tracer``
    records the ``smv.parse`` and ``smv.elaborate`` spans (default: the
    process-wide :data:`~repro.obs.tracer.TRACER`).
    """
    from repro.smv.modules import flatten
    from repro.smv.parser import parse_program

    if tracer is None:
        tracer = TRACER
    with tracer.span("smv.parse", category="smv"):
        program = parse_program(source)
    with tracer.span("smv.elaborate", category="smv"):
        if list(program) == ["main"] and not any(
            decl.is_instance for decl in program["main"].variables
        ):
            return SmvModel(program["main"])
        return SmvModel(flatten(program))
