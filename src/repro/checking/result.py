"""Check results: verdicts, failing states, and resource statistics."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.logic.ctl import Formula
from repro.logic.restriction import Restriction


def verdict_line(text: str, holds: bool) -> str:
    """One SMV verdict line, ``text`` clipped to SMV's report width."""
    if len(text) > 46:
        text = text[:43] + "..."
    return f"-- spec. {text} is {'true' if holds else 'false'}"


@dataclass
class CheckStats:
    """Resource usage of one model-checking run.

    Mirrors the ``resources used:`` block SMV prints in the paper's output
    figures, extended with the engine's op-level counters.
    ``transition_nodes`` counts the relation the checker holds
    (:meth:`~repro.systems.symbolic.SymbolicSystem.node_count`): the
    sum of its partitions' node counts for a compiled system or a
    composite view, which never build the product, as NuSMV reports a
    partitioned relation.
    ``bdd_nodes_allocated`` and ``transition_nodes`` are zero for
    the explicit checker, as are the ``bdd_cache_*`` fields.
    ``bdd_cache_lookups`` / ``bdd_cache_hits`` count computed-table
    probes across every memoized BDD operation during this check;
    ``bdd_mk_calls`` counts unique-table find-or-create requests and
    ``bdd_peak_unique_nodes`` is the unique table's high-water mark.
    ``bdd_op_counters`` holds the per-operation breakdown (one
    lookups/hits/inserts dict per memo table, see
    :mod:`repro.bdd.stats`).
    """

    user_time: float = 0.0
    fixpoint_iterations: int = 0
    subformulas_evaluated: int = 0
    bdd_nodes_allocated: int = 0
    transition_nodes: int = 0
    bdd_cache_lookups: int = 0
    bdd_cache_hits: int = 0
    bdd_mk_calls: int = 0
    bdd_peak_unique_nodes: int = 0
    bdd_op_counters: dict = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of computed-table probes that hit (0.0 when unused)."""
        if not self.bdd_cache_lookups:
            return 0.0
        return self.bdd_cache_hits / self.bdd_cache_lookups

    def format(self) -> str:
        """Format as the paper's ``resources used:`` block."""
        lines = [
            "resources used:",
            f"user time: {self.user_time:g} s, system time: 0 s",
        ]
        if self.bdd_nodes_allocated:
            lines.append(f"BDD nodes allocated: {self.bdd_nodes_allocated}")
            lines.append(
                f"BDD nodes representing transition relation: "
                f"{self.transition_nodes} + {self.fixpoint_iterations}"
            )
        elif self.fixpoint_iterations or self.subformulas_evaluated:
            lines.append(
                f"fixpoint iterations: {self.fixpoint_iterations}, "
                f"subformulas evaluated: {self.subformulas_evaluated}"
            )
        if self.bdd_cache_lookups:
            lines.append(
                f"BDD cache: {self.bdd_cache_lookups} lookups, "
                f"{self.cache_hit_rate:.1%} hit rate"
            )
        if self.bdd_peak_unique_nodes:
            lines.append(
                f"BDD unique table: peak {self.bdd_peak_unique_nodes} nodes "
                f"({self.bdd_mk_calls} mk calls)"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-safe snapshot of every counter (see :meth:`from_dict`)."""
        return {
            "user_time": self.user_time,
            "fixpoint_iterations": self.fixpoint_iterations,
            "subformulas_evaluated": self.subformulas_evaluated,
            "bdd_nodes_allocated": self.bdd_nodes_allocated,
            "transition_nodes": self.transition_nodes,
            "bdd_cache_lookups": self.bdd_cache_lookups,
            "bdd_cache_hits": self.bdd_cache_hits,
            "bdd_mk_calls": self.bdd_mk_calls,
            "bdd_peak_unique_nodes": self.bdd_peak_unique_nodes,
            "bdd_op_counters": {
                name: dict(counter)
                for name, counter in self.bdd_op_counters.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CheckStats":
        """Rebuild stats from :meth:`to_dict` output (unknown keys ignored,
        missing keys default — records written by older stores still load)."""
        fields = {
            "user_time": float,
            "fixpoint_iterations": int,
            "subformulas_evaluated": int,
            "bdd_nodes_allocated": int,
            "transition_nodes": int,
            "bdd_cache_lookups": int,
            "bdd_cache_hits": int,
            "bdd_mk_calls": int,
            "bdd_peak_unique_nodes": int,
        }
        kwargs = {
            name: cast(data[name])
            for name, cast in fields.items()
            if name in data
        }
        kwargs["bdd_op_counters"] = {
            name: dict(counter)
            for name, counter in data.get("bdd_op_counters", {}).items()
        }
        return cls(**kwargs)

    @classmethod
    def merged(cls, stats: Iterable["CheckStats"]) -> "CheckStats":
        """Aggregate several per-spec stats into one resources block.

        Additive fields are summed; allocation totals and peaks (which are
        cumulative manager-level numbers) take the maximum.
        """
        out = cls()
        for s in stats:
            out.user_time += s.user_time
            out.fixpoint_iterations += s.fixpoint_iterations
            out.subformulas_evaluated = max(
                out.subformulas_evaluated, s.subformulas_evaluated
            )
            out.bdd_nodes_allocated = max(
                out.bdd_nodes_allocated, s.bdd_nodes_allocated
            )
            out.transition_nodes = max(out.transition_nodes, s.transition_nodes)
            out.bdd_cache_lookups += s.bdd_cache_lookups
            out.bdd_cache_hits += s.bdd_cache_hits
            out.bdd_mk_calls += s.bdd_mk_calls
            out.bdd_peak_unique_nodes = max(
                out.bdd_peak_unique_nodes, s.bdd_peak_unique_nodes
            )
        return out


def bound_text(formula: Formula, restriction: Restriction) -> dict:
    """The text a stored verdict is bound to.

    ``formula`` and ``restriction`` rendered exactly as
    :meth:`CheckResult.to_dict` writes them (``str()`` round-trips
    through :func:`repro.logic.parser.parse_ctl`).  Fingerprints hash
    the same text, so a caller renders it once and hands it to both.
    """
    return {
        "formula": str(formula),
        "restriction": {
            "init": str(restriction.init),
            "fairness": [str(f) for f in restriction.fairness],
        },
    }


@dataclass
class CheckResult:
    """Verdict of ``M ⊨_r f``.

    Truthy exactly when the property holds, so results can be asserted
    directly: ``assert checker.holds(f, r)``.
    """

    formula: Formula
    restriction: Restriction
    holds: bool
    #: Up to ``max_reported`` states satisfying ``I ∧ ¬f`` when the check fails.
    failing_states: tuple[frozenset, ...] = ()
    #: Total number of failing states (may exceed ``len(failing_states)``).
    num_failing: int = 0
    stats: CheckStats = field(default_factory=CheckStats)

    def __bool__(self) -> bool:
        return self.holds

    def to_dict(self) -> dict:
        """JSON-safe form of the verdict (see :meth:`from_dict` and
        :meth:`replayed`).

        Formula and restriction serialize as :func:`bound_text`;
        failing states become sorted atom lists.
        """
        return {
            **bound_text(self.formula, self.restriction),
            "holds": self.holds,
            "failing_states": [sorted(s) for s in self.failing_states],
            "num_failing": self.num_failing,
            "stats": self.stats.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CheckResult":
        """Rebuild a verdict from :meth:`to_dict` output, parsing its
        formula and restriction back from their text."""
        from repro.logic.parser import parse_ctl

        restriction = Restriction(
            init=parse_ctl(data["restriction"]["init"]),
            fairness=tuple(
                parse_ctl(f) for f in data["restriction"]["fairness"]
            ),
        )
        return cls._around(data, parse_ctl(data["formula"]), restriction)

    @classmethod
    def replayed(
        cls,
        data: dict,
        formula: Formula,
        restriction: Restriction,
        text: dict | None = None,
    ) -> "CheckResult | None":
        """The stored verdict ``data`` as the answer to *this* check.

        A store record is only an answer to the check it was written
        for: its formula and restriction text must equal
        :func:`bound_text` of the objects in hand (pass ``text`` when the
        caller already rendered it, e.g. for the fingerprint).  On a
        match the verdict is rebuilt around ``formula`` and
        ``restriction`` themselves — nothing is re-parsed; on a mismatch
        the result is ``None`` and the caller treats the record as a
        miss.
        """
        if text is None:
            text = bound_text(formula, restriction)
        if (
            data.get("formula") != text["formula"]
            or data.get("restriction") != text["restriction"]
        ):
            return None
        return cls._around(data, formula, restriction)

    @classmethod
    def _around(
        cls, data: dict, formula: Formula, restriction: Restriction
    ) -> "CheckResult":
        return cls(
            formula=formula,
            restriction=restriction,
            holds=bool(data["holds"]),
            failing_states=tuple(
                frozenset(s) for s in data.get("failing_states", [])
            ),
            num_failing=int(data.get("num_failing", 0)),
            stats=CheckStats.from_dict(data.get("stats", {})),
        )

    def format(self) -> str:
        """One verdict line in SMV's output style."""
        return verdict_line(str(self.formula), self.holds)

    def explain(self) -> str:
        """Multi-line human-readable account of the verdict."""
        lines = [self.format()]
        if not self.holds:
            lines.append(f"   {self.num_failing} failing state(s); examples:")
            for s in self.failing_states:
                lines.append("   {" + ",".join(sorted(s)) + "}")
        return "\n".join(lines)
