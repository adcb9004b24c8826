"""Operation-level performance counters for the BDD engine.

Classic BDD packages (CUDD, BuDDy) expose per-operation computed-table
statistics so regressions in memoization behavior are visible without a
profiler.  This module provides the same instrumentation for
:class:`repro.bdd.manager.BDD`: one :class:`OpCounter` per memo table
(``ite``, ``and``, ``or``, ``xor``, ``neg``, ``quant``, ``and_exists``,
``rename``), plus ``_mk`` call counts and the peak unique-table size.

The counters are cumulative over the manager's lifetime; use
:meth:`BDDStats.snapshot` before a run and :meth:`BDDStats.delta`
afterwards to attribute costs to one model-checking call (this is how
:class:`repro.checking.result.CheckStats` fills its cache fields).

``BDD.stats`` exposes these engine-level counters; ``CheckResult.stats``
carries per-check resource usage, including the engine counters
accumulated during that check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Memo tables instrumented by the manager, in reporting order.
OP_NAMES = ("ite", "and", "or", "xor", "neg", "quant", "and_exists", "rename")


@dataclass
class OpCounter:
    """Lookups, hits and inserts of one memoization (computed) table.

    ``lookups`` counts every cache probe, ``hits`` the probes that found a
    result, and ``inserts`` the entries written (the negation table writes
    two entries per miss — the involution is stored in both directions).
    ``hit_rate`` is ``hits / lookups`` (0.0 when the table was never
    probed).
    """

    lookups: int = 0
    hits: int = 0
    inserts: int = 0

    @property
    def misses(self) -> int:
        return self.lookups - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, int | float]:
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "inserts": self.inserts,
            "hit_rate": self.hit_rate,
        }


def _fresh_ops() -> dict[str, OpCounter]:
    return {name: OpCounter() for name in OP_NAMES}


@dataclass
class BDDStats:
    """Aggregate engine counters: per-op cache behavior plus node traffic.

    ``mk_calls`` counts every find-or-create request for an internal node
    (the unique-table probes); ``peak_unique_nodes`` is the largest size
    the unique table ever reached.  ``ops`` maps each memo-table name in
    :data:`OP_NAMES` to its :class:`OpCounter`.  ``hit_rate`` aggregates
    hits/lookups across every table.
    """

    mk_calls: int = 0
    peak_unique_nodes: int = 0
    ops: dict[str, OpCounter] = field(default_factory=_fresh_ops)

    @property
    def cache_lookups(self) -> int:
        return sum(c.lookups for c in self.ops.values())

    @property
    def cache_hits(self) -> int:
        return sum(c.hits for c in self.ops.values())

    @property
    def cache_inserts(self) -> int:
        return sum(c.inserts for c in self.ops.values())

    @property
    def hit_rate(self) -> float:
        lookups = self.cache_lookups
        return self.cache_hits / lookups if lookups else 0.0

    def snapshot(self) -> "BDDStats":
        """An independent copy of the current counters."""
        return BDDStats(
            mk_calls=self.mk_calls,
            peak_unique_nodes=self.peak_unique_nodes,
            ops={
                name: OpCounter(c.lookups, c.hits, c.inserts)
                for name, c in self.ops.items()
            },
        )

    def delta(self, since: "BDDStats") -> "BDDStats":
        """Counters accumulated after ``since`` (a previous snapshot).

        ``peak_unique_nodes`` is not differenced — the peak observed so
        far is carried through, as a table never shrinks mid-run.
        """
        return BDDStats(
            mk_calls=self.mk_calls - since.mk_calls,
            peak_unique_nodes=self.peak_unique_nodes,
            ops={
                name: OpCounter(
                    c.lookups - since.ops[name].lookups,
                    c.hits - since.ops[name].hits,
                    c.inserts - since.ops[name].inserts,
                )
                for name, c in self.ops.items()
            },
        )

    def as_dict(self) -> dict:
        return {
            "mk_calls": self.mk_calls,
            "peak_unique_nodes": self.peak_unique_nodes,
            "cache_lookups": self.cache_lookups,
            "cache_hits": self.cache_hits,
            "cache_inserts": self.cache_inserts,
            "hit_rate": self.hit_rate,
            "ops": {name: c.as_dict() for name, c in self.ops.items()},
        }

    def format(self) -> str:
        """Multi-line human-readable counter dump (one line per table)."""
        lines = [
            f"mk calls: {self.mk_calls}, "
            f"peak unique table: {self.peak_unique_nodes} nodes",
            f"computed tables: {self.cache_lookups} lookups, "
            f"{self.hit_rate:.1%} hits",
        ]
        for name in OP_NAMES:
            c = self.ops[name]
            if c.lookups or c.inserts:
                lines.append(
                    f"  {name}: {c.lookups} lookups, {c.hits} hits "
                    f"({c.hit_rate:.1%}), {c.inserts} inserts"
                )
        return "\n".join(lines)
