"""Metrics aggregation over span trees and engine counter deltas.

A :class:`MetricsRegistry` is a flat name → value accumulator with two
structured feeders: :meth:`MetricsRegistry.record_check_stats` folds a
:class:`repro.checking.result.CheckStats` in under a prefix, and
:meth:`MetricsRegistry.record_bdd_delta` does the same for a
:class:`repro.bdd.stats.BDDStats` delta (both are duck-typed so this
module stays dependency-free).  :meth:`MetricsRegistry.collect` walks a
tracer's span trees and aggregates every span's counters and durations
grouped by span name — the bridge between the tracing side (where
counters are *attached per span*) and reporting (where one table per
run is wanted).

Peaks (``peak_unique_nodes``, ``bdd_nodes_allocated``) are kept as
maxima; everything else is summed.  The same rule governs
:meth:`MetricsRegistry.merge`, which folds one registry into another —
the path worker registries take into the parent's, where summing a
per-worker peak would fabricate a memory high-water mark no process
ever reached.

Besides scalar counters a registry holds named
:class:`~repro.obs.hist.Histogram` latency distributions
(:meth:`MetricsRegistry.observe` / :meth:`MetricsRegistry.histogram`);
:func:`repro.obs.export.to_prometheus_text` renders them as
``_bucket``/``_sum``/``_count`` series.  :meth:`MetricsRegistry.to_dict`
and :meth:`MetricsRegistry.from_dict` carry a whole registry across a
process boundary as JSON (a serve member's ``GET /v1/metrics``, which
the cluster router folds with :meth:`MetricsRegistry.merge`).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.obs.hist import DEFAULT_BUCKETS, Histogram

__all__ = ["MetricsRegistry"]

#: Counter names aggregated with ``max`` instead of ``+`` — cumulative
#: manager-level quantities where summing per-span values double-counts.
_PEAK_SUFFIXES = ("peak_unique_nodes", "nodes_allocated", "transition_nodes")


def _is_peak(name: str) -> bool:
    return name.endswith(_PEAK_SUFFIXES)


class MetricsRegistry:
    """Named numeric metrics with sum/max aggregation semantics.

    >>> reg = MetricsRegistry()
    >>> reg.add("check.fixpoint_iterations", 3)
    >>> reg.add("check.fixpoint_iterations", 4)
    >>> reg.get("check.fixpoint_iterations")
    7.0
    """

    def __init__(self) -> None:
        self._values: dict[str, float] = {}
        self._hists: dict[str, Histogram] = {}

    # -- primitive accumulation -----------------------------------------
    def add(self, name: str, value: float = 1.0) -> None:
        """Accumulate ``value`` into ``name`` (max for peak metrics)."""
        if _is_peak(name):
            self._values[name] = max(self._values.get(name, 0.0), float(value))
        else:
            self._values[name] = self._values.get(name, 0.0) + float(value)

    def get(self, name: str, default: float = 0.0) -> float:
        return self._values.get(name, default)

    def __len__(self) -> int:
        return len(self._values)

    # -- histograms ------------------------------------------------------
    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        """The named histogram, created with ``bounds`` on first use."""
        hist = self._hists.get(name)
        if hist is None:
            hist = self._hists[name] = Histogram(bounds=bounds)
        return hist

    def observe(
        self,
        name: str,
        value: float,
        bounds: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        """Record one observation into the named histogram."""
        self.histogram(name, bounds=bounds).observe(value)

    @property
    def histograms(self) -> dict[str, Histogram]:
        """Snapshot of the named histograms, sorted by name."""
        return dict(sorted(self._hists.items()))

    # -- registry merging ------------------------------------------------
    def merge(
        self, other: "MetricsRegistry", conflicts: list[str] | None = None
    ) -> "MetricsRegistry":
        """Fold another registry in; returns ``self``.

        Scalars go through :meth:`add`, so peak metrics aggregate as
        ``max`` across registries (a per-worker high-water mark summed
        over workers would be meaningless) while everything else sums.
        Histograms merge bucket-by-bucket; a histogram that exists on
        both sides with *different* bucket bounds raises ``ValueError``
        naming the metric — mis-summing across mismatched buckets
        would silently corrupt every federated latency series built on
        top of this merge.  With a ``conflicts`` list such a histogram
        is left out instead and its name appended (the cluster
        federation drops the one family, not the whole member).
        """
        for name, value in other._values.items():
            self.add(name, value)
        for name, hist in other._hists.items():
            try:
                self.histogram(name, bounds=hist.bounds).merge(hist)
            except ValueError as exc:
                if conflicts is None:
                    raise ValueError(f"metric {name!r}: {exc}") from None
                conflicts.append(name)
        return self

    # -- structured feeders ---------------------------------------------
    def record_check_stats(self, stats, prefix: str = "check") -> None:
        """Fold a ``CheckStats``-shaped object in under ``prefix``.

        Reads the public counter fields by name (duck-typed), so any
        object with the same attributes works.
        """
        for field in (
            "user_time",
            "fixpoint_iterations",
            "subformulas_evaluated",
            "bdd_nodes_allocated",
            "transition_nodes",
            "bdd_cache_lookups",
            "bdd_cache_hits",
            "bdd_mk_calls",
            "bdd_peak_unique_nodes",
        ):
            value = getattr(stats, field, 0)
            if value:
                self.add(f"{prefix}.{field}", value)

    def record_bdd_delta(self, delta, prefix: str = "bdd") -> None:
        """Fold a ``BDDStats`` delta in under ``prefix`` (per-op too).

        Accepts the live dataclass or its plain-dict serialization (the
        shape worker processes ship across the pool boundary:
        ``{"mk_calls": ..., "peak_unique_nodes": ..., "ops": {name:
        {"lookups": ..., "hits": ..., "inserts": ...}}}``).
        """
        if isinstance(delta, dict):
            self.add(f"{prefix}.mk_calls", delta.get("mk_calls", 0))
            self.add(
                f"{prefix}.peak_unique_nodes",
                delta.get("peak_unique_nodes", 0),
            )
            for op_name, counter in delta.get("ops", {}).items():
                if counter.get("lookups") or counter.get("inserts"):
                    self.add(f"{prefix}.{op_name}.lookups", counter["lookups"])
                    self.add(f"{prefix}.{op_name}.hits", counter["hits"])
                    self.add(f"{prefix}.{op_name}.inserts", counter["inserts"])
            return
        self.add(f"{prefix}.mk_calls", getattr(delta, "mk_calls", 0))
        self.add(
            f"{prefix}.peak_unique_nodes",
            getattr(delta, "peak_unique_nodes", 0),
        )
        for op_name, counter in getattr(delta, "ops", {}).items():
            if counter.lookups or counter.inserts:
                self.add(f"{prefix}.{op_name}.lookups", counter.lookups)
                self.add(f"{prefix}.{op_name}.hits", counter.hits)
                self.add(f"{prefix}.{op_name}.inserts", counter.inserts)

    # -- span aggregation -----------------------------------------------
    def collect(self, spans: Iterable) -> "MetricsRegistry":
        """Aggregate spans (e.g. ``tracer.spans()``) into this registry.

        Per span name: ``<name>.calls``, ``<name>.seconds`` (inclusive)
        and ``<name>.self_seconds`` (exclusive), plus every attached
        span counter under ``<name>.<counter>``.  Returns ``self``.
        """
        for span in spans:
            self.add(f"{span.name}.calls", 1)
            self.add(f"{span.name}.seconds", span.duration)
            self.add(f"{span.name}.self_seconds", span.exclusive)
            for counter, value in span.counters.items():
                self.add(f"{span.name}.{counter}", value)
        return self

    # -- reporting ------------------------------------------------------
    def as_dict(self) -> dict[str, float]:
        """Snapshot of every metric, sorted by name."""
        return dict(sorted(self._values.items()))

    def to_dict(self) -> dict:
        """JSON-ready snapshot: ``{"values": {name: value}, "histograms":
        {name: Histogram.to_dict()}}`` — what ``GET /v1/metrics`` serves."""
        return {
            "values": self.as_dict(),
            "histograms": {
                name: hist.to_dict() for name, hist in self.histograms.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsRegistry":
        """The inverse of :meth:`to_dict`; raises ``TypeError``,
        ``ValueError`` or ``KeyError`` on a malformed document."""
        registry = cls()
        for name, value in data["values"].items():
            registry._values[str(name)] = float(value)
        for name, hist in data["histograms"].items():
            registry._hists[str(name)] = Histogram.from_dict(hist)
        return registry

    def format(self) -> str:
        """One ``name = value`` line per metric, sorted by name."""
        lines = []
        for name, value in sorted(self._values.items()):
            shown = f"{value:g}" if value != int(value) else f"{int(value)}"
            lines.append(f"{name} = {shown}")
        return "\n".join(lines)
