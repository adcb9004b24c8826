"""Per-layer metrics: their names, units, and the probes that feed them.

A layer is a module of the program.  Each number is measured from
outside the program: by the benchmark's spans around a public call, by a
timing subclass of :class:`repro.store.ResultStore`, by the job
documents and ``/metrics`` of the served endpoints, or, in the traced
run only, by reading the spans the program already emits through
:func:`repro.obs.tracing`.  A layer a workload does not pass through
reads 0 on that workload.
"""

from __future__ import annotations

from common import clock

#: name -> unit, in the order ``BENCHMARK.json`` lists them.
PER_LAYER = {
    "smv.parse_ms": "ms",
    "smv.elaborate_ms": "ms",
    "smv.compile_ms": "ms",
    "smv.transition_nodes": "count",
    "checking.holds_ms": "ms",
    "checking.fixpoint_iterations": "count",
    "bdd.image_ms": "ms",
    "bdd.image_calls": "count",
    "bdd.mk_calls": "count",
    "bdd.cache_hit_ratio": "ratio",
    "bdd.peak_unique_nodes": "count",
    "compositional.obligations": "count",
    "compositional.rechecked": "count",
    "compositional.self_ms": "ms",
    "store.fingerprint_ms": "ms",
    "store.get_ms": "ms",
    "store.put_ms": "ms",
    "store.gets": "count",
    "store.puts": "count",
    "store.hit_ratio": "ratio",
    "parallel.overhead_ms": "ms",
    "parallel.items": "count",
    "serve.submit_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.probe_ms": "ms",
    "serve.check_ms": "ms",
    "serve.serialize_ms": "ms",
    "serve.polls": "count",
    "serve.rejected": "count",
    "cluster.route_ms": "ms",
    "cluster.shard_skew_ratio": "ratio",
    "cluster.peer_fetch_hits": "count",
    "cluster.peer_fetch_ratio": "ratio",
    "loadgen.late_p90_ms": "ms",
    "obs.trace_overhead_ratio": "ratio",
}

IMAGE_SPANS = ("image.pre", "image.post")


def empty_layers() -> dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


def program_span_totals(tracer) -> dict[str, float]:
    """Totals over the spans the program recorded into ``tracer``:
    image-step self time and calls, and the per-check counters the
    symbolic checker stamps on its ``check.symbolic`` spans."""
    totals = {
        "image_s": 0.0,
        "image_calls": 0,
        "holds_s": 0.0,
        "holds_calls": 0,
        "fixpoint_iterations": 0.0,
        "mk_calls": 0.0,
        "cache_lookups": 0.0,
        "cache_hits": 0.0,
    }
    for span in tracer.spans():
        if span.name in IMAGE_SPANS:
            totals["image_s"] += span.exclusive
            totals["image_calls"] += 1
        elif span.name == "check.symbolic":
            totals["holds_s"] += span.duration
            totals["holds_calls"] += 1
            totals["fixpoint_iterations"] += span.counters.get(
                "fixpoint_iterations", 0.0
            )
            totals["mk_calls"] += span.counters.get("bdd.mk_calls", 0.0)
            totals["cache_lookups"] += span.counters.get(
                "bdd.cache_lookups", 0.0
            )
            totals["cache_hits"] += span.counters.get("bdd.cache_hits", 0.0)
    return totals


def timing_store_class():
    """A :class:`~repro.store.ResultStore` that times its own calls."""
    from repro.store import ResultStore

    class TimingStore(ResultStore):
        """Counts and times ``get``/``put`` while ``timing`` is on."""

        timing = False

        def reset_timing(self) -> dict:
            self.tally = {
                "get_s": 0.0, "gets": 0, "hits": 0, "put_s": 0.0, "puts": 0
            }
            return self.tally

        def get(self, fingerprint, kind=None):
            if not self.timing:
                return super().get(fingerprint, kind)
            started = clock()
            record = super().get(fingerprint, kind)
            self.tally["get_s"] += clock() - started
            self.tally["gets"] += 1
            self.tally["hits"] += record is not None
            return record

        def put(self, fingerprint, record, kind=None):
            if not self.timing:
                return super().put(fingerprint, record, kind)
            started = clock()
            path = super().put(fingerprint, record, kind)
            self.tally["put_s"] += clock() - started
            self.tally["puts"] += 1
            return path

    return TimingStore
