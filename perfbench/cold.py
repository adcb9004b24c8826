"""``check-cold``: in-process closed loop of cold whole-module checks.

Each op is ``repro.store.cached_check(source, store=None)`` -- the
``repro check --json`` path -- on a catalog source made novel by a
seeded identifier prefix, so no cache can answer it.  Classes come in
stratified blocks (``MIX``): ``verdict_p50_ms`` falls inside the AFS-2
n=2 server class and ``verdict_p90_ms`` inside the n=3 class, the pair
on either side of the partitioned pre-image's break-even point.

After each op, outside its timing, the op's catalog entry is checked
once more by its original text through a store that already holds it:
a full replay, reported only as ``replay_p50_ms``.

Every timed call starts from the same heap state: ``gc.collect()`` runs
outside the timed region before it (measured: it turns the n=4 check's
bimodal times into one mode).  Ops are timed in thread CPU time, with a
calibration sample just before and just after each (``common.py``).

The traced run alternates untraced blocks with traced ones.  A traced op
runs the stages ``cached_check`` runs -- ``parse_program``,
``SmvModel``, ``to_symbolic``, the store fingerprints,
``SymbolicChecker.holds`` per spec --
one by one inside the benchmark's spans, with the program's own spans
collected through ``repro.obs.tracing()``.
"""

from __future__ import annotations

import gc
import os
import random
from contextlib import ExitStack

from catalog import Prefixes, catalog, renamed, stratified
from common import (
    SpanLog, calibrate, clock, cpu_clock, median, peak_rss_mb, ratio,
    scratch_dir, span_ms,
)
from layers import empty_layers, program_span_totals, timing_store_class

#: Ops per class in every block of 20.
MIX = {
    "figure1": 1,
    "afs2_client": 1,
    "afs2_client_false": 1,
    "afs1_client": 1,
    "afs1_server": 1,
    "afs2_server2": 9,
    "afs2_server3": 5,
    "afs2_server4": 1,
}
BLOCK = sum(MIX.values())
#: The engine options ``cached_check`` fingerprints by default.
OPTIONS = {"reflexive": False}


class ColdCheck:
    name = "check-cold"

    def __init__(self, seed: int, trace: bool):
        self.rng = random.Random(seed)
        self.trace = trace

    def setup(self) -> None:
        from repro.store import cached_check

        self.stack = ExitStack()
        root = self.stack.enter_context(scratch_dir("cold"))
        self.cached_check = cached_check
        self.catalog = catalog()
        self.prefixes = Prefixes(self.rng)
        self.store = timing_store_class()(root / "replay-store")
        for entry in self.catalog.values():
            run = cached_check(entry.source, store=self.store)
            _expect(run, entry)
            # warm-up: one novel check per class, plus its replay
            _expect(
                cached_check(
                    renamed(entry.source, self.prefixes.next()), store=None
                ),
                entry,
            )
            _expect(cached_check(entry.source, store=self.store), entry)
        gc.collect()

    def teardown(self) -> None:
        self.stack.close()

    # ------------------------------------------------------------------
    def run(self, seconds: float, log: SpanLog) -> dict:
        ops: list[dict] = []
        side: list[dict] = []
        traced_rows: list[dict] = []
        classes = stratified(self.rng, MIX)
        deadline = clock() + seconds
        index = 0
        while clock() < deadline or index % BLOCK:
            name = next(classes)
            entry = self.catalog[name]
            source = renamed(entry.source, self.prefixes.next())
            traced = self.trace and (index // BLOCK) % 2 == 1
            cal_before = calibrate()
            if traced:
                ms, ok, row = self._traced_op(index, entry, source, log)
                traced_rows.append(row)
            else:
                ms, ok = self._op(entry, source)
            cal_ms = (cal_before + calibrate()) / 2
            ops.append(
                {"cls": name, "kind": "cold", "ms": ms, "ok": ok,
                 "traced": traced, "cal_ms": cal_ms}
            )
            ms, ok, tally = self._replay(index, entry, traced, log)
            side.append(
                {"cls": name, "kind": "replay", "ms": ms, "ok": ok,
                 "traced": traced, "cal_ms": cal_ms}
            )
            if traced:
                row.update(tally)
            index += 1
        return {
            "ops": ops,
            "side_ops": side,
            "open_loop": False,
            "rss_mb": peak_rss_mb([os.getpid()]),
            "layers": self._layers(traced_rows) if self.trace else None,
            "record": {
                "mix_per_block": MIX,
                "gc": "collect before each op",
                # what the per-stage spans of one traced op add up to, for
                # comparison with the untraced ops' ``class_p50_ms``
                "traced_stage_sum_p50_ms": median(
                    row["parse"] + row["elaborate"] + row["compile"]
                    + row["holds_ms"]
                    for row in traced_rows
                ) if traced_rows else None,
            },
        }

    def _op(self, entry, source) -> tuple[float, bool]:
        gc.collect()
        started = cpu_clock()
        run = self.cached_check(source, store=None)
        elapsed = cpu_clock() - started
        return elapsed * 1e3, _verdicts(run.results) == entry.expected

    def _replay(self, index, entry, traced, log) -> tuple[float, bool, dict]:
        gc.collect()
        self.store.timing = traced
        tally = self.store.reset_timing()
        wall_started, started = clock(), cpu_clock()
        run = self.cached_check(entry.source, store=self.store)
        elapsed = cpu_clock() - started
        self.store.timing = False
        if traced:
            log.add("store.replay_check", index, wall_started, clock())
        ok = run.misses == 0 and _verdicts(run.results) == entry.expected
        return elapsed * 1e3, ok, tally

    def _traced_op(self, index, entry, source, log):
        from repro.checking import SymbolicChecker
        from repro.logic import TRUE, Restriction
        from repro.obs import tracing
        from repro.smv import SmvModel, parse_program, to_symbolic
        from repro.store import report_fingerprint, spec_fingerprint

        gc.collect()
        row: dict = {"cls": entry.name}
        with tracing() as tracer:
            started = cpu_clock()
            with log.span("op", index, cls=entry.name) as op_span:
                with log.span("smv.parse", index) as s:
                    program = parse_program(source)
                row["parse"] = s
                with log.span("smv.elaborate", index) as s:
                    model = SmvModel(program["main"])
                row["elaborate"] = s
                with log.span("smv.compile", index) as s:
                    sym = to_symbolic(model)
                row["compile"] = s
                restriction = Restriction(
                    init=model.initial_formula(),
                    fairness=tuple(model.fairness) or (TRUE,),
                )
                with log.span("store.fingerprint", index) as s:
                    for spec in model.specs:
                        spec_fingerprint(
                            model, spec, restriction, "symbolic", OPTIONS
                        )
                    report_fingerprint(model, restriction, "symbolic", OPTIONS)
                row["fingerprint"] = s
                checker = SymbolicChecker(sym)
                results = []
                holds_ms = 0.0
                for spec in model.specs:
                    with log.span("checking.holds", index) as s:
                        results.append(checker.holds(spec, restriction))
                    holds_ms += span_ms(s)
            elapsed = cpu_clock() - started
            program_spans = program_span_totals(tracer)
        for stage in ("parse", "elaborate", "compile", "fingerprint"):
            row[stage] = span_ms(row[stage])
        row["holds_ms"] = holds_ms
        row["transition_nodes"] = sym.node_count()
        row["fixpoint_iterations"] = sum(
            r.stats.fixpoint_iterations for r in results
        )
        row["mk_calls"] = sum(r.stats.bdd_mk_calls for r in results)
        row["cache_lookups"] = sum(r.stats.bdd_cache_lookups for r in results)
        row["cache_hits"] = sum(r.stats.bdd_cache_hits for r in results)
        row["peak_unique_nodes"] = max(
            (r.stats.bdd_peak_unique_nodes for r in results), default=0
        )
        row["image_ms"] = program_spans["image_s"] * 1e3
        row["image_calls"] = program_spans["image_calls"]
        op_span["transition_nodes"] = row["transition_nodes"]
        return elapsed * 1e3, _verdicts(results) == entry.expected, row

    @staticmethod
    def _layers(rows: list[dict]) -> dict:
        layers = empty_layers()
        if not rows:
            return layers

        def med(key):
            return median(row[key] for row in rows)

        layers.update(
            {
                "smv.parse_ms": med("parse"),
                "smv.elaborate_ms": med("elaborate"),
                "smv.compile_ms": med("compile"),
                "smv.transition_nodes": med("transition_nodes"),
                "checking.holds_ms": med("holds_ms"),
                "checking.fixpoint_iterations": med("fixpoint_iterations"),
                "bdd.image_ms": med("image_ms"),
                "bdd.image_calls": med("image_calls"),
                "bdd.mk_calls": med("mk_calls"),
                "bdd.cache_hit_ratio": ratio(
                    sum(r["cache_hits"] for r in rows),
                    sum(r["cache_lookups"] for r in rows),
                ),
                "bdd.peak_unique_nodes": med("peak_unique_nodes"),
                "store.fingerprint_ms": med("fingerprint"),
                "store.get_ms": median(r["get_s"] * 1e3 for r in rows),
                "store.gets": med("gets"),
                "store.hit_ratio": ratio(
                    sum(r["hits"] for r in rows), sum(r["gets"] for r in rows)
                ),
            }
        )
        return layers


def _verdicts(results) -> tuple[bool, ...]:
    return tuple(bool(r.holds) for r in results)


def _expect(run, entry) -> None:
    got = _verdicts(run.results)
    if got != entry.expected:
        raise RuntimeError(
            f"{entry.name}: verdicts {got}, expected {entry.expected}"
        )
