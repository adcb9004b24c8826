"""``proof-edit``: in-process closed loop of incremental AFS-2 proofs.

Each op is the AFS-2 n=3 ``prove_safety`` (4 obligations: the server
and one per client) over one persistent ``ResultStore``.  Ops come in
stratified blocks (``MIX``) of two kinds:

* ``unchanged``: the original composition; all 4 obligations replay;
* ``edit``: one seeded client gets a never-repeated neutral edit
  (:class:`catalog.ClientEdits`); exactly that obligation is re-parsed,
  re-compiled and re-checked, the other 3 replay.

``verdict_p50_ms`` falls inside the unchanged class and
``verdict_p90_ms`` inside the edit class.  No ``gc.collect()`` runs
between ops: on these short ops it widened the spread of the edit
medians (14.2-18.9 ms against 13.9-14.6 ms without it) instead of
steadying them.  Ops are timed in thread CPU time, with a calibration
sample just before and just after each (``common.py``).

The traced run alternates untraced and traced blocks.  A traced op
times the store through a timing subclass, reads the checker's and the
image step's own spans through ``repro.obs.tracing()``, and, on an
edit, parses, elaborates and compiles the edited client in separate
benchmark spans before handing the prepared component to the proof.
"""

from __future__ import annotations

import os
import random
from contextlib import ExitStack

from catalog import ClientEdits, stratified
from common import (
    SpanLog, calibrate, clock, cpu_clock, median, peak_rss_mb, ratio,
    scratch_dir, span_ms,
)
from layers import empty_layers, program_span_totals, timing_store_class

N = 3
OBLIGATIONS = N + 1
MIX = {"unchanged": 8, "edit": 2}
BLOCK = sum(MIX.values())


class ProofEdit:
    name = "proof-edit"

    def __init__(self, seed: int, trace: bool):
        self.rng = random.Random(seed)
        self.trace = trace

    def setup(self) -> None:
        from repro.casestudies.afs2 import Afs2
        from repro.casestudies.afs_common import ProtocolComponent

        self.Afs2 = Afs2
        self.Component = ProtocolComponent
        self.stack = ExitStack()
        root = self.stack.enter_context(scratch_dir("proof"))
        self.store = timing_store_class()(root / "store")
        self.edits = ClientEdits(self.rng, N)
        # a cold proof fills the store; warm-up runs each kind twice
        ledger, proven = self._prove(None)
        if proven.formula is None or ledger["misses"] != OBLIGATIONS:
            raise RuntimeError(f"cold proof: unexpected ledger {ledger}")
        for _ in range(2):
            client = self.rng.randint(1, N)
            for edit in (None, (client, self.edits.edit(client))):
                ledger, proven = self._prove(edit)
                if not _ledger_ok(ledger, proven, edit):
                    raise RuntimeError(f"warm-up: unexpected ledger {ledger}")

    def teardown(self) -> None:
        self.stack.close()

    def _prove(self, edit, component=None):
        study = self.Afs2(N, store=self.store)
        if edit is not None:
            client, source = edit
            study.clients[client - 1] = component or self.Component(
                f"client{client}", source
            )
        pf, proven = study.prove_safety()
        return pf.cache_ledger(), proven

    # ------------------------------------------------------------------
    def run(self, seconds: float, log: SpanLog) -> dict:
        ops: list[dict] = []
        rows: list[dict] = []
        kinds = stratified(self.rng, MIX)
        deadline = clock() + seconds
        index = 0
        while clock() < deadline or index % BLOCK:
            kind = next(kinds)
            edit = None
            if kind == "edit":
                client = self.rng.randint(1, N)
                edit = (client, self.edits.edit(client))
            traced = self.trace and (index // BLOCK) % 2 == 1
            cal_before = calibrate()
            if traced:
                ms, ok, row = self._traced_op(index, kind, edit, log)
                rows.append(row)
            else:
                started = cpu_clock()
                ledger, proven = self._prove(edit)
                ms = (cpu_clock() - started) * 1e3
                ok = _ledger_ok(ledger, proven, edit)
            cal_ms = (cal_before + calibrate()) / 2
            ops.append(
                {
                    "cls": kind,
                    "kind": "cold" if kind == "edit" else "replay",
                    "ms": ms,
                    "ok": ok,
                    "traced": traced,
                    "cal_ms": cal_ms,
                }
            )
            index += 1
        return {
            "ops": ops,
            "side_ops": [],
            "open_loop": False,
            "rss_mb": peak_rss_mb([os.getpid()]),
            "layers": self._layers(rows) if self.trace else None,
            "record": {
                "mix_per_block": MIX,
                "n": N,
                "gc": "none between ops",
                "store_records_at_end": len(self.store),
            },
        }

    def _traced_op(self, index, kind, edit, log):
        from repro.obs import tracing
        from repro.smv import SmvModel, parse_module

        row: dict = {"kind": kind}
        tally = self.store.reset_timing()
        self.store.timing = True
        with tracing() as tracer:
            started = cpu_clock()
            with log.span("op", index, cls=kind):
                component = None
                if edit is not None:
                    client, source = edit
                    with log.span("smv.parse", index) as parse:
                        module = parse_module(source)
                    with log.span("smv.elaborate", index) as elaborate:
                        model = SmvModel(module)
                    component = self.Component(
                        f"client{client}", source, model
                    )
                    with log.span("smv.compile", index) as compile_:
                        sym = component.symbolic()
                    row["parse"] = span_ms(parse)
                    row["elaborate"] = span_ms(elaborate)
                    row["compile"] = span_ms(compile_)
                    row["transition_nodes"] = sym.node_count()
                with log.span("compositional.prove", index) as prove:
                    ledger, proven = self._prove(edit, component)
            elapsed = cpu_clock() - started
            spans = program_span_totals(tracer)
        self.store.timing = False
        ok = _ledger_ok(ledger, proven, edit)
        row.update(tally)
        row.update(spans)
        row["obligations"] = len(ledger["obligations"])
        row["rechecked"] = ledger["misses"]
        row["self_ms"] = span_ms(prove) - (
            tally["get_s"] + tally["put_s"] + spans["holds_s"]
        ) * 1e3
        return elapsed * 1e3, ok, row

    @staticmethod
    def _layers(rows: list[dict]) -> dict:
        layers = empty_layers()
        edits = [r for r in rows if r["kind"] == "edit"]
        if not rows:
            return layers

        def med(key, subset=rows):
            return median(r[key] for r in subset) if subset else 0.0

        layers.update(
            {
                "smv.parse_ms": med("parse", edits),
                "smv.elaborate_ms": med("elaborate", edits),
                "smv.compile_ms": med("compile", edits),
                "smv.transition_nodes": med("transition_nodes", edits),
                "checking.holds_ms": med("holds_s", edits) * 1e3,
                "checking.fixpoint_iterations": med(
                    "fixpoint_iterations", edits
                ),
                "bdd.image_ms": med("image_s", edits) * 1e3,
                "bdd.image_calls": med("image_calls", edits),
                "bdd.mk_calls": med("mk_calls", edits),
                "bdd.cache_hit_ratio": ratio(
                    sum(r["cache_hits"] for r in edits),
                    sum(r["cache_lookups"] for r in edits),
                ),
                "compositional.obligations": med("obligations"),
                # re-checked obligations per edit op (0 per unchanged op
                # is asserted op by op)
                "compositional.rechecked": ratio(
                    sum(r["rechecked"] for r in edits), len(edits)
                ),
                "compositional.self_ms": med("self_ms"),
                "store.get_ms": med("get_s") * 1e3,
                "store.put_ms": med("put_s", edits) * 1e3,
                "store.gets": med("gets"),
                "store.puts": med("puts", edits),
                "store.hit_ratio": ratio(
                    sum(r["hits"] for r in rows), sum(r["gets"] for r in rows)
                ),
            }
        )
        return layers


def _ledger_ok(ledger, proven, edit) -> bool:
    """The hand-written answer: the (Afs1) conclusion is proven, every
    obligation holds, and only the edited client's obligation missed."""
    if proven.formula is None or ledger is None:
        return False
    entries = ledger["obligations"]
    if len(entries) != OBLIGATIONS or not all(e["holds"] for e in entries):
        return False
    missed = [e["component"] for e in entries if not e["cached"]]
    if edit is None:
        return missed == []
    return missed == [f"client{edit[0]}"]

