"""Scheduler behavior: ordering, stats merging, trace grafting."""

from dataclasses import replace

import pytest

from repro.casestudies.mutex import TokenRing
from repro.logic.parser import parse_ctl
from repro.obs.export import to_chrome_trace
from repro.obs.tracer import TRACER
from repro.parallel.pool import (
    ObligationScheduler,
    shared_scheduler,
    shutdown_shared,
)
from repro.parallel.workitem import ParallelError, WorkItem, spec_of_component


def _items(n=4):
    ring = TokenRing(2)
    return [
        WorkItem(
            system=spec_of_component(ring.process(i % 2)),
            formula=parse_ctl("EF tok" if i % 2 == 0 else "EF (! tok)"),
            engine="explicit",
            label=f"item{i}",
        )
        for i in range(n)
    ]


@pytest.fixture
def scheduler():
    with ObligationScheduler(jobs=2) as sched:
        yield sched


class TestScheduling:
    def test_rejects_zero_workers(self):
        with pytest.raises(ParallelError):
            ObligationScheduler(jobs=0)

    def test_empty_batch(self, scheduler):
        assert scheduler.run([]) == []

    def test_outcomes_in_submission_order(self, scheduler):
        outcomes = scheduler.run(_items(6))
        assert [o.label for o in outcomes] == [f"item{i}" for i in range(6)]
        assert all(bool(o.result) for o in outcomes)

    def test_map_results(self, scheduler):
        results = scheduler.map_results(_items(2))
        assert len(results) == 2
        assert all(bool(r) for r in results)

    def test_work_distributed_to_worker_processes(self, scheduler):
        import os

        outcomes = scheduler.run(_items(8))
        pids = {o.pid for o in outcomes}
        assert os.getpid() not in pids
        assert len(pids) >= 1  # with 2 workers, usually 2

    def test_checker_cache_warms_up(self, scheduler):
        # same specs across rounds: eventually every worker has compiled
        # both specs and further rounds are all cache hits
        for _ in range(6):
            scheduler.run(_items(4))
        hits = scheduler.metrics.get("parallel.checker_cache_hits")
        assert hits > 0


class TestStatsMerging:
    def test_counts_items(self, scheduler):
        scheduler.run(_items(3))
        assert scheduler.metrics.get("parallel.items") == 3

    def test_check_stats_accumulate(self, scheduler):
        scheduler.run(_items(4))
        assert scheduler.metrics.get("parallel.check.subformulas_evaluated") > 0

    def test_bdd_delta_accumulates_for_symbolic(self):
        from repro.casestudies.afs1 import CLIENT

        item = WorkItem(
            system=spec_of_component(CLIENT.symbolic()),
            formula=parse_ctl("EF (r.0)"),
            engine="symbolic",
        )
        with ObligationScheduler(jobs=1) as sched:
            sched.run([item])
            assert sched.metrics.get("parallel.bdd.mk_calls") > 0


class TestTraceGrafting:
    @pytest.fixture(autouse=True)
    def _quiet_tracer(self):
        was = TRACER.enabled
        TRACER.enabled = False
        TRACER.reset()
        yield
        TRACER.enabled = was
        TRACER.reset()

    def test_no_spans_when_tracer_disabled(self, scheduler):
        outcomes = scheduler.run(_items(2))
        assert all(o.spans == [] for o in outcomes)
        assert list(TRACER.spans()) == []

    def test_worker_spans_grafted_under_parent(self, scheduler):
        TRACER.enabled = True
        with TRACER.span("proof"):
            scheduler.run(_items(2))
        TRACER.enabled = False
        spans = list(TRACER.spans())
        names = [s.name for s in spans]
        assert "parallel.batch" in names
        worker_spans = [s for s in spans if s.name == "worker.item"]
        assert len(worker_spans) == 2
        for span in worker_spans:
            assert span.attrs["pid"] != 0
        batch = next(s for s in spans if s.name == "parallel.batch")
        assert {s.name for s in batch.children} >= {"worker.item"}

    def test_chrome_trace_has_worker_process_tracks(self, scheduler):
        TRACER.enabled = True
        with TRACER.span("proof"):
            scheduler.run(_items(2))
        TRACER.enabled = False
        trace = to_chrome_trace(TRACER)
        meta = [
            e
            for e in trace["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "process_name"
        ]
        worker_names = {e["args"]["name"] for e in meta}
        assert any(n.startswith("repro worker ") for n in worker_names)

    def test_worker_span_times_fit_inside_batch(self, scheduler):
        TRACER.enabled = True
        with TRACER.span("proof"):
            scheduler.run(_items(2))
        TRACER.enabled = False
        spans = list(TRACER.spans())
        batch = next(s for s in spans if s.name == "parallel.batch")
        for span in spans:
            if span.name == "worker.item":
                # rebased clocks: worker activity lies within the batch
                # window (small scheduling slop allowed)
                assert span.start >= batch.start - 0.05
                assert span.end <= batch.end + 0.05


class TestSharedScheduler:
    def test_shared_identity_per_job_count(self):
        try:
            assert shared_scheduler(2) is shared_scheduler(2)
            assert shared_scheduler(2) is not shared_scheduler(3)
        finally:
            shutdown_shared()

    def test_shutdown_clears_registry(self):
        shared_scheduler(2)
        shutdown_shared()
        assert shared_scheduler(2).metrics.get("parallel.items") == 0
        shutdown_shared()


class TestWorkerHistory:
    """A pooled check reports what an in-process check reports, whatever
    the worker checked before."""

    @staticmethod
    def _stats(jobs):
        from repro.casestudies.afs2 import Afs2

        pf, _ = Afs2(2, jobs=jobs).prove_safety()
        return [
            dict(result.stats.to_dict(), user_time=0.0)
            for step in pf.log
            for leaf in step.leaves()
            for result in leaf.obligations
        ]

    def test_second_proof_on_shared_pool_reports_fresh_work(self):
        in_process = self._stats(None)
        first = self._stats(2)
        second = self._stats(2)  # same shared scheduler, warm workers
        assert first == in_process
        assert second == in_process
        assert all(stats["bdd_mk_calls"] > 0 for stats in second)

    def test_items_of_one_batch_share_the_memo(self):
        # one batch, one worker: the second item reuses the first one's
        # sub-formula memo exactly as one in-process checker would, and
        # the next batch starts afresh
        from repro.checking.explicit import ExplicitChecker

        ring = TokenRing(2)
        formulas = [parse_ctl("EF tok"), parse_ctl("AG EF tok")]
        items = [
            WorkItem(
                system=spec_of_component(ring.process(0)),
                formula=formula,
                engine="explicit",
            )
            for formula in formulas
        ]
        checker = ExplicitChecker(ring.process(0))
        local = [checker.holds(f).stats.subformulas_evaluated for f in formulas]
        with ObligationScheduler(jobs=1) as single:
            for _ in range(2):
                pooled = [
                    outcome.result.stats.subformulas_evaluated
                    for outcome in single.run(items)
                ]
                assert pooled == local


class TestProgressRouting:
    def test_run_returns_after_every_finish_is_routed(self, scheduler):
        """A listener unsubscribed as soon as ``run`` returns has seen
        each item's whole event stream, however slowly it consumes: a
        worker's heartbeats may trail its result, which otherwise drops
        them."""
        import threading
        import time

        seen: list[dict] = []
        lock = threading.Lock()

        def slow_listener(event):
            time.sleep(0.02)
            with lock:
                seen.append(event)

        items = [
            replace(item, progress_key="k", progress_obligation=f"o{i}")
            for i, item in enumerate(_items(4))
        ]
        scheduler.subscribe_progress("k", slow_listener)
        try:
            scheduler.run(items)
        finally:
            scheduler.unsubscribe_progress("k")
        with lock:
            finished = [e["obligation"] for e in seen
                        if e["kind"] == "obligation.finish"]
            kinds = [e["kind"] for e in seen if e["obligation"] == "o0"]
        assert sorted(finished) == ["o0", "o1", "o2", "o3"]
        assert kinds[0] == "obligation.start"
        assert kinds[-1] == "obligation.finish"
