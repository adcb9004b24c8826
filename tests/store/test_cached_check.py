"""cached_check: replay fidelity across engines and schedulers."""

import pytest

from repro.store import ResultStore
from repro.store.cached import cached_check

GOOD = """
MODULE main
VAR x : boolean;
ASSIGN next(x) := 1;
SPEC x -> AX x
SPEC AG EF x
"""

BAD = """
MODULE main
VAR x : boolean;
INIT x
ASSIGN next(x) := {0, 1};
SPEC AG x
"""


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path)


class TestColdWarm:
    def test_cold_run_populates(self, store):
        run = cached_check(GOOD, store=store)
        assert run.all_true
        assert run.cached_flags == [False, False]
        assert store.counters()["writes"] == 3  # 2 specs + report meta

    def test_warm_run_replays(self, store):
        cold = cached_check(GOOD, store=store)
        warm = cached_check(GOOD, store=store)
        assert warm.cached_flags == [True, True]
        assert [r.holds for r in warm.results] == [
            r.holds for r in cold.results
        ]

    def test_warm_report_is_byte_identical(self, store):
        cold = cached_check(GOOD, store=store)
        warm = cached_check(GOOD, store=store)
        assert warm.format(with_stats=True) == cold.format(
            with_stats=True
        )

    def test_no_store_still_works(self):
        run = cached_check(GOOD)
        assert run.all_true and run.hits == 0
        assert all(len(fp) == 64 for fp in run.fingerprints)

    def test_partial_hit(self, store):
        cached_check(GOOD, store=store)
        extended = GOOD + "SPEC EF x\n"
        run = cached_check(extended, store=store)
        # the two original specs replay; only the new one is computed
        assert run.cached_flags == [True, True, False]
        assert run.all_true


class TestCounterexamples:
    def test_failure_and_trace_replay(self, store):
        cold = cached_check(BAD, store=store)
        assert not cold.all_true
        assert cold.counterexamples[0]  # decoded trace present
        warm = cached_check(BAD, store=store)
        assert warm.cached_flags == [True]
        assert warm.counterexamples == cold.counterexamples
        assert warm.format() == cold.format()


class TestEngines:
    def test_explicit_engine_round_trip(self, store):
        cold = cached_check(GOOD, engine="explicit", store=store)
        warm = cached_check(GOOD, engine="explicit", store=store)
        assert cold.all_true and warm.cached_flags == [True, True]

    def test_engines_do_not_share_records(self, store):
        cached_check(GOOD, engine="symbolic", store=store)
        run = cached_check(GOOD, engine="explicit", store=store)
        assert run.cached_flags == [False, False]

    def test_reflexive_flag_discriminates(self, store):
        cached_check(GOOD, store=store)
        run = cached_check(GOOD, reflexive=True, store=store)
        assert run.cached_flags == [False, False]


class TestScheduled:
    def test_scheduler_path_matches_inprocess(self, tmp_path):
        from repro.parallel import shared_scheduler, shutdown_shared

        store_a = ResultStore(tmp_path / "a")
        store_b = ResultStore(tmp_path / "b")
        try:
            seq = cached_check(GOOD, store=store_a)
            par = cached_check(
                GOOD, store=store_b, scheduler=shared_scheduler(2)
            )
            assert [r.holds for r in par.results] == [
                r.holds for r in seq.results
            ]
            # and a warm replay of the parallel store matches it
            warm = cached_check(GOOD, store=store_b)
            assert warm.cached_flags == [True, True]
            assert warm.format() == par.format()
        finally:
            shutdown_shared()
