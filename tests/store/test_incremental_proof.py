"""Incremental compositional proofs: edit one component, recheck one.

The contract under test, per the acceptance criteria of the feature:

* a warm recheck replays every obligation from the store (sequentially
  and through the pool, where cached obligations are never submitted);
* editing one AFS-2 component invalidates exactly that component's
  obligations;
* replayed certificates are byte-identical to the run that wrote them,
  and identical to a cache-disabled run up to measured wall time —
  across both engines and ``jobs`` 1/2;
* failing obligations replay the same failure.
"""

import pytest

from repro.casestudies.afs2 import Afs2
from repro.compositional.proof import CompositionProof
from repro.errors import ProofError
from repro.logic.ctl import AX, Implies, atom
from repro.parallel.pool import shared_scheduler
from repro.store import ResultStore
from repro.systems.system import System

N = 3
COMPONENTS = ("server", "client1", "client2", "client3")


def _prove(store, jobs=None, backend="symbolic", variant=None, n=N):
    study = Afs2(
        n, backend=backend, jobs=jobs, store=store, variant_client=variant
    )
    pf, proven = study.prove_safety()
    assert proven.formula is not None
    return pf


def _results(pf):
    """Leaf obligation results, in discharge order."""
    return [o for s in pf.log for leaf in s.leaves() for o in leaf.obligations]


def _dicts(pf, keep_time=True):
    out = []
    for result in _results(pf):
        d = result.to_dict()
        if not keep_time:
            d["stats"] = dict(d["stats"], user_time=0.0)
        out.append(d)
    return out


def _ledger(pf):
    ledger = pf.cache_ledger()
    assert ledger is not None
    return ledger


class TestSequentialColdWarm:
    def test_cold_misses_then_warm_hits(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = _prove(store)
        ledger = _ledger(cold)
        assert ledger["hits"] == 0 and ledger["misses"] == len(COMPONENTS)
        assert sorted(e["component"] for e in ledger["obligations"]) == sorted(
            COMPONENTS
        )

        warm = _prove(store)
        ledger = _ledger(warm)
        assert ledger["misses"] == 0 and ledger["hits"] == len(COMPONENTS)
        # byte-identical to the run that populated the store — stats
        # included, since stored records replay verbatim
        assert _dicts(warm) == _dicts(cold)
        assert [r.explain() for r in _results(warm)] == [
            r.explain() for r in _results(cold)
        ]

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_warm_replay_equals_cold_objects(self, tmp_path, jobs):
        store = ResultStore(tmp_path)
        cold = _prove(store, jobs=jobs)
        warm = _prove(store, jobs=jobs)
        assert _ledger(warm)["hits"] == len(COMPONENTS)
        assert _results(warm) == _results(cold)
        assert warm.conclusions == cold.conclusions
        # a replay is rebuilt around the obligation's own formula and
        # restriction objects, not re-parsed from the record
        for step in warm.log:
            for leaf in step.leaves():
                for result in leaf.obligations:
                    assert result.formula is leaf.formula

    def test_warm_matches_cache_disabled_run(self, tmp_path):
        fresh = _prove(None)
        store = ResultStore(tmp_path)
        _prove(store)
        warm = _prove(store)
        # identical up to measured wall time (the one field that cannot
        # survive a re-measurement)
        assert _dicts(warm, keep_time=False) == _dicts(fresh, keep_time=False)
        assert [r.explain() for r in _results(warm)] == [
            r.explain() for r in _results(fresh)
        ]
        assert warm.summary() == fresh.summary()

    def test_proof_fingerprint_stable_across_replay(self, tmp_path):
        store = ResultStore(tmp_path)
        a = _ledger(_prove(store))["proof_fingerprint"]
        b = _ledger(_prove(store))["proof_fingerprint"]
        assert a == b


class TestEditRecheck:
    def test_edit_rechecks_only_edited_component(self, tmp_path):
        store = ResultStore(tmp_path)
        _prove(store)  # populate
        edited = _prove(store, variant=2)
        ledger = _ledger(edited)
        missed = [
            e["component"] for e in ledger["obligations"] if not e["cached"]
        ]
        assert missed == ["client2"]
        assert ledger["hits"] == len(COMPONENTS) - 1
        assert all(e["holds"] for e in ledger["obligations"])

    def test_edit_changes_proof_fingerprint(self, tmp_path):
        store = ResultStore(tmp_path)
        base = _ledger(_prove(store))["proof_fingerprint"]
        edited = _ledger(_prove(store, variant=2))["proof_fingerprint"]
        assert base != edited

    def test_edited_store_serves_both_versions(self, tmp_path):
        store = ResultStore(tmp_path)
        _prove(store)
        _prove(store, variant=2)
        # both compositions now replay fully
        assert _ledger(_prove(store))["misses"] == 0
        assert _ledger(_prove(store, variant=2))["misses"] == 0


class TestParallelDischarge:
    def test_scheduler_skips_cached_obligations(self, tmp_path):
        store = ResultStore(tmp_path)
        metrics = shared_scheduler(2).metrics

        before = metrics.get("parallel.items")
        _prove(store, jobs=2)
        assert metrics.get("parallel.items") == before + len(COMPONENTS)

        before = metrics.get("parallel.items")
        hits_before = metrics.get("parallel.store_hits")
        warm = _prove(store, jobs=2)
        # cached obligations never reach the pool
        assert metrics.get("parallel.items") == before
        assert metrics.get("parallel.store_hits") == hits_before + len(
            COMPONENTS
        )
        assert _ledger(warm)["hits"] == len(COMPONENTS)

    def test_edit_submits_only_edited_component(self, tmp_path):
        store = ResultStore(tmp_path)
        _prove(store, jobs=2)
        metrics = shared_scheduler(2).metrics
        before = metrics.get("parallel.items")
        edited = _prove(store, jobs=2, variant=2)
        assert metrics.get("parallel.items") == before + 1
        missed = [
            e["component"]
            for e in _ledger(edited)["obligations"]
            if not e["cached"]
        ]
        assert missed == ["client2"]

    def test_records_interoperate_across_jobs(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = _prove(store, jobs=2)  # pool-written records
        warm = _prove(store, jobs=None)  # sequential replay
        assert _ledger(warm)["hits"] == len(COMPONENTS)
        assert _dicts(warm) == _dicts(cold)

        other = ResultStore(store.root)
        warm2 = _prove(other, jobs=2)  # and back through the pool
        assert _ledger(warm2)["hits"] == len(COMPONENTS)


@pytest.mark.parametrize("backend", ["explicit", "symbolic"])
@pytest.mark.parametrize("jobs", [None, 2])
class TestByteIdentityMatrix:
    # n=2 keeps the product small enough for the explicit engine
    def test_certificates_match_cache_disabled_run(
        self, tmp_path, backend, jobs
    ):
        fresh = _prove(None, jobs=jobs, backend=backend, n=2)
        store = ResultStore(tmp_path)
        cold = _prove(store, jobs=jobs, backend=backend, n=2)
        warm = _prove(store, jobs=jobs, backend=backend, n=2)
        assert _ledger(warm)["hits"] == 3
        assert _dicts(warm) == _dicts(cold)
        assert _dicts(warm, keep_time=False) == _dicts(fresh, keep_time=False)
        assert [r.explain() for r in _results(warm)] == [
            r.explain() for r in _results(fresh)
        ]


class TestFailureReplay:
    def _components(self):
        holds = System({"p"}, [(frozenset({"p"}), frozenset({"p"}))])
        breaks = System({"p"}, [(frozenset({"p"}), frozenset())])
        return {"good": holds, "bad": breaks}

    def test_failing_obligation_replays_identically(self, tmp_path):
        store = ResultStore(tmp_path)
        p = atom("p")
        step = Implies(p, AX(p))

        pf = CompositionProof(self._components(), store=store)
        with pytest.raises(ProofError) as cold:
            pf.universal(step)
        ledger = _ledger(pf)
        assert [e["cached"] for e in ledger["obligations"]].count(True) == 0
        assert ledger["obligations"][-1]["holds"] is False

        pf = CompositionProof(self._components(), store=store)
        with pytest.raises(ProofError) as warm:
            pf.universal(step)
        ledger = _ledger(pf)
        assert all(e["cached"] for e in ledger["obligations"])
        assert str(warm.value) == str(cold.value)
