"""Stored verdicts are bound to the check in hand.

A record is only an answer to the check it was written for.  These tests
file, under an obligation's (or a spec's) real fingerprint, a record
whose formula or restriction text belongs to another check — at every
replay site: the sequential proof engine, the pool's ``run_cached`` and
``cached_check``.  Each site must treat it as a miss: the verdict comes
from the checker, the ledger says ``cached: False``, and the record is
rewritten for the check in hand.  The store's own counters agree: such a
record counts under ``store.misses``, never ``store.hits``.
"""

import pytest

from repro.compositional.proof import CompositionProof
from repro.logic.ctl import AX, Implies, atom
from repro.store import ResultStore
from repro.store.cached import cached_check
from repro.systems.system import System

p = atom("p")
STEP = Implies(p, AX(p))

#: Ways a record can belong to another check: its formula, its initial
#: condition or its fairness set differ from the obligation's.
MISMATCHES = {
    "formula": lambda result: {**result, "formula": "p"},
    "init": lambda result: {
        **result,
        "restriction": {**result["restriction"], "init": "!p"},
    },
    "fairness": lambda result: {
        **result,
        "restriction": {**result["restriction"], "fairness": ["p"]},
    },
}


def _foreign(result: dict, how: str) -> dict:
    """``result`` rewritten as a failing verdict on another check."""
    return dict(
        MISMATCHES[how](result),
        holds=False,
        failing_states=[[]],
        num_failing=1,
    )


def _plant(store, fingerprint, kind, how):
    record = store.get(fingerprint, kind=kind)
    assert record is not None and record.result["holds"]
    record.result = _foreign(record.result, how)
    store.put(fingerprint, record, kind=kind)
    return record.result


def _components():
    return {"good": System({"p"}, [(frozenset({"p"}), frozenset({"p"}))])}


@pytest.mark.parametrize("how", sorted(MISMATCHES))
@pytest.mark.parametrize("jobs", [None, 2], ids=["sequential", "pool"])
def test_proof_replays_mismatched_record_as_miss(tmp_path, jobs, how):
    store = ResultStore(tmp_path)
    pf = CompositionProof(_components(), parallel=jobs, store=store)
    pf.universal(STEP)
    fingerprint = pf.cache_ledger()["obligations"][0]["fingerprint"]
    planted = _plant(store, fingerprint, "obligation", how)

    pf = CompositionProof(_components(), parallel=jobs, store=store)
    proven = pf.universal(STEP)  # the foreign failing verdict is not used
    (entry,) = pf.cache_ledger()["obligations"]
    assert entry["fingerprint"] == fingerprint
    assert entry["cached"] is False and entry["holds"] is True
    (result,) = proven.step.obligations
    assert result.holds and result.formula == STEP

    rewritten = store.get(fingerprint, kind="obligation").result
    assert rewritten != planted
    assert rewritten["formula"] == str(STEP) and rewritten["holds"] is True

    pf = CompositionProof(_components(), parallel=jobs, store=store)
    pf.universal(STEP)
    assert pf.cache_ledger()["obligations"][0]["cached"] is True


SOURCE = """
MODULE main
VAR x : boolean;
ASSIGN next(x) := 1;
SPEC x -> AX x
"""


@pytest.mark.parametrize("how", sorted(MISMATCHES))
def test_cached_check_replays_mismatched_record_as_miss(tmp_path, how):
    store = ResultStore(tmp_path)
    cold = cached_check(SOURCE, store=store)
    (fingerprint,) = cold.fingerprints
    planted = _plant(store, fingerprint, "spec", how)

    run = cached_check(SOURCE, store=store)
    assert run.cached_flags == [False]
    assert run.results[0].holds
    assert run.results[0].formula is run.model.specs[0]
    rewritten = store.get(fingerprint, kind="spec").result
    assert rewritten != planted
    assert rewritten["formula"] == str(run.model.specs[0])
    assert rewritten["holds"] is True

    assert cached_check(SOURCE, store=store).cached_flags == [True]


def _counters(store, kind):
    names = [
        f"store.{event}{suffix}"
        for event in ("hits", "misses")
        for suffix in ("", f".{kind}")
    ]
    return {name: store.metrics.get(name) for name in names}


def _delta(before, after):
    return {name: after[name] - before[name] for name in before}


@pytest.mark.parametrize("jobs", [None, 2], ids=["sequential", "pool"])
def test_mismatched_obligation_record_counts_as_a_store_miss(tmp_path, jobs):
    store = ResultStore(tmp_path)
    pf = CompositionProof(_components(), parallel=jobs, store=store)
    pf.universal(STEP)
    fingerprint = pf.cache_ledger()["obligations"][0]["fingerprint"]
    _plant(store, fingerprint, "obligation", "formula")

    before = _counters(store, "obligation")
    CompositionProof(_components(), parallel=jobs, store=store).universal(STEP)
    assert _delta(before, _counters(store, "obligation")) == {
        "store.hits": 0,
        "store.hits.obligation": 0,
        "store.misses": 1,
        "store.misses.obligation": 1,
    }

    # the rewritten record replays, and counts as the hit it is
    before = _counters(store, "obligation")
    CompositionProof(_components(), parallel=jobs, store=store).universal(STEP)
    assert _delta(before, _counters(store, "obligation"))["store.hits"] == 1


def test_mismatched_spec_record_counts_as_a_store_miss(tmp_path):
    store = ResultStore(tmp_path)
    (fingerprint,) = cached_check(SOURCE, store=store).fingerprints
    _plant(store, fingerprint, "spec", "init")

    before = _counters(store, "spec")
    run = cached_check(SOURCE, store=store)
    assert run.cached_flags == [False]
    delta = _delta(before, _counters(store, "spec"))
    assert delta["store.hits.spec"] == 0 and delta["store.misses.spec"] == 1
