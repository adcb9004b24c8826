"""Satellite: parallel proofs are byte-identical to sequential ones.

Every case study, both engines, ``jobs`` in {2, 4}: the proof tree, the
obligation report, and the proof summary produced with a worker pool
must equal the sequential strings exactly — parallelism is a pure
performance feature with no observable semantic footprint.

AFS-2 on the explicit engine uses one client (the two-client explicit
product takes ~a minute per run); the symbolic engine covers the full
two-client instance.
"""

import pytest

from repro.casestudies.afs1 import Afs1
from repro.casestudies.afs2 import Afs2
from repro.casestudies.mutex import TokenRing
from repro.casestudies.twophase import TwoPhaseCommit
from repro.compositional.export import obligations_report, proof_tree
from repro.compositional.proof import ProofError
from repro.parallel.pool import shutdown_shared


def _mutex(backend, jobs):
    return TokenRing(2).prove_safety(backend=backend, jobs=jobs)


def _mutex_liveness(backend, jobs):
    return TokenRing(2).prove_enter_liveness(0, backend=backend, jobs=jobs)


def _twophase(backend, jobs):
    return TwoPhaseCommit(2, backend, jobs=jobs).prove_atomicity()


def _afs1_safety(backend, jobs):
    return Afs1(backend, jobs=jobs).prove_safety()


def _afs1_liveness(backend, jobs):
    return Afs1(backend, jobs=jobs).prove_liveness()


def _afs2(backend, jobs):
    n = 2 if backend == "symbolic" else 1
    return Afs2(n, backend, jobs=jobs).prove_safety()


PROOFS = {
    "mutex": _mutex,
    "mutex-liveness": _mutex_liveness,
    "twophase": _twophase,
    "afs1-safety": _afs1_safety,
    "afs1-liveness": _afs1_liveness,
    "afs2": _afs2,
}

#: Certificates of the sequential baseline, computed once per (case, backend).
_BASELINE: dict[tuple[str, str], tuple[str, str, str]] = {}


def _certificates(case, backend, jobs):
    pf, proven = PROOFS[case](backend, jobs)
    return proof_tree(proven), obligations_report(pf), pf.summary()


def _baseline(case, backend):
    key = (case, backend)
    if key not in _BASELINE:
        _BASELINE[key] = _certificates(case, backend, None)
    return _BASELINE[key]


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_shared()


@pytest.mark.parametrize("case", sorted(PROOFS))
@pytest.mark.parametrize("backend", ["explicit", "symbolic"])
@pytest.mark.parametrize("jobs", [2, 4])
def test_parallel_certificates_identical(case, backend, jobs):
    seq_tree, seq_report, seq_summary = _baseline(case, backend)
    par_tree, par_report, par_summary = _certificates(case, backend, jobs)
    assert par_tree == seq_tree
    assert par_report == seq_report
    assert par_summary == seq_summary


@pytest.mark.parametrize("backend", ["explicit", "symbolic"])
def test_jobs_one_takes_sequential_path(backend):
    # parallel=1 is normalized away: no pool, identical certificates
    pf, proven = Afs1(backend, jobs=1).prove_safety()
    assert pf.parallel is None
    assert (
        proof_tree(proven),
        obligations_report(pf),
        pf.summary(),
    ) == _baseline("afs1-safety", backend)


@pytest.mark.parametrize("backend", ["explicit", "symbolic"])
def test_parallel_failure_message_identical(backend):
    ring = TokenRing(2)

    def attempt(jobs):
        pf = ring.prove_safety(backend=backend, jobs=jobs)[0]
        # c0 is not an invariant — the obligation must fail identically
        with pytest.raises(ProofError) as err:
            pf.invariant(ring.initial(), ring.crit(0))
        return str(err.value)

    assert attempt(2) == attempt(None)


def test_parallel_verify_monolithic_matches_sequential():
    pf_seq, _ = Afs1("symbolic").prove_safety()
    pf_par, _ = Afs1("symbolic", jobs=2).prove_safety()
    seq = pf_seq.verify_monolithic()
    par = pf_par.verify_monolithic()
    assert len(seq) == len(par)
    for (proven_s, result_s), (proven_p, result_p) in zip(seq, par):
        assert str(proven_s.formula) == str(proven_p.formula)
        assert bool(result_s) == bool(result_p)
        assert all(bool(r) for r in (result_s, result_p))


def _obligations(pf):
    """Each distinct obligation of a proof, in discharge order."""
    unique = {}
    for step in pf.log:
        for leaf in step.leaves():
            for obligation in leaf.obligations:
                unique.setdefault(id(obligation), obligation)
    return list(unique.values())


class TestParallelAccounting:
    """The AFS-1 liveness proof through a fresh 2-worker pool: one work
    item per sequential obligation, and worker statistics that reconcile
    exactly with the obligation results they were shipped with."""

    @pytest.fixture(scope="class")
    def proofs(self):
        from repro.parallel.pool import shared_scheduler

        sequential, _ = Afs1("symbolic").prove_liveness()
        shutdown_shared()  # a fresh pool: its metrics count this proof only
        parallel, _ = Afs1("symbolic", jobs=2).prove_liveness()
        return sequential, parallel, shared_scheduler(2).metrics

    def test_one_item_per_sequential_obligation(self, proofs):
        sequential, _, metrics = proofs
        assert metrics.get("parallel.items") == len(_obligations(sequential))

    @pytest.mark.parametrize(
        "counter",
        ["subformulas_evaluated", "fixpoint_iterations", "bdd_mk_calls"],
    )
    def test_merged_stats_equal_obligation_sums(self, proofs, counter):
        _, parallel, metrics = proofs
        total = sum(getattr(o.stats, counter) for o in _obligations(parallel))
        assert metrics.get(f"parallel.check.{counter}") == total
