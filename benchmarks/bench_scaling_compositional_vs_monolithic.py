"""Experiment D1 — Discussion §5: compositional is linear, monolithic is not.

The paper claims its approach gives "a linear behavior (as opposed to
exponential) in terms of the number of components".  This bench sweeps
the number of AFS-2 clients and measures:

* compositional — the safety proof (one obligation per component, each
  over a single expansion);
* monolithic — model checking the same AG property on the full
  composite.

Both sides run on one image engine: an obligation images through its
component's own partitions over Σ*, the monolithic check through the
composite view (one disjunct per component); neither builds a product
relation.  Components are compiled before either side is measured.

Shape to reproduce: compositional obligations grow as n+1, while the
composite's state space (2^atoms) grows exponentially with n and its
check time grows much faster.  The compositional cost is not linear in
n: the server obligation tracks the server's relation, which grows
with n (``examples/afs2_scaling.py`` prints both).
"""

import pytest

from repro.baselines.monolithic import check_monolithic
from repro.casestudies.afs2 import Afs2
from repro.logic.ctl import AG
from repro.logic.restriction import Restriction

NS = [1, 2, 3, 4]


@pytest.mark.parametrize("n", NS)
def test_d1_compositional_scaling(benchmark, n):
    study = Afs2(n)
    study.proof()  # compile the components outside the measurement

    def run():
        pf, proven = study.prove_safety()
        return pf, proven

    pf, proven = benchmark(run)
    obligations = {
        id(o) for s in pf.log for leaf in s.leaves() for o in leaf.obligations
    }
    assert len(obligations) == n + 1  # linear in components


@pytest.mark.parametrize("n", NS)
def test_d1_monolithic_scaling(benchmark, n):
    study = Afs2(n)
    components = study.proof().components
    target = AG(study.invariant())
    restriction = Restriction(init=study.initial())

    def run():
        return check_monolithic(
            components, target, restriction, backend="symbolic"
        )

    report = benchmark(run)
    assert report.result
    # exponential state space: each extra client adds 9 boolean atoms
    # (Server.belief_i, validFile_i, response_i×2, time_i, request_i×2,
    #  Client_i.belief×2) to the product alphabet
    assert report.num_atoms >= 9 * n + 1
    # the composite view reports its components' own relations
    assert report.result.stats.transition_nodes == sum(
        m.node_count() for m in components.values()
    )
    print(
        f"\nn={n}: product atoms={report.num_atoms} "
        f"states={report.num_states:.0f} check={report.check_time:.3f}s "
        f"server nodes={components['server'].node_count()}"
    )
