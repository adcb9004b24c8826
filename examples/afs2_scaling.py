#!/usr/bin/env python3
"""AFS-2 with n clients: compositional vs monolithic verification cost.

The paper's Discussion claims compositional checking is linear in the
number of components while monolithic checking is exponential.  This
script sweeps n, proving the time-aware safety invariant (Afs1, §4.3)
both ways, and prints the comparison table.  Both sides run on one image
engine: each proof obligation images through its component's own
partitions over Σ*, and the monolithic check images through the
composite view, one disjunct per component — neither builds a product
relation.  Components are compiled before either side is timed; times
are wall-clock seconds.

Columns: the server relation's BDD node count, and the server
obligation's share of the compositional time — its ``Inv ⇒ AX Inv``
check on the server's expansion, view build included, re-run alone.

Run:  python examples/afs2_scaling.py [max_n]
"""

import sys
import time

from repro.baselines.monolithic import check_monolithic
from repro.casestudies.afs2 import Afs2
from repro.checking.symbolic import SymbolicChecker
from repro.logic.ctl import AG
from repro.logic.restriction import Restriction
from repro.systems.symbolic import composite_view


def main(max_n: int = 3) -> None:
    print(
        f"{'n':>3} {'obligations':>12} {'compositional':>14} "
        f"{'server nodes':>13} {'server share':>13} "
        f"{'product atoms':>14} {'product states':>15} {'monolithic':>11}"
    )
    for n in range(1, max_n + 1):
        study = Afs2(n)
        components = study.proof().components  # compile once, for both sides

        started = time.perf_counter()
        pf, afs1 = study.prove_safety()
        compositional = time.perf_counter() - started
        (universal,) = [
            s for s in afs1.step.walk() if s.kind == "rule2-universal"
        ]
        obligations = len(universal.obligations)

        server = components["server"]
        started = time.perf_counter()
        view = composite_view([server], pf.sigma_star - set(server.atoms))
        assert SymbolicChecker(view).holds(universal.formula)
        server_share = (time.perf_counter() - started) / compositional

        started = time.perf_counter()
        report = check_monolithic(
            components,
            AG(study.invariant()),
            Restriction(init=study.initial()),
            backend="symbolic",
        )
        monolithic = time.perf_counter() - started
        assert report.result

        print(
            f"{n:>3} {obligations:>12} {compositional:>13.3f}s "
            f"{server.node_count():>13} {server_share:>13.0%} "
            f"{report.num_atoms:>14} {report.num_states:>15.0f} "
            f"{monolithic:>10.3f}s"
        )

    print("\nshape: obligations grow as n+1 (linear); the product state space")
    print("grows exponentially.  Each obligation's cost tracks its component's")
    print("relation, and the server's grows with n, so compositional time is")
    print("not linear in n; the monolithic check falls further behind.")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 3)
