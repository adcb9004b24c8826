"""Ablation A3 — interleaved current/next variable order vs blocked order.

The symbolic backend interleaves ``a, a', b, b', …`` (DESIGN.md §4).  This
bench rebuilds the AFS-1 server transition relation under the blocked
order ``a, b, …, a', b', …`` and compares node counts — the classic
result that transition relations blow up without interleaving.

``test_a3_sifted_from_blocked`` closes the loop: starting from that
worst declared order, one in-place Rudell sifting pass
(:meth:`repro.bdd.manager.BDD.reorder`) must at least halve the shared
relation size.  Node counts land in ``benchmark.extra_info``, so a
``--benchmark-json`` run records sifted-vs-declared-order sizes
alongside the timings.
"""

from repro.bdd.reorder import rebuild_with_order, shared_size
from repro.casestudies.afs1 import AFS1_SERVER_FIGURE
from repro.smv.compile_symbolic import to_symbolic
from repro.smv.elaborate import SmvModel
from repro.smv.parser import parse_module
from repro.systems.symbolic import primed


def _relation():
    model = SmvModel(parse_module(AFS1_SERVER_FIGURE))
    sym = to_symbolic(model)
    return sym


def _blocked(sym):
    return list(sym.atoms) + [primed(a) for a in sym.atoms]


def test_a3_interleaved_order(benchmark):
    def run():
        sym = _relation()
        return shared_size(sym.bdd, [sym.transition])

    size = benchmark(run)
    benchmark.extra_info["nodes"] = size
    assert size > 0


def test_a3_blocked_order(benchmark):
    def run():
        sym = _relation()
        mgr, (t,) = rebuild_with_order([sym.transition], sym.bdd, _blocked(sym))
        return shared_size(mgr, [t])

    blocked_size = benchmark(run)
    sym = _relation()
    interleaved_size = shared_size(sym.bdd, [sym.transition])
    benchmark.extra_info["nodes"] = blocked_size
    # shape: blocked order must not beat the interleaved default
    assert blocked_size >= interleaved_size


def test_a3_sifted_from_blocked(benchmark):
    def run():
        sym = _relation()
        mgr, (t,) = rebuild_with_order([sym.transition], sym.bdd, _blocked(sym))
        mgr.add_reorder_root(t)
        summary = mgr.reorder("sift")
        return summary["nodes_before"], shared_size(mgr, [t])

    nodes_before, nodes_after = benchmark(run)
    benchmark.extra_info["nodes_before"] = nodes_before
    benchmark.extra_info["nodes_after"] = nodes_after
    # the acceptance bar: one sifting pass must at least halve the
    # relation built under the worst declared order (measured: 176 -> 56)
    assert nodes_after * 2 <= nodes_before
