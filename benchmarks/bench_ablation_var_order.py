"""Ablation A3 — interleaved current/next variable order vs blocked order.

The symbolic backend declares ``a, a', b, b', …`` interleaved (DESIGN.md
§4) and never reorders.  This bench rebuilds the AFS-1 server transition
relation under the blocked order ``a, b, …, a', b', …`` and compares node
counts — the classic result that transition relations blow up without
interleaving.  Node counts land in ``benchmark.extra_info``, so a
``--benchmark-json`` run records both sizes alongside the timings.
"""

from repro.bdd.order import rebuild_with_order, shared_size
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

