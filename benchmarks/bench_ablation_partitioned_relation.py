"""Ablation A5 — monolithic transition relation vs conjunctive partition.

The SMV compiler emits a per-variable conjunctive partition alongside the
monolithic relation; the partitioned pre-image quantifies next-state
variables early instead of ever touching the full-relation BDD.  Measured
on the AFS-2 server (n = 3) with a large xor-chain target set.
"""

from repro.casestudies.afs2 import server_source
from repro.smv.compile_symbolic import to_symbolic
from repro.smv.elaborate import SmvModel
from repro.smv.parser import parse_module


def _setup():
    model = SmvModel(parse_module(server_source(3, rename=False)))
    sym = to_symbolic(model)
    target = sym.bdd.var(sym.atoms[0])
    for a in sym.atoms[1:]:
        target = sym.bdd.apply("xor", target, sym.bdd.var(a))
    return sym, target


def test_a5_monolithic_pre_image(benchmark):
    sym, target = _setup()
    sym.prefer_partitions = False  # pin pre_image to the monolithic product

    def run():
        sym.bdd.clear_caches()
        return sym.pre_image(target)

    assert benchmark(run) is not None


def test_a5_partitioned_pre_image(benchmark):
    sym, target = _setup()

    def run():
        sym.bdd.clear_caches()
        return sym.pre_image_partitioned(target)

    partitioned = benchmark(run)
    assert partitioned == sym.pre_image(target)  # exactness
