"""Micro-benchmarks of the BDD engine's hot operations.

Standard workloads for a BDD package: building an n-bit adder-carry
function (exponential without sharing), quantifier sweeps, and the
transition-relation image step the model checker spends its time in.
"""

from repro.bdd.manager import BDD
from repro.casestudies.afs2 import server_source
from repro.smv.compile_symbolic import to_symbolic
from repro.smv.elaborate import SmvModel
from repro.smv.parser import parse_module
from repro.systems.symbolic import primed

N_BITS = 10


def _adder_carry(bdd: BDD) -> int:
    """Carry-out of an N_BITS ripple-carry adder over a/b vectors."""
    carry = 0  # FALSE
    for i in range(N_BITS):
        a, b = bdd.var(f"a{i}"), bdd.var(f"b{i}")
        ab = bdd.apply("and", a, b)
        a_or_b = bdd.apply("or", a, b)
        carry = bdd.apply("or", ab, bdd.apply("and", a_or_b, carry))
    return carry


def test_bdd_build_adder_carry(benchmark):
    def run():
        bdd = BDD()
        for i in range(N_BITS):
            bdd.declare(f"a{i}", f"b{i}")
        return bdd, _adder_carry(bdd)

    bdd, carry = benchmark(run)
    assert bdd.node_count(carry) > N_BITS


def test_bdd_quantifier_sweep(benchmark):
    bdd = BDD()
    for i in range(N_BITS):
        bdd.declare(f"a{i}", f"b{i}")
    carry = _adder_carry(bdd)
    a_vars = [f"a{i}" for i in range(N_BITS)]

    def run():
        bdd.clear_caches()
        return bdd.exists(a_vars, carry)

    result = benchmark(run)
    assert result != 0  # satisfiable for some a-vector


def test_bdd_image_step(benchmark):
    # one fixed kernel path, the relational product through the whole
    # relation — not whichever image strategy the system defaults to
    model = SmvModel(parse_module(server_source(2, rename=False)))
    sym = to_symbolic(model)
    bdd = sym.bdd
    target = bdd.rename(bdd.var(sym.atoms[0]), {sym.atoms[0]: primed(sym.atoms[0])})
    next_vars = [primed(a) for a in sym.atoms]

    def run():
        bdd.clear_caches()
        return bdd.and_exists(sym.transition, target, next_vars)

    assert benchmark(run) is not None


def test_bdd_sat_count(benchmark):
    bdd = BDD()
    for i in range(N_BITS):
        bdd.declare(f"a{i}", f"b{i}")
    carry = _adder_carry(bdd)
    count = benchmark(bdd.sat_count, carry)
    assert 0 < count < 2 ** (2 * N_BITS)
