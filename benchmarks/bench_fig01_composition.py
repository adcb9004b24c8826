"""Experiment F1 — paper Figure 1: interleaving composition of two toggles.

Regenerates the composite relation the paper enumerates and benchmarks the
composition operator (explicit, and the symbolic view with its relation
materialised).
"""

from repro.casestudies.figures import (
    figure1_expected_composition,
    figure1_m,
    figure1_m_prime,
)
from repro.systems.compose import compose
from repro.systems.symbolic import SymbolicSystem, composite_view


def test_fig01_explicit_composition(benchmark):
    m, mp = figure1_m(), figure1_m_prime()
    got = benchmark(compose, m, mp)
    assert got == figure1_expected_composition()


def test_fig01_symbolic_composition(benchmark):
    m = SymbolicSystem.from_explicit(figure1_m())
    mp = SymbolicSystem.from_explicit(figure1_m_prime())

    def materialised():
        view = composite_view([m, mp])
        view.transition  # the product relation R*, built on first use
        return view

    got = benchmark(materialised)
    assert got.to_explicit() == figure1_expected_composition()
