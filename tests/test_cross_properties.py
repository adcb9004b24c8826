"""Cross-cutting property tests tying several layers together."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

import tests.oracle as oracle
from tests.conftest import ctl_formulas, prop_formulas, systems
from repro.checking.explicit import ExplicitChecker
from repro.checking.witness import ef_witness
from repro.logic.ctl import (
    AG,
    AX,
    Const,
    EF,
    Implies,
    Not,
    TRUE,
    substitute,
)
from repro.logic.evaluate import evaluate_propositional
from repro.systems.compose import compose, expand
from repro.systems.symbolic import SymbolicSystem
from repro.systems.system import System


class TestWitnessProperties:
    @given(systems(max_atoms=2), prop_formulas(atoms=("a", "b"), max_depth=2))
    @settings(max_examples=60, deadline=None)
    def test_ef_witness_exists_iff_ef_holds(self, system, goal):
        goal = substitute(
            goal, {x: Const(True) for x in goal.atoms() - system.sigma}
        )
        ck = ExplicitChecker(system)
        sat = ck.states_satisfying(EF(goal))
        for start in system.states():
            path = ef_witness(ck, start, goal)
            assert (path is not None) == bool(sat[ck._index(start)])
            if path:
                # valid run ending in the goal
                for s, t in zip(path, path[1:]):
                    assert system.has_transition(s, t)
                assert evaluate_propositional(goal, path[-1])

    @given(systems(max_atoms=2), prop_formulas(atoms=("a", "b"), max_depth=2))
    @settings(max_examples=40, deadline=None)
    def test_witness_paths_are_shortest(self, system, goal):
        goal = substitute(
            goal, {x: Const(True) for x in goal.atoms() - system.sigma}
        )
        ck = ExplicitChecker(system)
        for start in system.states():
            path = ef_witness(ck, start, goal)
            if path is None:
                continue
            # BFS distance from the oracle graph must match
            import networkx as nx

            g = nx.DiGraph()
            for s, t in system.relation():
                g.add_edge(s, t)
            goal_states = oracle.sat_states(system, goal)
            best = min(
                (
                    nx.shortest_path_length(g, start, gs)
                    for gs in goal_states
                    if nx.has_path(g, start, gs)
                ),
                default=None,
            )
            assert best is not None
            assert len(path) - 1 == best


class TestExpansionLemmaAcrossEngines:
    @given(systems(atoms=("a", "b"), max_atoms=2), ctl_formulas(atoms=("a", "b"), max_depth=2))
    @settings(max_examples=40, deadline=None)
    def test_lemma5_holds_symbolically_too(self, system, f):
        from repro.checking.symbolic import SymbolicChecker
        from repro.systems.symbolic import composite_view

        f = substitute(f, {x: Const(True) for x in f.atoms() - system.sigma})
        base = SymbolicChecker(SymbolicSystem.from_explicit(system))
        expanded = SymbolicChecker(
            composite_view([SymbolicSystem.from_explicit(system)], {"z"})
        )
        assert bool(base.holds(f)) == bool(expanded.holds(f))


class TestCompositionMonotonicity:
    @given(systems(atoms=("a", "b")), systems(atoms=("b", "c")))
    @settings(max_examples=40, deadline=None)
    def test_composition_only_adds_behaviour(self, m1, m2):
        """Every lifted m1-transition exists in the composite."""
        composite = compose(m1, m2)
        frame = composite.sigma - m1.sigma
        for s, t in m1.edges:
            assert composite.has_transition(s, t)  # frame = ∅ lift
            full = frozenset(frame)
            assert composite.has_transition(s | full, t | full)

    @given(systems(atoms=("a", "b"), max_atoms=2))
    @settings(max_examples=30, deadline=None)
    def test_ag_properties_shrink_under_composition(self, m):
        """AG over shared atoms can only be lost, never gained, by composing
        with a fresh-alphabet component (which adds no shared moves)."""
        observer = System.from_pairs({"z"}, [((), ("z",))])
        composite = compose(m, observer)
        base = ExplicitChecker(expand(m, {"z"}))
        comp = ExplicitChecker(composite)
        for atom_name in sorted(m.sigma):
            from repro.logic.ctl import Atom

            f = AG(Implies(Atom(atom_name), AX(Atom(atom_name))))
            assert bool(base.holds(f)) == bool(comp.holds(f))
