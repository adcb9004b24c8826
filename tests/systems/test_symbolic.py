"""Tests for the symbolic system representation."""

import pytest
from hypothesis import given, settings

from tests.conftest import systems
from repro.bdd.manager import FALSE, TRUE
from repro.systems.compose import compose, expand
from repro.systems.symbolic import SymbolicSystem, composite_view, primed
from repro.systems.system import System

E = frozenset()
X = frozenset({"x"})


class TestRoundTrip:
    @given(systems())
    @settings(max_examples=50, deadline=None)
    def test_explicit_symbolic_explicit(self, m):
        assert SymbolicSystem.from_explicit(m).to_explicit() == m

    def test_raw_system_round_trip(self):
        raw = System({"x"}, [(E, X), (X, X)], reflexive=False)
        back = SymbolicSystem.from_explicit(raw).to_explicit()
        assert back == raw
        assert not back.reflexive


class TestRelationStructure:
    def test_identity_relation_is_total_frame(self):
        sym = SymbolicSystem({"x", "y"})
        assert sym.transition == sym.identity_relation()
        assert sym.is_total()

    def test_frame_of_empty_set_is_true(self):
        sym = SymbolicSystem({"x"})
        assert sym.frame([]) == TRUE

    def test_set_transition_reflexive_closure(self):
        sym = SymbolicSystem({"x"})
        edge = sym.bdd.apply(
            "and", sym.state_cube(E), sym.state_cube(X, next_state=True)
        )
        sym.set_transition(edge, reflexive=True)
        assert sym.to_explicit() == System({"x"}, [(E, X)])

    def test_node_count_positive(self):
        sym = SymbolicSystem.from_explicit(System({"x"}, [(E, X)]))
        assert sym.node_count() > 0


class TestImages:
    def setup_method(self):
        self.m = System.from_pairs({"x"}, [((), ("x",))])
        self.sym = SymbolicSystem.from_explicit(self.m)

    def test_pre_image_of_x(self):
        x_set = self.sym.bdd.var("x")
        pre = self.sym.pre_image(x_set)
        assert pre == TRUE  # both states can reach x in one step

    def test_pre_image_of_not_x(self):
        notx = self.sym.bdd.nvar("x")
        pre = self.sym.pre_image(notx)
        assert pre == notx  # only ∅ (by stutter) reaches ¬x

    def test_post_image(self):
        notx = self.sym.bdd.nvar("x")
        post = self.sym.post_image(notx)
        assert post == TRUE  # ∅ steps to both ∅ and {x}


class TestSymbolicComposition:
    @given(systems(atoms=("a", "b")), systems(atoms=("b", "c")))
    @settings(max_examples=40, deadline=None)
    def test_matches_explicit_composition(self, m1, m2):
        explicit = compose(m1, m2)
        symbolic = composite_view(
            [SymbolicSystem.from_explicit(m1), SymbolicSystem.from_explicit(m2)]
        )
        assert symbolic.to_explicit() == explicit

    @given(systems(atoms=("a", "b"), max_atoms=2))
    @settings(max_examples=30, deadline=None)
    def test_expand_matches_explicit(self, m):
        assert composite_view(
            [SymbolicSystem.from_explicit(m)], {"z"}
        ).to_explicit() == expand(m, {"z"})

    def test_compose_all(self):
        ms = [System({"a"}, [(E, frozenset({"a"}))]), System({"b"}), System({"c"})]
        got = composite_view([SymbolicSystem.from_explicit(m) for m in ms])
        from repro.systems.compose import compose_all

        assert got.to_explicit() == compose_all(ms)

    def test_compose_all_empty_rejected(self):
        from repro.errors import SystemError_

        with pytest.raises(SystemError_):
            composite_view([])


def test_primed_naming():
    assert primed("x") == "x'"
    sym = SymbolicSystem({"x"})
    assert set(sym.bdd.var_names) == {"x", "x'"}
