"""Tests for SMV process instances → interleaving components."""

import pytest

from repro.errors import ElaborationError
from repro.smv.processes import check_processes, load_processes

PING_PONG = """
MODULE main
VAR
  turn : {pings, pongs};
  ping : process player(turn, pings, pongs);
  pong : process player(turn, pongs, pings);
INIT turn = pings & ping.count = 0 & pong.count = 0
SPEC AG (ping.count <= 2)
SPEC EF (pong.count = 2)

MODULE player(t, me, other)
VAR count : 0..2;
ASSIGN
  next(count) := case t = me & count < 2 : {1, 2}; 1 : count; esac;
  next(t) := case t = me : other; 1 : t; esac;
"""

BROKEN_MIXED = """
MODULE main
VAR
  a : process leaf;
  b : leaf;
MODULE leaf
VAR x : boolean;
"""


class TestSplitting:
    def test_components_and_shared_state(self):
        split = load_processes(PING_PONG)
        assert set(split.components) == {"ping", "pong"}
        for model in split.components.values():
            names = {v.name for v in model.variables}
            assert "turn" in names  # shared state declared in each

    def test_pinning_only_unassigned_shared_vars(self):
        # both players assign `turn` (via the parameter), so neither pins it
        split = load_processes(PING_PONG)
        for model in split.components.values():
            assert "turn" in model.next_assign

    def test_vocabulary_covers_everything(self):
        split = load_processes(PING_PONG)
        names = {v.name for v in split.vocabulary.variables}
        assert names == {"turn", "ping.count", "pong.count"}

    def test_requires_process_instances(self):
        with pytest.raises(ElaborationError):
            load_processes("MODULE main\nVAR x : boolean;\n")

    def test_rejects_mixed_instances(self):
        with pytest.raises(ElaborationError):
            load_processes(BROKEN_MIXED)

    def test_rejects_main_level_assign(self):
        src = """
MODULE main
VAR x : boolean;
    p : process leaf;
ASSIGN next(x) := x;
MODULE leaf
VAR y : boolean;
"""
        with pytest.raises(ElaborationError):
            load_processes(src)


class TestChecking:
    def test_main_specs_checked_against_interleaving(self):
        report = check_processes(PING_PONG)
        assert report.all_true
        assert len(report.results) == 2

    def test_transition_nodes_are_the_components_own(self):
        """The composite view builds no product relation: it reports the
        sum of its components' own relation sizes."""
        report = check_processes(PING_PONG)
        components = load_processes(PING_PONG).symbolic_systems().values()
        assert report.transition_nodes == sum(
            m.node_count() for m in components
        )
        assert report.results[0].stats.transition_nodes == report.transition_nodes

    def test_explicit_backend_agrees(self):
        symbolic = check_processes(PING_PONG, backend="symbolic")
        explicit = check_processes(PING_PONG, backend="explicit")
        assert [r.holds for r in symbolic.results] == [
            r.holds for r in explicit.results
        ]

    def test_interleaving_not_synchronous(self):
        """Only one player moves per step: counts never jump together."""
        src = PING_PONG + (
            "\nMODULE dummy\nVAR z : boolean;\n"
        )
        split = load_processes(PING_PONG)
        from repro.systems.compose import compose_all

        composite = compose_all(list(split.systems().values()))
        enc = split.vocabulary.encoding
        zero_zero = enc.eq_formula("ping.count", 0) & enc.eq_formula(
            "pong.count", 0
        )
        both_moved = enc.eq_formula("ping.count", 1) & enc.eq_formula(
            "pong.count", 1
        )
        from repro.checking.explicit import ExplicitChecker
        from repro.logic.ctl import AX, EX, Implies, Not

        ck = ExplicitChecker(composite)
        assert ck.holds(Implies(zero_zero, Not(EX(both_moved))))


class TestCompositionalRoute:
    def test_afs1_in_one_file_proof(self):
        """The paper's whole Section 4.2 workflow from a single source."""
        from repro.casestudies.afs1 import AFS1_PROCESS_PROGRAM as src

        # the monolithic interleaving semantics confirms the main SPEC …
        assert check_processes(src).all_true
        # … and the compositional route proves it without the product
        from repro.logic.ctl import Implies, land

        split = load_processes(src)
        pf = split.proof()
        enc = split.vocabulary.encoding
        safe = Implies(
            enc.eq_formula("client.belief", "valid"),
            enc.eq_formula("server.belief", "valid"),
        )
        inv = land(
            safe,
            Implies(
                enc.eq_formula("r", "val"),
                enc.eq_formula("server.belief", "valid"),
            ),
        )
        final = pf.ag_weaken(pf.invariant(split.init, inv), safe)
        failures = [p for p, c in pf.verify_monolithic() if not c]
        assert failures == []
