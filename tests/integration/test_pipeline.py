"""End-to-end integration: SMV text → components → compositional proof.

Builds a fresh toy protocol (producer / consumer over a shared slot) that
exists nowhere else in the codebase, drives it through every layer, and
cross-checks the two engines against each other at each stage.
"""

import pytest

from repro.casestudies.afs_common import ProtocolComponent
from repro.checking.explicit import ExplicitChecker
from repro.checking.symbolic import SymbolicChecker
from repro.compositional.progress import ProgressChain
from repro.compositional.proof import CompositionProof
from repro.logic.ctl import AG, Implies, Not, Or, land
from repro.logic.restriction import Restriction
from repro.systems.compose import compose
from repro.systems.symbolic import SymbolicSystem, composite_view

PRODUCER = """
MODULE main
VAR slot : {empty, full};
    produced : boolean;
ASSIGN
  next(slot) := case slot = empty & !produced : full; 1 : slot; esac;
  next(produced) := case slot = empty & !produced : 1; 1 : produced; esac;
"""

CONSUMER = """
MODULE main
VAR slot : {empty, full};
    consumed : boolean;
ASSIGN
  next(slot) := case slot = full & !consumed : empty; 1 : slot; esac;
  next(consumed) := case slot = full & !consumed : 1; 1 : consumed; esac;
"""


@pytest.fixture
def components():
    return {
        "producer": ProtocolComponent("producer", PRODUCER),
        "consumer": ProtocolComponent("consumer", CONSUMER),
    }


class TestCrossBackend:
    def test_composites_agree(self, components):
        explicit = compose(
            components["producer"].system(), components["consumer"].system()
        )
        symbolic = composite_view(
            [components["producer"].symbolic(), components["consumer"].symbolic()]
        )
        assert symbolic.to_explicit() == explicit

    def test_checkers_agree_on_composite(self, components):
        producer, consumer = components["producer"], components["consumer"]
        composite = compose(producer.system(), consumer.system())
        eck = ExplicitChecker(composite)
        sck = SymbolicChecker(SymbolicSystem.from_explicit(composite))
        specs = [
            Implies(producer.eq("produced", True), AG(producer.eq("produced", True))),
            Implies(consumer.eq("consumed", True), AG(consumer.eq("consumed", True))),
            Implies(
                consumer.eq("consumed", True),
                Or(producer.eq("produced", True), Not(producer.eq("slot", "empty"))),
            ),
        ]
        for spec in specs:
            assert bool(eck.holds(spec)) == bool(sck.holds(spec))


class TestCompositionalStory:
    def test_safety_consumed_implies_produced(self, components):
        """consumed ⇒ produced — an inductive cross-component invariant."""
        producer, consumer = components["producer"], components["consumer"]
        pf = CompositionProof(
            {"producer": producer.system(), "consumer": consumer.system()}
        )
        init = land(
            producer.eq("slot", "empty"),
            Not(producer.eq("produced", True)),
            Not(consumer.eq("consumed", True)),
        )
        inv = land(
            # a full slot or a consumption implies production happened
            Implies(producer.eq("slot", "full"), producer.eq("produced", True)),
            Implies(consumer.eq("consumed", True), producer.eq("produced", True)),
        )
        ag_inv = pf.invariant(init, inv)
        safety = pf.ag_weaken(
            ag_inv,
            Implies(consumer.eq("consumed", True), producer.eq("produced", True)),
        )
        for proven, check in pf.verify_monolithic():
            assert bool(check), str(proven)

    def test_liveness_item_flows_through(self, components):
        """empty&unproduced ↝ produced ↝ consumed via a two-hop chain."""
        producer, consumer = components["producer"], components["consumer"]
        pf = CompositionProof(
            {"producer": producer.system(), "consumer": consumer.system()}
        )
        fresh = land(
            producer.eq("slot", "empty"),
            Not(producer.eq("produced", True)),
            Not(consumer.eq("consumed", True)),
        )
        handed_over = land(
            producer.eq("slot", "full"),
            producer.eq("produced", True),
            Not(consumer.eq("consumed", True)),
        )
        done = consumer.eq("consumed", True)
        result = (
            ProgressChain(pf)
            .step("producer", fresh, handed_over)
            .step("consumer", handed_over, done)
            .conclude(done)
        )
        assert result.formula.right.operand == done
        failures = [p for p, c in pf.verify_monolithic() if not c]
        assert failures == []

    def test_symbolic_backend_replays_the_same_proof(self, components):
        producer, consumer = components["producer"], components["consumer"]
        pf = CompositionProof(
            {
                "producer": producer.symbolic(),
                "consumer": consumer.symbolic(),
            },
            backend="symbolic",
        )
        fresh = land(
            producer.eq("slot", "empty"),
            Not(producer.eq("produced", True)),
            Not(consumer.eq("consumed", True)),
        )
        handed_over = land(
            producer.eq("slot", "full"),
            producer.eq("produced", True),
            Not(consumer.eq("consumed", True)),
        )
        done = consumer.eq("consumed", True)
        result = (
            ProgressChain(pf)
            .step("producer", fresh, handed_over)
            .step("consumer", handed_over, done)
            .conclude(done)
        )
        failures = [p for p, c in pf.verify_monolithic() if not c]
        assert failures == []
