"""The compiled partitions and relation equal their textbook references.

:func:`to_symbolic` compiles each next-assignment in one pass over its
``case`` cascade into one partition per variable, checks totality one
partition at a time, and builds the product relation only when asked
for.  The references here are the constructions it replaced: one
``possible_formula`` per (variable, value) for each partition, and the
left-fold of every variable's constraint into one relation with junk
states masked to self-loops (``valid ∧ t ∨ ¬valid ∧ Id``) tested by
``∃x'. t``.  Both sides are built in the same manager, so ROBDD
canonicity makes equal functions equal node ids.
"""

from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.bdd.formula import prop_to_bdd
from repro.bdd.manager import FALSE, TRUE
from repro.casestudies import afs1, afs2
from repro.checking.symbolic import SymbolicChecker
from repro.errors import ElaborationError
from repro.logic.restriction import Restriction
from repro.smv.compile_symbolic import to_symbolic
from repro.smv.elaborate import SmvModel
from repro.smv.parser import parse_module
from repro.systems.symbolic import SymbolicSystem, primed
from tests.smv.test_random_models import modules

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

SOURCES = {
    "afs1_server": afs1.AFS1_SERVER_FIGURE,
    "afs1_client": afs1.AFS1_CLIENT_FIGURE,
    "afs1_server_proof": afs1.SERVER.source,
    "afs1_client_proof": afs1.CLIENT.source,
    "afs2_server2": afs2.server_source(2),
    "afs2_server3": afs2.server_source(3),
    "afs2_server4": afs2.server_source(4),
    "afs2_client": afs2.client_source(1),
    "figure1": (EXAMPLES / "figure1.smv").read_text(),
}

FALLS_THROUGH = """
MODULE main
VAR s : {idle, busy, done};
    b : boolean;
ASSIGN
  next(s) := case s = idle : busy; s = busy : done; esac;
  next(b) := !b;
"""


def _constraint(model: SmvModel, sym: SymbolicSystem, var) -> int:
    """``⋁_val possible(rhs, val) ∧ (v' = val)`` for one variable."""
    bdd = sym.bdd
    rhs = model.next_assign.get(var.name)
    values = list(var.domain) if rhs is None else model.value_set(rhs, var.domain)
    constraint = FALSE
    for value in values:
        guard = (
            TRUE
            if rhs is None
            else prop_to_bdd(bdd, model.possible_formula(rhs, value, var.domain))
        )
        target = bdd.cube(
            {primed(bit): b for bit, b in var.bit_values(value).items()}
        )
        constraint = bdd.apply("or", constraint, bdd.apply("and", guard, target))
    return constraint


def reference_relation(model: SmvModel, sym: SymbolicSystem) -> int:
    """Left-fold of the constraints, junk states masked to ``Id``."""
    bdd = sym.bdd
    t = TRUE
    for var in model.variables:
        t = bdd.apply("and", t, _constraint(model, sym, var))
    valid = prop_to_bdd(bdd, model.valid_formula())
    return bdd.apply(
        "or",
        bdd.apply("and", valid, t),
        bdd.apply("and", bdd.negate(valid), sym.identity_relation()),
    )


def reference_partitions(model: SmvModel, sym: SymbolicSystem) -> list[int]:
    """``P_v = valid ∧ constraint_v ∨ ¬valid ∧ frame(v)`` per variable,
    one ``possible_formula`` per value."""
    bdd = sym.bdd
    valid = prop_to_bdd(bdd, model.valid_formula())
    return [
        bdd.apply(
            "or",
            bdd.apply("and", valid, _constraint(model, sym, var)),
            bdd.apply("and", bdd.negate(valid), sym.frame(var.bits)),
        )
        for var in model.variables
    ]


def partitions_total(model: SmvModel, sym: SymbolicSystem) -> bool:
    """Totality decided one partition at a time (``∃ v'. P_v == TRUE``)."""
    bdd = sym.bdd
    return all(
        bdd.exists([primed(bit) for bit in var.bits], partition) == TRUE
        for var, partition in zip(model.variables, reference_partitions(model, sym))
    )


def _assert_matches_reference(model: SmvModel) -> None:
    sym = to_symbolic(model)
    assert sym.partitions == reference_partitions(model, sym)
    assert reference_relation(model, sym) == sym.transition
    assert sym.bdd.conj(sym.partitions) == sym.transition
    assert sym.is_total() and partitions_total(model, sym)
    reflexive = to_symbolic(model, reflexive=True)
    closed = reflexive.bdd.apply(
        "or", reference_relation(model, reflexive), reflexive.identity_relation()
    )
    assert closed == reflexive.transition


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_case_study_relations_match_reference(name):
    _assert_matches_reference(SmvModel(parse_module(SOURCES[name])))


@given(modules())
@settings(max_examples=40, deadline=None)
def test_random_relations_match_reference(module):
    _assert_matches_reference(SmvModel(module))


@given(st.booleans(), st.data())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_partitions_match_per_value_reference(reflexive, data):
    """Raw and reflexive: every partition is node-equal to its
    per-value reference, a raw compile raises exactly when one is not
    total, and the product, built only when asked for, is ``⋀ P``
    (``∨ Id`` iff reflexive)."""
    model = SmvModel(data.draw(modules(fallthrough=True)))
    if not reflexive and not partitions_total(
        model, SymbolicSystem(model.encoding.atoms)
    ):
        with pytest.raises(ElaborationError, match="falls through"):
            to_symbolic(model)
        return
    sym = to_symbolic(model, reflexive=reflexive)
    bdd = sym.bdd
    assert sym.partitions == reference_partitions(model, sym)
    assert sym.stutter == reflexive
    assert sym._transition is None, "the compile built the product"
    product = bdd.conj(sym.partitions)
    if reflexive:
        product = bdd.apply("or", product, sym.identity_relation())
    assert sym.transition == product


@pytest.mark.parametrize(
    "source",
    [
        afs1.AFS1_SERVER_FIGURE,
        afs2.server_source(2, rename=False) + afs2.SERVER_SPECS_FIGURE,
    ],
    ids=["afs1_server", "afs2_server2"],
)
def test_cold_checks_leave_the_product_unbuilt(source, monkeypatch):
    """A cold ``SymbolicChecker.holds`` and a cold ``cached_check`` of a
    compiled module image through its partitions and count them for
    ``transition_nodes``: neither builds the product relation."""
    from repro.smv import compile_symbolic
    from repro.store import cached_check

    model = SmvModel(parse_module(source))
    sym = to_symbolic(model)
    checker = SymbolicChecker(sym)
    restriction = Restriction(init=model.initial_formula())
    assert all(checker.holds(spec, restriction).holds for spec in model.specs)
    assert sym._transition is None
    assert sym.node_count() == sum(
        sym.bdd.node_count(p) for p in sym.partitions
    )

    compiled = []

    def recording(*args, **kwargs):
        compiled.append(to_symbolic(*args, **kwargs))
        return compiled[-1]

    monkeypatch.setattr(compile_symbolic, "to_symbolic", recording)
    run = cached_check(source, store=None)
    assert all(result.holds for result in run.results)
    assert len(compiled) == 1 and compiled[0]._transition is None
    assert run.transition_nodes == sym.node_count()


class TestFallThrough:
    def test_raw_compile_raises(self):
        with pytest.raises(ElaborationError, match="falls through"):
            to_symbolic(SmvModel(parse_module(FALLS_THROUGH)))

    def test_reflexive_compile_succeeds(self):
        sym = to_symbolic(SmvModel(parse_module(FALLS_THROUGH)), reflexive=True)
        assert sym.is_total()

    def test_partition_check_agrees_with_whole_relation(self):
        model = SmvModel(parse_module(FALLS_THROUGH))
        raw = SymbolicSystem(model.encoding.atoms)
        raw.transition = reference_relation(model, raw)
        assert not raw.is_total()
        assert not partitions_total(model, raw)
