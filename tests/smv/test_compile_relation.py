"""The compiled relation equals the classic left-fold construction.

:func:`to_symbolic` builds the transition relation once, as the balanced
conjunction of its per-variable partitions, and checks totality one
partition at a time.  The reference here is the textbook construction it
replaced: left-fold every variable's constraint into one relation, then
mask junk states to self-loops (``valid ∧ t ∨ ¬valid ∧ Id``) and test
``∃x'. t``.  Both are built in the same manager, so ROBDD canonicity makes
equal functions equal node ids.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.bdd.formula import prop_to_bdd
from repro.bdd.manager import FALSE, TRUE
from repro.casestudies import afs1, afs2
from repro.errors import ElaborationError
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


def partitions_total(model: SmvModel, sym: SymbolicSystem) -> bool:
    """Totality decided one partition at a time (``∃ v'. P_v == TRUE``)."""
    bdd = sym.bdd
    valid = prop_to_bdd(bdd, model.valid_formula())
    for var in model.variables:
        partition = bdd.apply(
            "or",
            bdd.apply("and", valid, _constraint(model, sym, var)),
            bdd.apply("and", bdd.negate(valid), sym.frame(var.bits)),
        )
        if bdd.exists([primed(bit) for bit in var.bits], partition) != TRUE:
            return False
    return True


def _assert_matches_reference(model: SmvModel) -> None:
    sym = to_symbolic(model)
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
