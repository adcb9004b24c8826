"""``AX`` of a propositional conjunction and ``EX`` of a propositional
disjunction are evaluated one operand at a time; the split must give the
same state sets as one image of the whole operand, on every spec of the
paper's figures (the inputs the benchmark's cold checks use)."""

from pathlib import Path

import pytest

import repro.checking.symbolic as symbolic
from repro.casestudies import afs1, afs2
from repro.checking.symbolic import SymbolicChecker
from repro.logic.ctl import AX, EX, TRUE, And, Or, is_propositional
from repro.smv.compile_symbolic import to_symbolic
from repro.smv.elaborate import SmvModel
from repro.smv.parser import parse_module

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

CATALOG = {
    "afs1_server": afs1.AFS1_SERVER_FIGURE,
    "afs1_client": afs1.AFS1_CLIENT_FIGURE,
    "afs2_client": afs2.client_source(rename=False) + afs2.CLIENT_SPECS_FIGURE,
    "afs2_server2": afs2.server_source(2, rename=False)
    + afs2.SERVER_SPECS_FIGURE,
    "figure1": (EXAMPLES / "figure1.smv").read_text(),
}


def _subformulas(f):
    yield f
    for name in ("operand", "left", "right"):
        child = getattr(f, name, None)
        if child is not None:
            yield from _subformulas(child)


def _splits(f) -> bool:
    kind = And if isinstance(f, AX) else Or if isinstance(f, EX) else None
    return (
        kind is not None
        and isinstance(f.operand, kind)
        and is_propositional(f.operand)
    )


def _state_sets(sym, formulas, fairness):
    checker = SymbolicChecker(sym)
    return [checker.states_satisfying(f, fairness) for f in formulas]


@pytest.mark.parametrize("name", sorted(CATALOG))
@pytest.mark.parametrize("reflexive", [False, True])
def test_split_equals_unsplit(name, reflexive, monkeypatch):
    model = SmvModel(parse_module(CATALOG[name]))
    sym = to_symbolic(model, reflexive=reflexive)
    nodes = [g for s in model.specs for g in _subformulas(s) if _splits(g)]
    formulas = list(model.specs) + nodes
    fairness = tuple(model.fairness) or (TRUE,)
    split = _state_sets(sym, formulas, fairness)
    monkeypatch.setattr(symbolic, "_operands", lambda f, kind: [f])
    assert _state_sets(sym, formulas, fairness) == split


def test_catalog_exercises_the_split():
    count = 0
    for source in CATALOG.values():
        for spec in SmvModel(parse_module(source)).specs:
            count += sum(map(_splits, _subformulas(spec)))
    assert count >= 5
