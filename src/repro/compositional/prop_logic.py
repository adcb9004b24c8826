"""Propositional reasoning and polarity analysis for the proof engine.

Deductive steps in the paper ("by predicate calculus", "propositional
logic") become *decision procedures* here: tautology and entailment are
decided with a BDD over the formula's atoms, once per formula per
process (a proof rebuilt on every recheck re-states the same side
conditions), and the ACTL polarity check identifies formulas whose truth
survives strengthening the fairness constraints (restricting path
quantification to fewer paths) — the semantic generalization of the
paper's Lemma 11.
"""

from __future__ import annotations

from repro.bdd.formula import prop_to_bdd
from repro.bdd.manager import BDD, TRUE as BDD_TRUE
from repro.errors import LogicError
from repro.logic.ctl import (
    AF,
    AG,
    AU,
    AX,
    EF,
    EG,
    EU,
    EX,
    And,
    Atom,
    Const,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    is_propositional,
)


#: Propositional formula → validity, bounded FIFO.  Validity is a pure
#: function of the formula, and every run of a proof re-decides the same
#: side conditions (AFS-2's ``I ⇒ Inv`` and ``Inv ⇒ Afs1``).  Only
#: propositional formulas are ever inserted.
_TAUTOLOGY_MEMO: dict[Formula, bool] = {}
_TAUTOLOGY_MEMO_CAP = 64


def is_tautology(f: Formula) -> bool:
    """Decide validity of a propositional formula.

    The first call on a formula builds a BDD over its atoms; later calls
    on an equal formula answer from a process-wide memo.  A temporal
    formula raises :class:`LogicError` on every call.

    >>> from repro.logic import parse_ctl
    >>> is_tautology(parse_ctl("p | !p"))
    True
    """
    valid = _TAUTOLOGY_MEMO.get(f)
    if valid is not None:
        return valid
    if not is_propositional(f):
        raise LogicError(f"tautology check needs a propositional formula: {f}")
    bdd = BDD()
    for name in sorted(f.atoms()):
        bdd.add_var(name)
    valid = prop_to_bdd(bdd, f) == BDD_TRUE
    while len(_TAUTOLOGY_MEMO) >= _TAUTOLOGY_MEMO_CAP:
        _TAUTOLOGY_MEMO.pop(next(iter(_TAUTOLOGY_MEMO)))
    _TAUTOLOGY_MEMO[f] = valid
    return valid


def entails(f: Formula, g: Formula) -> bool:
    """Propositional entailment ``f ⊨ g`` (i.e. ``f → g`` is valid)."""
    return is_tautology(Implies(f, g))


def equivalent(f: Formula, g: Formula) -> bool:
    """Propositional equivalence."""
    return is_tautology(Iff(f, g))


def is_fairness_monotone(f: Formula, positive: bool = True) -> bool:
    """True when ``f``'s truth is preserved by *adding* fairness constraints.

    Adding constraints shrinks the set of fair paths.  Universal path
    quantifiers get weaker (easier) over fewer paths, existential ones get
    stronger — so a formula survives iff every A-operator occurs
    positively and every E-operator negatively.  Propositional parts are
    unaffected.  ``Iff`` is accepted only with propositional operands.

    This subsumes the paper's Lemma 11 (``f ⇒ AXg`` is of this shape).
    """
    if isinstance(f, (Atom, Const)):
        return True
    if isinstance(f, Not):
        return is_fairness_monotone(f.operand, not positive)
    if isinstance(f, (And, Or)):
        return is_fairness_monotone(f.left, positive) and is_fairness_monotone(
            f.right, positive
        )
    if isinstance(f, Implies):
        return is_fairness_monotone(f.left, not positive) and is_fairness_monotone(
            f.right, positive
        )
    if isinstance(f, Iff):
        return is_propositional(f.left) and is_propositional(f.right)
    if isinstance(f, (AX, AF, AG)):
        return positive and is_fairness_monotone(f.operand, positive)
    if isinstance(f, AU):
        return (
            positive
            and is_fairness_monotone(f.left, positive)
            and is_fairness_monotone(f.right, positive)
        )
    if isinstance(f, (EX, EF, EG)):
        return (not positive) and is_fairness_monotone(f.operand, positive)
    if isinstance(f, EU):
        return (
            (not positive)
            and is_fairness_monotone(f.left, positive)
            and is_fairness_monotone(f.right, positive)
        )
    raise LogicError(f"unknown formula node {type(f).__name__}")
