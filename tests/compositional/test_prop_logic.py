"""Tests for tautology checking and fairness-polarity analysis."""

import pytest
from hypothesis import given, settings

from tests.conftest import prop_formulas, systems
from repro.compositional.prop_logic import (
    entails,
    equivalent,
    is_fairness_monotone,
    is_tautology,
)
from repro.errors import LogicError
from repro.logic.ctl import (
    AF,
    AG,
    AU,
    AX,
    Const,
    EF,
    EG,
    EU,
    EX,
    And,
    Iff,
    Implies,
    Not,
    Or,
    atom,
    substitute,
)
from repro.logic.parser import parse_ctl

p, q = atom("p"), atom("q")


TAUTOLOGY_CASES = [
    ("p | !p", True),
    ("p -> p", True),
    ("(p -> q) <-> (!q -> !p)", True),
    ("p & !p", False),
    ("p -> q", False),
    ("true", True),
    ("false", False),
]


class TestTautology:
    @pytest.mark.parametrize("text,expected", TAUTOLOGY_CASES)
    def test_cases(self, text, expected):
        assert is_tautology(parse_ctl(text)) == expected

    @pytest.mark.parametrize("text,expected", TAUTOLOGY_CASES)
    def test_memoized_answer_unchanged(self, text, expected):
        # the second call (on an equal, freshly parsed formula) is
        # answered from the process-wide memo
        assert is_tautology(parse_ctl(text)) == expected
        assert is_tautology(parse_ctl(text)) == expected

    def test_rejects_temporal(self):
        with pytest.raises(LogicError):
            is_tautology(AX(p))

    def test_rejects_temporal_every_time(self):
        # a non-propositional formula never enters the memo
        for _ in range(2):
            with pytest.raises(LogicError):
                is_tautology(Implies(p, EF(q)))

    def test_entails(self):
        assert entails(And(p, q), p)
        assert not entails(p, And(p, q))

    def test_equivalent(self):
        assert equivalent(Implies(p, q), Or(Not(p), q))
        assert not equivalent(p, q)

    @given(prop_formulas())
    @settings(max_examples=60, deadline=None)
    def test_self_equivalence(self, f):
        assert equivalent(f, f)
        assert entails(f, f)


class TestFairnessMonotone:
    @pytest.mark.parametrize(
        "f",
        [
            Implies(p, AX(q)),               # Lemma 11's shape
            AG(p),
            Implies(p, AU(p, q)),
            Implies(p, AF(q)),
            Not(EX(p)),                      # = AX ¬p
            Not(EU(p, q)),
            Implies(EX(p), AX(q)),           # E negative, A positive
            And(p, Not(q)),                  # propositional
        ],
    )
    def test_monotone_shapes(self, f):
        assert is_fairness_monotone(f)

    @pytest.mark.parametrize(
        "f",
        [
            EX(p),
            Implies(p, EX(q)),
            Implies(p, EU(p, q)),
            Not(AX(p)),                      # = EX ¬p
            Implies(AX(p), q),               # A in negative position
            EG(p),
            EF(p),
        ],
    )
    def test_non_monotone_shapes(self, f):
        assert not is_fairness_monotone(f)

    def test_iff_propositional_only(self):
        assert is_fairness_monotone(Iff(p, q))
        assert not is_fairness_monotone(Iff(AX(p), q))

    @given(systems(max_atoms=2), prop_formulas(atoms=("a", "b"), max_depth=2))
    @settings(max_examples=40, deadline=None)
    def test_monotone_formulas_survive_fairness(self, system, fair):
        """Semantic check: AG/AX truths persist under added fairness."""
        from repro.checking.explicit import ExplicitChecker
        from repro.logic.restriction import Restriction

        fair = substitute(
            fair, {a: Const(True) for a in fair.atoms() - system.sigma}
        )
        target = AG(atom(sorted(system.sigma)[0]))
        assert is_fairness_monotone(target)
        ck = ExplicitChecker(system)
        if ck.holds(target):
            assert ck.holds(target, Restriction(fairness=(fair,)))
