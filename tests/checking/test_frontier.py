"""Frontier fixpoints vs. naive full-recompute fixpoints.

The symbolic checker's ``_eu`` iterates only over the frontier (states
added last round) and ``_eg_plain`` rechecks only predecessors of the
most recently removed layer.  Both must compute *exactly* the classical
fixpoints

    EU:  μZ. q ∨ (p ∧ EX Z)        (full recompute each round)
    EG:  νZ. p ∧ EX Z

which this module re-implements naively from public BDD operations and
compares node-for-node on the paper's Figure 1 / Figure 2 systems and the
AFS-1 protocol components.  The explicit engine's frontier loops are
cross-checked against the symbolic verdicts on the same formulas.
"""

import pytest

from repro.bdd.formula import prop_to_bdd
from repro.bdd.manager import FALSE, TRUE
from repro.casestudies.afs1 import CLIENT, SERVER
from repro.casestudies.figures import (
    figure1_m,
    figure1_m_prime,
    figure2_p,
    figure2_q,
    figure2_system,
)
from repro.checking.explicit import ExplicitChecker
from repro.checking.symbolic import SymbolicChecker
from repro.logic.ctl import EG, EU, Atom, Not, Or, TRUE as F_TRUE
from repro.systems.symbolic import SymbolicSystem, composite_view


# ----------------------------------------------------------------------
# naive reference fixpoints (textbook iteration, no frontiers)
# ----------------------------------------------------------------------
def naive_eu(checker: SymbolicChecker, p: int, q: int) -> int:
    b = checker.bdd
    z = FALSE
    while True:
        nxt = b.apply("or", q, b.apply("and", p, checker._ex(z)))
        if nxt == z:
            return z
        z = nxt


def naive_eg(checker: SymbolicChecker, p: int) -> int:
    b = checker.bdd
    z = p
    while True:
        nxt = b.apply("and", p, checker._ex(z))
        if nxt == z:
            return z
        z = nxt


def state_sets(sym: SymbolicSystem) -> list[int]:
    """A spread of state sets over the system's atoms: constants, single
    atoms, their negations, and a few combinations."""
    b = sym.bdd
    sets = [FALSE, TRUE]
    for a in sym.atoms:
        sets.append(b.var(a))
        sets.append(b.nvar(a))
    for i in range(len(sym.atoms) - 1):
        u = b.var(sym.atoms[i])
        v = b.var(sym.atoms[i + 1])
        sets.append(b.apply("and", u, v))
        sets.append(b.apply("xor", u, v))
    return sets


def systems() -> list[tuple[str, SymbolicSystem]]:
    fig1 = SymbolicSystem.from_explicit(figure1_m())
    fig1p = SymbolicSystem.from_explicit(figure1_m_prime())
    composed = composite_view([fig1, fig1p])
    fig2 = SymbolicSystem.from_explicit(figure2_system())
    server = SERVER.symbolic(reflexive=True)
    client = CLIENT.symbolic(reflexive=True)
    return [
        ("figure1_m", fig1),
        ("figure1_composed", composed),
        ("figure2", fig2),
        ("afs1_server", server),
        ("afs1_client", client),
    ]


SYSTEMS = systems()


@pytest.mark.parametrize("name,sym", SYSTEMS, ids=[n for n, _ in SYSTEMS])
class TestFrontierEqualsNaive:
    def test_eu_matches_naive_fixpoint(self, name, sym):
        checker = SymbolicChecker(sym)
        sets = state_sets(sym)
        for p in sets:
            for q in sets:
                assert checker._eu(p, q) == naive_eu(checker, p, q)

    def test_eg_matches_naive_fixpoint(self, name, sym):
        checker = SymbolicChecker(sym)
        for p in state_sets(sym):
            assert checker._eg_plain(p) == naive_eg(checker, p)


class TestFigure2Formulas:
    """The paper's own predicates p and q on the Figure 2 system."""

    def test_eu_of_paper_predicates(self):
        sym = SymbolicSystem.from_explicit(figure2_system())
        checker = SymbolicChecker(sym)
        p = prop_to_bdd(sym.bdd, figure2_p())
        q = prop_to_bdd(sym.bdd, figure2_q())
        assert checker._eu(p, q) == naive_eu(checker, p, q)
        assert checker._eu(TRUE, q) == naive_eu(checker, TRUE, q)

    def test_eg_of_paper_predicates(self):
        sym = SymbolicSystem.from_explicit(figure2_system())
        checker = SymbolicChecker(sym)
        p = prop_to_bdd(sym.bdd, figure2_p())
        assert checker._eg_plain(p) == naive_eg(checker, p)
        not_q = prop_to_bdd(sym.bdd, Not(figure2_q()))
        assert checker._eg_plain(not_q) == naive_eg(checker, not_q)


class TestExplicitAgreesWithSymbolic:
    """Explicit frontier loops produce the same verdicts as the BDD engine."""

    def formulas(self, atoms):
        atoms = sorted(atoms)
        a, b = Atom(atoms[0]), Atom(atoms[-1])
        return [
            EU(a, b),
            EU(Not(a), b),
            EU(F_TRUE, Or(a, b)),
            EG(a),
            EG(Not(a)),
            EG(Or(a, Not(b))),
        ]

    @pytest.mark.parametrize(
        "system",
        [figure1_m(), figure2_system(), SERVER.system(), CLIENT.system()],
        ids=["figure1_m", "figure2", "afs1_server", "afs1_client"],
    )
    def test_verdicts_agree(self, system):
        explicit = ExplicitChecker(system)
        symbolic = SymbolicChecker(SymbolicSystem.from_explicit(system))
        for f in self.formulas(system.sigma):
            assert bool(explicit.holds(f)) == bool(symbolic.holds(f)), f
