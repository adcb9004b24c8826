"""Computation Tree Logic — abstract syntax.

The AST follows the paper's Section 2: state formulas built from atomic
propositions with ``¬ ∧ ∨ → ↔`` and the paired path quantifiers
``{A,E} × {X,F,G,U}``.  ``EF/AF/EG/AG`` are kept as first-class nodes (the
checkers handle them natively) but :func:`expand_derived` rewrites them to
the paper's base form (S1–S3, P0 plus the derivation table) for tests of
the semantics.

Formulas are immutable, hashable, and compare structurally, so they can be
used as dictionary keys (the model checkers memoize on sub-formulas).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass

from repro.errors import LogicError

__all__ = [
    "Formula",
    "Atom",
    "Const",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "EX",
    "AX",
    "EF",
    "AF",
    "EG",
    "AG",
    "EU",
    "AU",
    "TRUE",
    "FALSE",
    "atom",
    "land",
    "lor",
    "expand_derived",
    "is_propositional",
    "dual",
    "subformulas",
]


@dataclass(frozen=True)
class Formula:
    """Base class of all CTL formulas."""

    def atoms(self) -> frozenset[str]:
        """The set of atomic-proposition names mentioned in the formula."""
        out: set[str] = set()
        for f in subformulas(self):
            if isinstance(f, Atom):
                out.add(f.name)
        return frozenset(out)

    def children(self) -> tuple["Formula", ...]:
        """Immediate sub-formulas."""
        return ()

    def map_atoms(self, fn: Callable[[str], "Formula"]) -> "Formula":
        """Substitute every atom ``p`` by ``fn(p)`` (capture-free by design)."""
        raise NotImplementedError

    # boolean-operator sugar so formulas compose readably in tests/examples
    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)

    def __rshift__(self, other: "Formula") -> "Formula":
        """``p >> q`` is implication ``p -> q``."""
        return Implies(self, other)


@dataclass(frozen=True)
class Atom(Formula):
    """An atomic proposition ``p ∈ Σ``."""

    name: str

    def map_atoms(self, fn: Callable[[str], Formula]) -> Formula:
        return fn(self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const(Formula):
    """The constants ``true`` and ``false``."""

    value: bool

    def map_atoms(self, fn: Callable[[str], Formula]) -> Formula:
        return self

    def __str__(self) -> str:
        return "true" if self.value else "false"


TRUE = Const(True)
FALSE = Const(False)


@dataclass(frozen=True)
class _Unary(Formula):
    operand: Formula

    _symbol = "?"

    def children(self) -> tuple[Formula, ...]:
        return (self.operand,)

    def map_atoms(self, fn: Callable[[str], Formula]) -> Formula:
        return type(self)(self.operand.map_atoms(fn))

    def __str__(self) -> str:
        return f"{self._symbol}({self.operand})"


@dataclass(frozen=True)
class _Binary(Formula):
    left: Formula
    right: Formula

    _symbol = "?"

    def children(self) -> tuple[Formula, ...]:
        return (self.left, self.right)

    def map_atoms(self, fn: Callable[[str], Formula]) -> Formula:
        return type(self)(self.left.map_atoms(fn), self.right.map_atoms(fn))

    def __str__(self) -> str:
        return f"({self.left} {self._symbol} {self.right})"


@dataclass(frozen=True)
class Not(_Unary):
    """Negation ``¬p``."""

    _symbol = "!"

    def __str__(self) -> str:
        return f"!({self.operand})"


@dataclass(frozen=True)
class And(_Binary):
    """Conjunction ``p ∧ q``."""

    _symbol = "&"


@dataclass(frozen=True)
class Or(_Binary):
    """Disjunction ``p ∨ q`` (derived: ``¬(¬p ∧ ¬q)``)."""

    _symbol = "|"


@dataclass(frozen=True)
class Implies(_Binary):
    """Implication ``p → q`` (derived: ``¬(p ∧ ¬q)``)."""

    _symbol = "->"


@dataclass(frozen=True)
class Iff(_Binary):
    """Equivalence ``p ↔ q``."""

    _symbol = "<->"


@dataclass(frozen=True)
class EX(_Unary):
    """``EX p`` — p holds at the next state of some path."""

    _symbol = "EX"


@dataclass(frozen=True)
class AX(_Unary):
    """``AX p`` — p holds at the next state of every path."""

    _symbol = "AX"


@dataclass(frozen=True)
class EF(_Unary):
    """``EF p`` = ``E(true U p)``."""

    _symbol = "EF"


@dataclass(frozen=True)
class AF(_Unary):
    """``AF p`` = ``A(true U p)``."""

    _symbol = "AF"


@dataclass(frozen=True)
class EG(_Unary):
    """``EG p`` = ``¬A(true U ¬p)``."""

    _symbol = "EG"


@dataclass(frozen=True)
class AG(_Unary):
    """``AG p`` = ``¬E(true U ¬p)``."""

    _symbol = "AG"


@dataclass(frozen=True)
class EU(_Binary):
    """``E(p U q)`` — strong until along some path."""

    def __str__(self) -> str:
        return f"E[{self.left} U {self.right}]"


@dataclass(frozen=True)
class AU(_Binary):
    """``A(p U q)`` — strong until along every path."""

    def __str__(self) -> str:
        return f"A[{self.left} U {self.right}]"


# ----------------------------------------------------------------------
# convenience constructors
# ----------------------------------------------------------------------
def atom(name: str) -> Atom:
    """Shorthand constructor for an atomic proposition."""
    return Atom(name)


def land(*fs: Formula) -> Formula:
    """N-ary conjunction (``true`` when empty), left-associated."""
    if not fs:
        return TRUE
    acc = fs[0]
    for f in fs[1:]:
        acc = And(acc, f)
    return acc


def lor(*fs: Formula) -> Formula:
    """N-ary disjunction (``false`` when empty), left-associated."""
    if not fs:
        return FALSE
    acc = fs[0]
    for f in fs[1:]:
        acc = Or(acc, f)
    return acc


# ----------------------------------------------------------------------
# structural utilities
# ----------------------------------------------------------------------
def subformulas(f: Formula) -> Iterator[Formula]:
    """All sub-formulas of ``f`` (including ``f``), pre-order."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(g.children())


def is_propositional(f: Formula) -> bool:
    """True iff ``f`` contains no temporal operator.

    The paper's rules restrict ``p`` and ``q`` to propositional formulas
    ("atomic propositions or boolean combinations of atomic propositions").
    The answer is cached on ``f`` (formulas are immutable): proof rules
    ask it of the same formula several times.
    """
    cached = f.__dict__.get("_propositional_cache")
    if cached is None:
        temporal = (EX, AX, EF, AF, EG, AG, EU, AU)
        cached = True
        stack = [f]
        while stack:
            g = stack.pop()
            if isinstance(g, temporal):
                cached = False
                break
            stack.extend(g.children())
        object.__setattr__(f, "_propositional_cache", cached)
    return cached


def expand_derived(f: Formula) -> Formula:
    """Rewrite to the paper's base grammar (S1–S3/P0 + derivation table).

    ``∨ → ↔ EF AF EG AG`` are eliminated in favour of
    ``¬ ∧ EX AX EU AU``; the result is logically equivalent.
    """
    if isinstance(f, (Atom, Const)):
        return f
    if isinstance(f, Not):
        return Not(expand_derived(f.operand))
    if isinstance(f, And):
        return And(expand_derived(f.left), expand_derived(f.right))
    if isinstance(f, Or):
        # f ∨ g = ¬(¬f ∧ ¬g)
        return Not(And(Not(expand_derived(f.left)), Not(expand_derived(f.right))))
    if isinstance(f, Implies):
        # f → g = ¬(f ∧ ¬g)
        return Not(And(expand_derived(f.left), Not(expand_derived(f.right))))
    if isinstance(f, Iff):
        left, right = expand_derived(f.left), expand_derived(f.right)
        return And(Not(And(left, Not(right))), Not(And(right, Not(left))))
    if isinstance(f, EX):
        return EX(expand_derived(f.operand))
    if isinstance(f, AX):
        return AX(expand_derived(f.operand))
    if isinstance(f, EF):
        return EU(TRUE, expand_derived(f.operand))
    if isinstance(f, AF):
        return AU(TRUE, expand_derived(f.operand))
    if isinstance(f, AG):
        return Not(EU(TRUE, Not(expand_derived(f.operand))))
    if isinstance(f, EG):
        return Not(AU(TRUE, Not(expand_derived(f.operand))))
    if isinstance(f, EU):
        return EU(expand_derived(f.left), expand_derived(f.right))
    if isinstance(f, AU):
        return AU(expand_derived(f.left), expand_derived(f.right))
    raise LogicError(f"unknown formula node {type(f).__name__}")


def dual(f: Formula) -> Formula:
    """One-step dual used by the checkers: rewrite A-operators via E-operators.

    ``AX p = ¬EX¬p``; ``AF p = ¬EG¬p``; ``AG p = ¬EF¬p``;
    ``A(p U q) = ¬(E[¬q U (¬p ∧ ¬q)] ∨ EG ¬q)``.
    Only the *top* operator is rewritten.
    """
    if isinstance(f, AX):
        return Not(EX(Not(f.operand)))
    if isinstance(f, AF):
        return Not(EG(Not(f.operand)))
    if isinstance(f, AG):
        return Not(EF(Not(f.operand)))
    if isinstance(f, AU):
        p, q = f.left, f.right
        return Not(Or(EU(Not(q), And(Not(p), Not(q))), EG(Not(q))))
    return f


def substitute(f: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Replace atoms by formulas according to ``mapping`` (missing = keep)."""
    return f.map_atoms(lambda name: mapping.get(name, Atom(name)))


def _install_hash_caching() -> None:
    """Cache each node's structural hash on first use.

    Formulas are immutable trees used as memo-table keys throughout the
    checkers; the dataclass-generated ``__hash__`` rehashes the whole
    subtree on every lookup (profiling showed it dominating proof replay).
    Wrapping it with a per-object cache makes repeated hashing O(1) while
    keeping structural equality semantics untouched.
    """
    for cls in (
        Atom, Const, Not, And, Or, Implies, Iff,
        EX, AX, EF, AF, EG, AG, EU, AU,
    ):
        original = cls.__hash__

        def cached(self, _original=original):
            value = self.__dict__.get("_hash_cache")
            if value is None:
                value = _original(self)
                object.__setattr__(self, "_hash_cache", value)
            return value

        cls.__hash__ = cached  # type: ignore[assignment]


_install_hash_caching()
