"""Interleaving parallel composition and expansion (paper Section 3.1).

``M ∘ M'`` over alphabets ``Σ`` and ``Σ'`` is the system over ``Σ ∪ Σ'``
whose transition relation ``R*`` is the smallest *reflexive* relation with:

1. if ``(s, t) ∈ R``  and ``r ⊆ Σ' − Σ`` then ``(s ∪ r, t ∪ r) ∈ R*``;
2. if ``(s', t') ∈ R'`` and ``r' ⊆ Σ − Σ'`` then ``(s' ∪ r', t' ∪ r') ∈ R*``.

Each step of the composite is a step of one component while the other
component's private propositions stutter — interleaving semantics, "powerful
enough to represent asynchronous concurrent execution of several processes
in a network".

The *expansion* of ``M`` over ``Σ'`` is ``M ∘ (Σ', I)`` where ``I`` is the
identity relation: the same behaviour, embedded in a larger alphabet whose
extra propositions never change (Lemmas 4–5).

:func:`composite` is the one place that chooses how a composite is built
for an engine: this module's explicit product, or the symbolic
:func:`~repro.systems.symbolic.composite_view`.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import reduce
from itertools import combinations

from repro.errors import SystemError_
from repro.systems.symbolic import SymbolicSystem, composite_view
from repro.systems.system import MAX_EXPLICIT_ATOMS, System, identity_system


def _subsets(atoms: frozenset[str]) -> list[frozenset[str]]:
    names = sorted(atoms)
    out = []
    for k in range(len(names) + 1):
        for combo in combinations(names, k):
            out.append(frozenset(combo))
    return out


def _lift(
    edges: Iterable[tuple[frozenset[str], frozenset[str]]],
    frame: frozenset[str],
) -> set[tuple[frozenset[str], frozenset[str]]]:
    """Lift component edges over every valuation of the frame propositions."""
    lifted: set[tuple[frozenset[str], frozenset[str]]] = set()
    frames = _subsets(frame)
    for s, t in edges:
        for r in frames:
            lifted.add((s | r, t | r))
    return lifted


def compose(m1: System, m2: System) -> System:
    """Interleaving composition ``m1 ∘ m2``.

    The result's alphabet is ``Σ ∪ Σ'``; its size is exponential in the
    alphabet, so composition of explicit systems is guarded by
    :data:`repro.systems.system.MAX_EXPLICIT_ATOMS`.
    """
    sigma = m1.sigma | m2.sigma
    if len(sigma) > MAX_EXPLICIT_ATOMS:
        raise SystemError_(
            f"composite alphabet has {len(sigma)} propositions; too large for "
            f"the explicit representation — use the symbolic engine"
        )
    edges = _lift(m1.edges, sigma - m1.sigma) | _lift(m2.edges, sigma - m2.sigma)
    return System(sigma, edges)


def compose_all(systems: Iterable[System]) -> System:
    """Fold :func:`compose` over several systems (associative, Lemma 1)."""
    systems = list(systems)
    if not systems:
        raise SystemError_("compose_all needs at least one system")
    return reduce(compose, systems)


def expand(m: System, sigma_prime: Iterable[str]) -> System:
    """Expansion of ``m`` over extra propositions: ``m ∘ (Σ', I)``.

    The expansion has alphabet ``Σ ∪ Σ'`` and never modifies propositions
    in ``Σ' − Σ``; by Lemma 5 it satisfies exactly the ``C(Σ)`` formulas
    that ``m`` satisfies.
    """
    return compose(m, identity_system(sigma_prime))


def composite(
    components: Iterable[System | SymbolicSystem],
    engine: str,
    extra_atoms: Iterable[str] = (),
) -> System | SymbolicSystem:
    """``M_1 ∘ … ∘ M_k ∘ (Σ', I)`` for one engine, converting each
    component to it: the explicit product (:func:`compose_all`) for
    ``"explicit"``, the symbolic
    :func:`~repro.systems.symbolic.composite_view` for ``"symbolic"``."""
    if engine == "symbolic":
        return composite_view(
            [
                m if isinstance(m, SymbolicSystem) else SymbolicSystem.from_explicit(m)
                for m in components
            ],
            extra_atoms,
        )
    explicit = [
        m.to_explicit() if isinstance(m, SymbolicSystem) else m for m in components
    ]
    extra = frozenset(extra_atoms)
    return compose_all([*explicit, identity_system(extra)] if extra else explicit)
