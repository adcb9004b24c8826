"""Derived BDD operations that do not need access to manager internals.

These helpers work on top of the public :class:`repro.bdd.manager.BDD`
interface: transferring functions between managers (used by the order
module), evaluating a BDD on a concrete assignment, and structural
utilities used by the test suite.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.bdd.manager import BDD, FALSE, TRUE
from repro.errors import BddError


def transfer(u: int, src: BDD, dst: BDD, _memo: dict[int, int] | None = None) -> int:
    """Rebuild the function ``u`` (from manager ``src``) inside manager ``dst``.

    ``dst`` must declare every variable in the support of ``u``; the two
    managers may use completely different variable orders — the rebuild goes
    through ``ite`` so the result is canonical for ``dst``'s order.
    """
    memo: dict[int, int] = {} if _memo is None else _memo

    def rec(n: int) -> int:
        if n <= 1:
            return n
        cached = memo.get(n)
        if cached is not None:
            return cached
        name = src.name_of(src.level(n))
        if name not in dst.var_names:
            raise BddError(f"destination manager lacks variable {name!r}")
        low = rec(src.low(n))
        high = rec(src.high(n))
        result = dst.ite(dst.var(name), high, low)
        memo[n] = result
        return result

    try:
        return rec(u)
    finally:
        del rec  # a self-referencing closure would keep both managers alive


def evaluate(bdd: BDD, u: int, assignment: Mapping[str, bool]) -> bool:
    """Evaluate ``u`` under a total assignment of its support variables."""
    while u > 1:
        name = bdd.name_of(bdd.level(u))
        try:
            value = assignment[name]
        except KeyError:
            raise BddError(f"assignment missing variable {name!r}") from None
        u = bdd.high(u) if value else bdd.low(u)
    return u == TRUE


def implies(bdd: BDD, u: int, v: int) -> bool:
    """Decide entailment ``u ⊨ v`` (i.e. ``u → v`` is a tautology)."""
    return bdd.apply("diff", u, v) == FALSE


def equiv(u: int, v: int) -> bool:
    """Decide functional equality — just node identity in a shared manager."""
    return u == v


def dnf(bdd: BDD, u: int, names: list[str] | None = None) -> list[dict[str, bool]]:
    """A disjoint cover of ``u`` as a list of partial assignments (cubes).

    Each cube corresponds to one root-to-TRUE path of the BDD; unmentioned
    variables are don't-cares.  Useful for error messages and tests.
    """
    cubes: list[dict[str, bool]] = []

    def rec(n: int, path: dict[str, bool]) -> None:
        if n == FALSE:
            return
        if n == TRUE:
            cubes.append(dict(path))
            return
        name = bdd.name_of(bdd.level(n))
        path[name] = False
        rec(bdd.low(n), path)
        path[name] = True
        rec(bdd.high(n), path)
        del path[name]

    try:
        rec(u, {})
    finally:
        del rec  # a self-referencing closure would keep the manager alive
    return cubes
