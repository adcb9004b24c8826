"""Measuring a BDD variable order by rebuilding under it.

A manager's variable order is its declaration order and never changes.
To measure another order, :func:`rebuild_with_order` *transfers* chosen
root functions into a fresh manager that declares the candidate order,
and :func:`shared_size` counts the reachable nodes of the result.  The
ablation benchmark ``bench_ablation_var_order`` uses the pair to show
how much the interleaved current/next order matters for transition
relations.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.bdd.manager import BDD
from repro.bdd.ops import transfer


def rebuild_with_order(roots: Sequence[int], src: BDD, order: Sequence[str]) -> tuple[BDD, list[int]]:
    """Rebuild the given root functions in a new manager using ``order``.

    Returns the new manager and the transferred roots.  ``order`` must
    contain every variable of ``src`` exactly once.
    """
    if sorted(order) != sorted(src.var_names):
        declared = set(src.var_names)
        given = set(order)
        problems = []
        missing = sorted(declared - given)
        if missing:
            problems.append(f"missing {', '.join(map(repr, missing))}")
        extra = sorted(given - declared)
        if extra:
            problems.append(f"extra {', '.join(map(repr, extra))}")
        duplicates = sorted({n for n in given if list(order).count(n) > 1})
        if duplicates:
            problems.append(f"duplicated {', '.join(map(repr, duplicates))}")
        raise ValueError(
            "order must be a permutation of the manager's variables: "
            + "; ".join(problems)
        )
    dst = BDD()
    for name in order:
        dst.add_var(name)
    memo: dict[int, int] = {}
    new_roots = [transfer(r, src, dst, memo) for r in roots]
    return dst, new_roots


def shared_size(bdd: BDD, roots: Sequence[int]) -> int:
    """Node count of the shared DAG of several roots (terminals excluded)."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        n = stack.pop()
        if n <= 1 or n in seen:
            continue
        seen.add(n)
        stack.append(bdd.low(n))
        stack.append(bdd.high(n))
    return len(seen)
