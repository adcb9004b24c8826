"""From-scratch ROBDD engine — the symbolic checker's substrate.

Public surface:

* :class:`~repro.bdd.manager.BDD` — manager (variables, unique table, ops)
* :data:`~repro.bdd.manager.TRUE` / :data:`~repro.bdd.manager.FALSE`
* :func:`~repro.bdd.ops.transfer`, :func:`~repro.bdd.ops.evaluate`,
  :func:`~repro.bdd.ops.implies`, :func:`~repro.bdd.ops.dnf`
* :func:`~repro.bdd.order.rebuild_with_order`, :func:`~repro.bdd.order.shared_size`
* :func:`~repro.bdd.dot.to_dot`
"""

from repro.bdd.dot import to_dot
from repro.bdd.manager import BDD, FALSE, TRUE
from repro.bdd.ops import dnf, equiv, evaluate, implies, transfer
from repro.bdd.order import rebuild_with_order, shared_size

__all__ = [
    "BDD",
    "TRUE",
    "FALSE",
    "transfer",
    "evaluate",
    "implies",
    "equiv",
    "dnf",
    "rebuild_with_order",
    "shared_size",
    "to_dot",
]
