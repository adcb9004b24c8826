"""Symbolic compilation: :class:`SmvModel` → :class:`SymbolicSystem`.

The transition relation is built once, as the balanced conjunction of
one partition per variable::

    P_v  =  valid ∧ ⋁_{val ∈ values(rhs_v)} possible(rhs_v, val) ∧ (v' = val)
            ∨  ¬valid ∧ frame(v)
    T    =  ⋀_v  P_v

The partitions are kept on the system for both compiles: the reflexive
(paper-style) relation is ``T ∨ Id``, so an image through the raw
partitions plus the stutter step ``∨ Q`` is exact for it too
(:meth:`~repro.systems.symbolic.SymbolicSystem.pre_image`).

Free variables contribute the constraint that their next value is any
domain value.  Junk bit patterns (outside every variable's domain) get
self-loops so the relation stays total over the full boolean state
space; they are unreachable from valid states and excluded from checks by
the validity initial condition.  Guards read current atoms only, so the
relation is total exactly when each ``∃ v'. P_v`` is.
"""

from __future__ import annotations

from repro.bdd.formula import prop_to_bdd
from repro.bdd.manager import FALSE, TRUE
from repro.errors import ElaborationError
from repro.smv.elaborate import SmvModel
from repro.systems.symbolic import SymbolicSystem, primed


def to_symbolic(
    model: SmvModel, reflexive: bool = False
) -> SymbolicSystem:
    """Compile to a symbolic system.

    Parameters
    ----------
    reflexive:
        False (default) keeps SMV's raw synchronous relation — the
        semantics the paper's figures are produced under.  True adds the
        identity relation (stutter closure) producing a paper-style
        component.
    """
    sym = SymbolicSystem(model.encoding.atoms)
    bdd = sym.bdd
    valid = prop_to_bdd(bdd, model.valid_formula())
    invalid = bdd.negate(valid)
    partitions: list[int] = []
    for var in model.variables:
        rhs = model.next_assign.get(var.name)
        constraint = FALSE
        if rhs is None:
            values = list(var.domain)
        else:
            values = model.value_set(rhs, var.domain)
        for value in values:
            if rhs is None:
                guard = TRUE
            else:
                guard = prop_to_bdd(
                    bdd, model.possible_formula(rhs, value, var.domain)
                )
            target = bdd.cube(
                {
                    primed(bit): bit_value
                    for bit, bit_value in var.bit_values(value).items()
                }
            )
            constraint = bdd.apply("or", constraint, bdd.apply("and", guard, target))
        # the variable's constraint on valid states, its stutter on junk
        # states: junk bit patterns only self-loop, which keeps them total
        # and stops a guard like `failure : nocall` from "repairing" one
        # (a transition no finite-domain state has)
        partition = bdd.apply(
            "or",
            bdd.apply("and", valid, constraint),
            bdd.apply("and", invalid, sym.frame(var.bits)),
        )
        # guards read current atoms only, so the partitions' next-state
        # supports are disjoint and ∃x'. ⋀_v P_v = ⋀_v ∃v'. P_v: the
        # relation is total iff every partition is
        if not reflexive and bdd.exists(map(primed, var.bits), partition) != TRUE:
            raise ElaborationError(
                f"module {model.name!r}: some state has no successor — a case "
                f"expression without a default '1 :' branch falls through"
            )
        partitions.append(partition)
    sym.set_transition(bdd.conj(partitions), reflexive=reflexive)
    # the raw partitions serve both compiles: the reflexive relation is
    # their conjunction plus the stutter step, which images add as ∨ Q
    sym.groups = [(frozenset(sym.atoms), partitions)]
    sym.stutter = reflexive
    if bdd.reorder_mode == "sift":
        # sift once, after the relation and its partitions exist — the
        # "auto" mode instead re-sifts whenever the table doubles
        sym.reorder()
    return sym


def initial_bdd(model: SmvModel, sym: SymbolicSystem) -> int:
    """The model's initial condition (validity + init assigns) as a BDD."""
    return prop_to_bdd(sym.bdd, model.initial_formula())
